#include "proto/selection.h"

#include "util/check.h"

namespace omcast::proto {

using overlay::kNoNode;
using overlay::kRootId;
using overlay::NodeId;
using overlay::Session;
using overlay::Tree;

NodeId PickMinDepthParent(Session& session,
                          const std::vector<NodeId>& candidates,
                          NodeId joining) {
  NodeId best = kNoNode;
  int best_layer = 0;
  double best_delay = 0.0;
  const Tree& tree = session.tree();
  for (NodeId c : candidates) {
    if (tree.SpareCapacity(c) <= 0) continue;
    const int layer = tree.Layer(c);
    const double delay = session.DelayMs(c, joining);
    if (best == kNoNode || layer < best_layer ||
        (layer == best_layer && delay < best_delay)) {
      best = c;
      best_layer = layer;
      best_delay = delay;
    }
  }
  return best;
}

NodeId PickOldestParent(Session& session, const std::vector<NodeId>& candidates,
                        NodeId joining) {
  NodeId best = kNoNode;
  double best_join = 0.0;
  double best_delay = 0.0;
  const Tree& tree = session.tree();
  for (NodeId c : candidates) {
    if (tree.SpareCapacity(c) <= 0) continue;
    const overlay::Member& m = tree.Get(c);
    const double delay = session.DelayMs(c, joining);
    // Oldest member == smallest join time.
    if (best == kNoNode || m.join_time < best_join ||
        (m.join_time == best_join && delay < best_delay)) {
      best = c;
      best_join = m.join_time;
      best_delay = delay;
    }
  }
  return best;
}

NodeId PreemptJoin(Tree& tree, const std::vector<NodeId>& candidates,
                   NodeId joining,
                   const std::function<bool(NodeId)>& pinned) {
  if (tree.SpareCapacity(joining) < 1) return kNoNode;
  const double joiner_bw = tree.Get(joining).reported_bandwidth;
  NodeId weakest = kNoNode;
  double weakest_bw = 0.0;
  for (NodeId c : candidates) {
    if (c == kRootId || (pinned && pinned(c))) continue;
    if (tree.ChildCount(c) != 0) continue;  // only leaves: nobody else moves
    const double bw = tree.Get(c).reported_bandwidth;
    if (bw >= joiner_bw) continue;
    if (weakest == kNoNode || bw < weakest_bw ||
        (bw == weakest_bw && c < weakest)) {
      weakest = c;
      weakest_bw = bw;
    }
  }
  if (weakest == kNoNode) return kNoNode;
  // Splice: the joiner takes the leaf's slot, the leaf becomes its child.
  const NodeId slot_parent = tree.Parent(weakest);
  tree.Detach(weakest);
  tree.Attach(slot_parent, joining);
  tree.Attach(joining, weakest);
  ++tree.Get(weakest).reconnections;
  OMCAST_DCHECK(tree.IsRooted(joining) && tree.IsRooted(weakest),
                "preempt join must leave both members rooted");
  return weakest;
}

}  // namespace omcast::proto
