#include "proto/selection.h"

namespace omcast::proto {

using overlay::kNoNode;
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

}  // namespace omcast::proto
