#include "proto/relaxed_ordered.h"

#include <algorithm>

#include "util/check.h"

namespace omcast::proto {

using overlay::kNoNode;
using overlay::NodeId;
using overlay::Session;

namespace {

// Sentinel distinct from kNoNode: PlaceOne() could not place the member.
constexpr NodeId kNotPlaced = -2;

}  // namespace

bool RelaxedOrderedProtocol::TryAttach(Session& session, NodeId id) {
  // The central administrator performs the join and any eviction chain it
  // triggers as one atomic operation: each evicted member is re-placed
  // immediately (it may evict a strictly lower-ranked member in turn, so
  // the chain provably terminates, and the global spare-capacity guard in
  // PlaceOne ensures the final member of the chain always finds a slot).
  // Deferring evictee rejoins instead would let detached fragments pile up
  // and hold their subtree capacity hostage under churn.
  NodeId pending = id;
  bool first = true;
  while (pending != kNoNode) {
    const NodeId evicted = PlaceOne(session, pending);
    if (evicted == kNotPlaced) {
      util::Check(first, "evictee must always be re-placeable");
      return false;
    }
    if (!first) ++session.tree().Get(pending).reconnections;
    pending = evicted;
    first = false;
  }
  return true;
}

void RelaxedOrderedProtocol::SortStrongestFirst(
    const overlay::Tree& tree, std::vector<NodeId>& ids) const {
  std::sort(ids.begin(), ids.end(), [&](NodeId a, NodeId b) {
    return RankKey(tree.Get(a)) > RankKey(tree.Get(b));
  });
}

NodeId RelaxedOrderedProtocol::PlaceOne(Session& session, NodeId id) {
  overlay::Tree& tree = session.tree();

  // One pass over the rooted tree collecting, per layer, the weakest few
  // outranked incumbents, a reservoir of spare-capacity slots, and the
  // global spare total. The pass follows the tree's preorder thread, which
  // lists the members in the order the reservoir's RNG draws depend on.
  long spare_total = 0;
  int max_layer = 0;
  LayerSummary fresh;
  fresh.threshold = RankKey(tree.Get(id));
  std::fill(layer_summaries_.begin(), layer_summaries_.end(), fresh);
  for (NodeId v = overlay::kRootId; v != kNoNode; v = tree.PreorderNext(v)) {
    const int layer = tree.Layer(v);
    if (static_cast<std::size_t>(layer) >= layer_summaries_.size())
      layer_summaries_.resize(static_cast<std::size_t>(layer) + 1, fresh);
    LayerSummary& summary = layer_summaries_[static_cast<std::size_t>(layer)];
    max_layer = std::max(max_layer, layer);
    const int spare = tree.SpareCapacity(v);
    if (spare > 0) {
      spare_total += spare;
      // Reservoir sample of spare slots (the delay tie-break is applied to
      // this sample rather than every slot in the layer).
      ++summary.spare_seen;
      if (summary.spare_count < kCandidatesPerLayer) {
        summary.spare[summary.spare_count++] = v;
      } else {
        const auto j = static_cast<long>(
            session.rng().UniformIndex(static_cast<std::size_t>(summary.spare_seen)));
        if (j < kCandidatesPerLayer) summary.spare[j] = v;
      }
    }
    const double key = RankKey(tree.Get(v));
    if (key < summary.threshold && v != overlay::kRootId) {
      // Bounded insertion sort keeping the weakest candidates first; when
      // the list is full its strongest entry drops out.
      int j = summary.weakest_count;
      if (j < kCandidatesPerLayer) {
        ++summary.weakest_count;
      } else {
        --j;
      }
      while (j > 0 && summary.weakest_key[j - 1] > key) {
        summary.weakest[j] = summary.weakest[j - 1];
        summary.weakest_key[j] = summary.weakest_key[j - 1];
        --j;
      }
      summary.weakest[j] = v;
      summary.weakest_key[j] = key;
      if (summary.weakest_count == kCandidatesPerLayer)
        summary.threshold = summary.weakest_key[kCandidatesPerLayer - 1];
    }
  }

  // Global placement headroom: an eviction chain consumes exactly one spare
  // slot at its end, so evictions are only safe when one exists.
  if (spare_total < 1) return kNotPlaced;

  // Net rooted-spare change if `joining` replaces `v`: the evictee leaves
  // with its own spare and the spare of every kept child's subtree, while
  // the replacement brings its leftover spare. Evictions that would drop
  // the rooted headroom below 1 are deferred -- otherwise the end of the
  // eviction chain could find no slot anywhere.
  const auto eviction_keeps_headroom = [&](NodeId v) {
    const int adoptable =
        std::min<int>(tree.SpareCapacity(id), tree.ChildCount(v));
    long lost = tree.SpareCapacity(v);
    std::vector<NodeId> children = tree.Children(v);
    SortStrongestFirst(tree, children);
    for (std::size_t i = static_cast<std::size_t>(adoptable);
         i < children.size(); ++i) {
      lost += tree.SpareCapacity(children[i]);
      tree.ForEachDescendant(children[i], [&](NodeId d) {
        lost += tree.SpareCapacity(d);
      });
    }
    const long gained = tree.SpareCapacity(id) - adoptable;
    return spare_total - lost + gained >= 1;
  };

  // Consider target layers top-down; reaching layer R is possible either by
  // replacing an outranked incumbent at R or by attaching under a
  // spare-capacity member at R-1. At equal resulting depth a spare slot is
  // preferred -- the ordering still emerges (an outranked incumbent at R
  // would also have been outranked at every shallower layer scanned
  // before), and gratuitous evictions cost the overlay real disruptions.
  for (int r = 1; r <= max_layer + 1; ++r) {
    const LayerSummary& above = layer_summaries_[static_cast<std::size_t>(r - 1)];
    NodeId best = kNoNode;
    double best_delay = 0.0;
    for (int i = 0; i < above.spare_count; ++i) {
      const NodeId u = above.spare[i];
      if (tree.SpareCapacity(u) <= 0) continue;
      const double d = session.DelayMs(u, id);
      if (best == kNoNode || d < best_delay) {
        best = u;
        best_delay = d;
      }
    }
    if (best != kNoNode) {
      tree.Attach(best, id);
      return kNoNode;
    }
    if (r <= max_layer) {
      // Candidates weakest-first; take the weakest whose eviction keeps
      // placement headroom.
      const LayerSummary& summary = layer_summaries_[static_cast<std::size_t>(r)];
      for (int i = 0; i < summary.weakest_count; ++i) {
        if (!eviction_keeps_headroom(summary.weakest[i])) continue;
        Replace(session, summary.weakest[i], id);
        return summary.weakest[i];
      }
    }
  }
  return kNotPlaced;
}

void RelaxedOrderedProtocol::Replace(Session& session, NodeId incumbent,
                                     NodeId joining) {
  overlay::Tree& tree = session.tree();
  const NodeId parent = tree.Parent(incumbent);
  util::Check(parent != kNoNode, "cannot replace a fragment root");

  // The replacement adopts the incumbent's strongest children up to its own
  // *spare* capacity (a rejoining fragment root brings children of its
  // own); the administrator re-parents the overflow children elsewhere
  // ("possibly together with some of its children [they] are forced to
  // rejoin the tree"). Child moves are arranged make-before-break by the
  // central administrator, so they cost a reconnection but no disruption;
  // the evicted member itself loses its slot and is off the stream until
  // its own rejoin completes -- one streaming disruption.
  std::vector<NodeId> children = tree.Children(incumbent);
  SortStrongestFirst(tree, children);
  const int adoptable = std::min<int>(tree.SpareCapacity(joining),
                                      static_cast<int>(children.size()));
  for (NodeId c : children) tree.Detach(c);
  tree.Detach(incumbent);
  session.ChargeDisruption(incumbent);  // subtree already split off
  tree.Attach(parent, joining);
  for (std::size_t i = 0; i < children.size(); ++i) {
    const NodeId c = children[i];
    if (static_cast<int>(i) < adoptable) {
      tree.Attach(joining, c);
      ++tree.Get(c).reconnections;
    } else {
      // Overflow: re-enter the placement machinery with its subtree.
      session.ForceRejoin(c);
    }
  }
}

}  // namespace omcast::proto
