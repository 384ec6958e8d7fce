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

void RelaxedOrderedProtocol::Candidates::Offer(NodeId v, double key) {
  if (!(key < threshold)) return;
  // Bounded insertion sort keeping the weakest candidates first; when the
  // list is full its strongest entry drops out.
  int j = count;
  if (j < kCandidatesPerLayer) {
    ++count;
  } else {
    --j;
  }
  while (j > 0 && keys[j - 1] > key) {
    ids[j] = ids[j - 1];
    keys[j] = keys[j - 1];
    --j;
  }
  ids[j] = v;
  keys[j] = key;
  if (count == kCandidatesPerLayer) threshold = keys[kCandidatesPerLayer - 1];
}

void RelaxedOrderedProtocol::AddMember(const overlay::Tree& tree,
                                       BranchSummary& branch,
                                       std::vector<SpareMember>& spare,
                                       NodeId v) const {
  const int layer = tree.Layer(v);
  if (static_cast<std::size_t>(layer) >= branch.weakest.size())
    branch.weakest.resize(static_cast<std::size_t>(layer) + 1);
  branch.max_layer = std::max(branch.max_layer, layer);
  const int slots = tree.SpareCapacity(v);
  if (slots > 0) {
    branch.spare_total += slots;
    spare.push_back({v, layer});
  }
  const double key = RankKey(tree.Get(v));
  branch.min_key = std::min(branch.min_key, key);
  branch.weakest[static_cast<std::size_t>(layer)].Offer(v, key);
}

void RelaxedOrderedProtocol::Summarize(const overlay::Tree& tree, NodeId top,
                                       BranchSummary& out) const {
  out.top = top;
  out.stamp = tree.BranchStamp(top);
  out.spare_total = 0;
  out.max_layer = 0;
  out.min_key = std::numeric_limits<double>::infinity();
  out.spare.clear();
  out.weakest.clear();  // keeps its capacity
  const auto visit = [&](NodeId v) { AddMember(tree, out, out.spare, v); };
  visit(top);
  tree.ForEachDescendant(top, visit);
}

int RelaxedOrderedProtocol::Summary(const overlay::Tree& tree, NodeId top) {
  if (slot_of_.size() < tree.size()) slot_of_.resize(tree.size(), -1);
  int& slot = slot_of_[static_cast<std::size_t>(top)];
  if (slot < 0 || branches_[static_cast<std::size_t>(slot)].top != top) {
    // Take the slot of a member that is no longer a child of the root.
    slot = 0;
    while (static_cast<std::size_t>(slot) < branches_.size()) {
      const NodeId owner = branches_[static_cast<std::size_t>(slot)].top;
      if (owner == kNoNode || tree.Parent(owner) != overlay::kRootId) break;
      ++slot;
    }
    if (static_cast<std::size_t>(slot) == branches_.size())
      branches_.emplace_back();
    branches_[static_cast<std::size_t>(slot)].top = kNoNode;
  }
  BranchSummary& branch = branches_[static_cast<std::size_t>(slot)];
  if (branch.top != top || branch.stamp != tree.BranchStamp(top))
    Summarize(tree, top, branch);
  return slot;
}

void RelaxedOrderedProtocol::FoldAttached(const overlay::Tree& tree,
                                          BranchSummary& branch, NodeId parent,
                                          NodeId fragment) {
  // `parent` had spare capacity, so it is on the spare list, and the
  // fragment's block follows it on the thread.
  auto at = std::find_if(
      branch.spare.begin(), branch.spare.end(),
      [parent](const SpareMember& m) { return m.id == parent; });
  util::Check(at != branch.spare.end(), "attach parent not on the spare list");
  at = tree.SpareCapacity(parent) > 0 ? at + 1 : branch.spare.erase(at);
  --branch.spare_total;
  folded_.clear();
  // A key equal to one already on a layer's list may belong before or
  // after the fragment on the thread, so a tie leaves the branch to a walk.
  bool tied = false;
  const auto visit = [&](NodeId v) {
    const auto layer = static_cast<std::size_t>(tree.Layer(v));
    if (layer < branch.weakest.size()) {
      const Candidates& w = branch.weakest[layer];
      tied = tied || std::find(w.keys, w.keys + w.count,
                               RankKey(tree.Get(v))) != w.keys + w.count;
    }
    AddMember(tree, branch, folded_, v);
  };
  visit(fragment);
  tree.ForEachDescendant(fragment, visit);
  branch.spare.insert(at, folded_.begin(), folded_.end());
  branch.stamp = tied ? 0 : tree.BranchStamp(branch.top);
}

void RelaxedOrderedProtocol::AuditSummary(const overlay::Tree& tree,
                                          const BranchSummary& cached) const {
  BranchSummary fresh;
  Summarize(tree, cached.top, fresh);
  util::Check(cached == fresh,
              "cached branch summary is stale: a rooted change kept its "
              "branch stamp, or a rooted member's rank key changed");
}

NodeId RelaxedOrderedProtocol::PlaceOne(Session& session, NodeId id) {
  overlay::Tree& tree = session.tree();

  // Collect, per layer, the weakest few outranked incumbents, a reservoir
  // of spare-capacity slots, and the global spare total: from the root,
  // then from each branch's summary in thread order. The reservoir sees the
  // spare-capacity members in thread order, the order its RNG draws depend
  // on; a branch's weakest list is sorted, so its merge stops at the first
  // key the layer's list would refuse.
  long spare_total = 0;
  int max_layer = 0;
  LayerSummary fresh;
  fresh.weakest.threshold = RankKey(tree.Get(id));
  std::fill(layer_summaries_.begin(), layer_summaries_.end(), fresh);
  if (layer_summaries_.empty()) layer_summaries_.push_back(fresh);
  const auto sample_spare = [&](LayerSummary& summary, NodeId v, int slot) {
    // Reservoir sample of spare slots (the delay tie-break is applied to
    // this sample rather than every slot in the layer).
    ++summary.spare_seen;
    if (summary.spare_count < kCandidatesPerLayer) {
      summary.spare_slot[summary.spare_count] = slot;
      summary.spare[summary.spare_count++] = v;
    } else {
      const auto j = static_cast<long>(session.rng().UniformIndex(
          static_cast<std::size_t>(summary.spare_seen)));
      if (j < kCandidatesPerLayer) {
        summary.spare[j] = v;
        summary.spare_slot[j] = slot;
      }
    }
  };
  const int root_spare = tree.SpareCapacity(overlay::kRootId);
  if (root_spare > 0) {
    spare_total += root_spare;
    sample_spare(layer_summaries_[0], overlay::kRootId, -1);
  }
  for (NodeId top = tree.LastChild(overlay::kRootId); top != kNoNode;
       top = tree.PrevSibling(top)) {
    const int slot = Summary(tree, top);
    const BranchSummary& branch = branches_[static_cast<std::size_t>(slot)];
    if constexpr (util::kDcheckEnabled) AuditSummary(tree, branch);
    if (static_cast<std::size_t>(branch.max_layer) >= layer_summaries_.size())
      layer_summaries_.resize(static_cast<std::size_t>(branch.max_layer) + 1,
                              fresh);
    max_layer = std::max(max_layer, branch.max_layer);
    spare_total += branch.spare_total;
    for (const SpareMember& m : branch.spare)
      sample_spare(layer_summaries_[static_cast<std::size_t>(m.layer)], m.id,
                   slot);
    // A layer's list takes only keys below the joiner's.
    if (!(branch.min_key < fresh.weakest.threshold)) continue;
    for (int layer = 1; layer <= branch.max_layer; ++layer) {
      const Candidates& from = branch.weakest[static_cast<std::size_t>(layer)];
      Candidates& into =
          layer_summaries_[static_cast<std::size_t>(layer)].weakest;
      for (int i = 0; i < from.count && from.keys[i] < into.threshold; ++i)
        into.Offer(from.ids[i], from.keys[i]);
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
    int best_slot = -1;
    double best_delay = 0.0;
    for (int i = 0; i < above.spare_count; ++i) {
      const NodeId u = above.spare[i];
      if (tree.SpareCapacity(u) <= 0) continue;
      const double d = session.DelayMs(u, id);
      if (best == kNoNode || d < best_delay) {
        best = u;
        best_slot = above.spare_slot[i];
        best_delay = d;
      }
    }
    if (best != kNoNode) {
      tree.Attach(best, id);
      // Under the root, `id` heads a branch of its own, which the next
      // placement summarizes.
      if (best_slot >= 0)
        FoldAttached(tree, branches_[static_cast<std::size_t>(best_slot)],
                     best, id);
      return kNoNode;
    }
    if (r <= max_layer) {
      // Candidates weakest-first; take the weakest whose eviction keeps
      // placement headroom.
      const Candidates& weakest =
          layer_summaries_[static_cast<std::size_t>(r)].weakest;
      for (int i = 0; i < weakest.count; ++i) {
        if (!eviction_keeps_headroom(weakest.ids[i])) continue;
        Replace(session, weakest.ids[i], id);
        return weakest.ids[i];
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
