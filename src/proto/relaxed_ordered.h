// Relaxed bandwidth-ordered (BO) and time-ordered (TO) algorithms
// (paper Section 5, algorithms (3) and (4)).
//
// Both assume a central administrator with global topology knowledge. On
// every join/rejoin the new member scans the tree from the high layers to
// the low ones; if it outranks an incumbent (higher bandwidth for BO, higher
// age for TO) it *replaces* that node: the incumbent is evicted and forced
// to rejoin, and the replacement adopts the incumbent's children up to its
// capacity (overflow children stay with the evicted node and rejoin with
// it -- "possibly together with some of its children"). If no incumbent can
// be replaced at a layer, a spare-capacity slot at the layer above is used.
// This yields ordering between parents and children but not across a layer,
// which is exactly the paper's "relaxed" weakening of the strict BO/TO
// trees whose recursive reshuffles would be prohibitively expensive.
//
// Evictions and adoptions are charged to the protocol-overhead metric
// (reconnections); failure rejoins are not.
//
// The administrator's view is kept per branch (a child of the root and its
// subtree): a placement merges the root with one cached summary per branch,
// rebuilds a summary only when overlay::Tree has re-stamped its branch, and
// folds its own closing attach into the summary of the branch it joined.
// The merge visits the spare-capacity members in thread order, so it makes
// the same RNG draws, and finds the same candidates, as a scan of the
// whole rooted tree.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "overlay/session.h"

namespace omcast::proto {

class RelaxedOrderedProtocol : public overlay::Protocol {
 public:
  bool TryAttach(overlay::Session& session, overlay::NodeId id) override;

 protected:
  // What ranks a member: its bandwidth (BO) or its age (TO).
  enum class Order { kBandwidth, kAge };
  explicit RelaxedOrderedProtocol(Order order) : order_(order) {}

 private:
  // A member ranks higher than another iff its key is larger: bandwidth, or
  // the negated join time (older == earlier join). A rooted member's rank
  // key does not change (nothing writes a member's bandwidth or join time
  // after Tree::CreateMember): the branch summaries below cache keys on
  // that rule, and the deep-tier audit in PlaceOne checks it.
  double RankKey(const overlay::Member& m) const {
    return order_ == Order::kBandwidth ? m.bandwidth : -m.join_time;
  }
  // Sorts `ids` strongest (largest key) first: the order in which the
  // replacement adopts an evicted node's children.
  void SortStrongestFirst(const overlay::Tree& tree,
                          std::vector<overlay::NodeId>& ids) const;

  // Places `id` once: returns the evicted member (to be re-placed by the
  // caller), kNoNode if a spare slot was used, or the not-placed sentinel.
  overlay::NodeId PlaceOne(overlay::Session& session, overlay::NodeId id);
  void Replace(overlay::Session& session, overlay::NodeId incumbent,
               overlay::NodeId joining);

  static constexpr int kCandidatesPerLayer = 8;
  // The weakest members offered so far, weakest first, with their rank
  // keys. A member enters iff its key is below `threshold`: the cap it
  // starts with, or once the list is full the key of its strongest (last)
  // entry. Equal keys keep their offer order.
  struct Candidates {
    overlay::NodeId ids[kCandidatesPerLayer] = {};
    double keys[kCandidatesPerLayer] = {};
    int count = 0;
    double threshold = std::numeric_limits<double>::infinity();
    void Offer(overlay::NodeId v, double key);
    bool operator==(const Candidates&) const = default;
  };
  // What PlaceOne knows of one layer of the rooted tree: the outranked
  // incumbents (threshold starts at the joiner's key) and a reservoir
  // sample of spare-capacity members, each with the cache slot of its
  // branch (-1 for the root).
  struct LayerSummary {
    Candidates weakest;
    overlay::NodeId spare[kCandidatesPerLayer] = {};
    int spare_slot[kCandidatesPerLayer] = {};
    int spare_count = 0;
    long spare_seen = 0;
  };
  // A spare-capacity member and its layer.
  struct SpareMember {
    overlay::NodeId id = overlay::kNoNode;
    int layer = 0;
    bool operator==(const SpareMember&) const = default;
  };
  // One branch (a child of the root and its subtree), as of `stamp`: its
  // spare-capacity members in thread order, its smallest rank key, and per
  // layer its weakest members by (rank key, thread order), taken without
  // regard to a joiner.
  struct BranchSummary {
    overlay::NodeId top = overlay::kNoNode;
    std::uint64_t stamp = 0;
    long spare_total = 0;
    int max_layer = 0;
    double min_key = std::numeric_limits<double>::infinity();
    std::vector<SpareMember> spare;
    std::vector<Candidates> weakest;  // by layer; layer 0 stays empty
    bool operator==(const BranchSummary&) const = default;
  };
  // The cache slot holding the summary of the branch `top` heads, rebuilt
  // first if the tree has re-stamped the branch since.
  int Summary(const overlay::Tree& tree, overlay::NodeId top);
  // Adds `v` to `branch`'s totals and to its layer's weakest list, and to
  // `spare` if it has spare capacity.
  void AddMember(const overlay::Tree& tree, BranchSummary& branch,
                 std::vector<SpareMember>& spare, overlay::NodeId v) const;
  // Walks the branch's block of the thread into `out`.
  void Summarize(const overlay::Tree& tree, overlay::NodeId top,
                 BranchSummary& out) const;
  // Brings `branch` up to date after PlaceOne attached `fragment` under
  // `parent` inside it, walking the fragment instead of the branch.
  void FoldAttached(const overlay::Tree& tree, BranchSummary& branch,
                    overlay::NodeId parent, overlay::NodeId fragment);
  // Deep tier: aborts unless `cached` equals a summary built from scratch.
  void AuditSummary(const overlay::Tree& tree,
                    const BranchSummary& cached) const;

  // Scratch and cache reused across placements, so the hot path allocates
  // nothing once warm. The cache holds one slot per child of the root;
  // `slot_of_` maps a child to its slot, and a slot whose child has left
  // the root goes to the next new child.
  std::vector<LayerSummary> layer_summaries_;
  std::vector<BranchSummary> branches_;
  std::vector<int> slot_of_;
  std::vector<SpareMember> folded_;
  const Order order_;
};

class RelaxedBandwidthOrderedProtocol final : public RelaxedOrderedProtocol {
 public:
  RelaxedBandwidthOrderedProtocol()
      : RelaxedOrderedProtocol(Order::kBandwidth) {}
  std::string name() const override { return "relaxed-bw-ordered"; }
};

class RelaxedTimeOrderedProtocol final : public RelaxedOrderedProtocol {
 public:
  RelaxedTimeOrderedProtocol() : RelaxedOrderedProtocol(Order::kAge) {}
  std::string name() const override { return "relaxed-time-ordered"; }
};

}  // namespace omcast::proto
