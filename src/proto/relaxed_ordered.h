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
#pragma once

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
  // the negated join time (older == earlier join). Read from the Member
  // record at use time, since a join time may be rewritten after placement.
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

  // Single-pass scan state, reused across placements to stay allocation
  // free on the hot path (one global scan per join at 14k members).
  static constexpr int kCandidatesPerLayer = 8;
  struct LayerSummary {
    // Outranked incumbents, weakest first, with their rank keys. A member
    // enters iff its key is below `threshold`: the joiner's key, or once the
    // list is full the key of its strongest (last) entry.
    overlay::NodeId weakest[kCandidatesPerLayer] = {};
    double weakest_key[kCandidatesPerLayer] = {};
    int weakest_count = 0;
    double threshold = 0.0;
    // Reservoir sample of spare-capacity members.
    overlay::NodeId spare[kCandidatesPerLayer] = {};
    int spare_count = 0;
    long spare_seen = 0;
  };
  std::vector<LayerSummary> layer_summaries_;
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
