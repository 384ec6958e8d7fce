// Overlay member (tree node) model.
//
// Every member is an end host (a stub node of the underlying topology) with
// an outbound-bandwidth constraint. Bandwidth is expressed in units of the
// stream rate, so a member with bandwidth b can feed floor(b) children
// (its out-degree constraint); b < 1 is a free-rider. The multicast source
// is member 0 and never departs.
//
// The Member record holds the COLD per-node state: identity, bandwidth and
// BTP inputs, lifetime and the paper's per-member counters. The hot state
// the protocols touch on every event -- tree links (parent / child list),
// layer, liveness and out-degree capacity -- lives in flat
// arrays inside overlay::Tree (SoA, indexed by the dense NodeId), where a
// churn scan walks contiguous memory instead of striding over ~100-byte
// records; access it through Tree::Parent/Layer/Alive/InTree/Capacity/
// SpareCapacity/ChildrenOf and mutate it through Tree operations.
#pragma once

#include "net/topology.h"
#include "sim/simulator.h"

namespace omcast::overlay {

using NodeId = int;
inline constexpr NodeId kNoNode = -1;
inline constexpr NodeId kRootId = 0;

struct Member {
  NodeId id = kNoNode;
  net::HostId host = 0;

  // Actual outbound bandwidth (units of stream rate). The derived out-degree
  // constraint floor(bandwidth) is hot state: Tree::Capacity().
  double bandwidth = 0.0;

  // What the member *claims*; differs from the actuals only for cheaters
  // (Section 3.4). Honest members report truthfully.
  double reported_bandwidth = 0.0;
  double reported_age_bonus = 0.0;  // seconds added to the claimed age

  sim::Time join_time = 0.0;  // may be negative for equilibrium pre-population
  sim::Time lifetime = 0.0;   // departs at join_time + lifetime

  // --- Metrics ------------------------------------------------------------
  // Streaming disruptions experienced (one per failed ancestor, Section 6).
  int disruptions = 0;
  // Parent changes imposed by the optimization mechanism (evictions, ROST
  // switches) -- the paper's protocol-overhead metric. Failure rejoins are
  // *not* counted here.
  int reconnections = 0;

  sim::Time Age(sim::Time now) const { return now - join_time; }
  // Bandwidth-time product (Section 3.2) from the actual values.
  double Btp(sim::Time now) const { return bandwidth * Age(now); }
  // BTP as the member would *claim* it (cheaters inflate this).
  double ClaimedBtp(sim::Time now) const {
    return reported_bandwidth * (Age(now) + reported_age_bonus);
  }
  bool IsRoot() const { return id == kRootId; }
};

}  // namespace omcast::overlay
