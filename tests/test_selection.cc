// Unit tests for the shared parent-selection helpers and the relaxed
// protocols' internal guarantees (headroom guard, eviction-chain
// termination, layer scanning).
#include "proto/selection.h"

#include <gtest/gtest.h>

#include <memory>

#include "net/topology.h"
#include "overlay/session.h"
#include "proto/min_depth.h"
#include "proto/relaxed_ordered.h"
#include "sim/simulator.h"

namespace omcast::proto {
namespace {

using overlay::kNoNode;
using overlay::kRootId;
using overlay::NodeId;
using overlay::Session;
using overlay::SessionParams;
using overlay::Tree;

class SelectionTest : public ::testing::Test {
 protected:
  SelectionTest() {
    rnd::Rng topo_rng(1);
    topology_ = std::make_unique<net::Topology>(
        net::Topology::Generate(net::TinyTopologyParams(), topo_rng));
    session_ = std::make_unique<Session>(
        sim_, *topology_, std::make_unique<MinDepthProtocol>(),
        SessionParams{}, 3);
  }

  sim::Simulator sim_;
  std::unique_ptr<net::Topology> topology_;
  std::unique_ptr<Session> session_;
};

TEST_F(SelectionTest, PickMinDepthPrefersShallowerLayer) {
  Tree& tree = session_->tree();
  const NodeId a = session_->InjectMember(3.0, 1e9);
  const NodeId b = session_->InjectMember(3.0, 1e9);
  const NodeId j = session_->InjectMember(0.5, 1e9);
  sim_.RunUntil(1.0);
  for (NodeId id : {a, b, j})
    if (tree.Parent(id) != kNoNode) tree.Detach(id);
  tree.Attach(kRootId, a);
  tree.Attach(a, b);
  EXPECT_EQ(PickMinDepthParent(*session_, {b, a}, j), a);
}

TEST_F(SelectionTest, PickMinDepthSkipsFullParents) {
  Tree& tree = session_->tree();
  const NodeId a = session_->InjectMember(1.0, 1e9);  // capacity 1
  const NodeId b = session_->InjectMember(3.0, 1e9);
  const NodeId c = session_->InjectMember(0.5, 1e9);
  const NodeId j = session_->InjectMember(0.5, 1e9);
  sim_.RunUntil(1.0);
  for (NodeId id : {a, b, c, j})
    if (tree.Parent(id) != kNoNode) tree.Detach(id);
  tree.Attach(kRootId, a);
  tree.Attach(kRootId, b);
  tree.Attach(a, c);  // a is now full
  EXPECT_EQ(PickMinDepthParent(*session_, {a, b}, j), b);
  EXPECT_EQ(PickMinDepthParent(*session_, {a, c}, j), kNoNode);
}

TEST_F(SelectionTest, PickOldestIgnoresLayer) {
  Tree& tree = session_->tree();
  const NodeId shallow = session_->InjectMember(3.0, 1e9);
  const NodeId deep = session_->InjectMember(3.0, 1e9);
  const NodeId j = session_->InjectMember(0.5, 1e9);
  sim_.RunUntil(1.0);
  for (NodeId id : {shallow, deep, j})
    if (tree.Parent(id) != kNoNode) tree.Detach(id);
  tree.Attach(kRootId, shallow);
  tree.Attach(shallow, deep);
  tree.Get(deep).join_time = -500.0;  // deep is much older
  EXPECT_EQ(PickOldestParent(*session_, {shallow, deep}, j), deep);
}

// The headroom guard: an eviction that would remove the overlay's only
// spare capacity (a young supernode's) is deferred; the joiner lands in a
// spare slot instead.
TEST_F(SelectionTest, EvictionDeferredWhenItWouldDrainHeadroom) {
  sim::Simulator sim;
  SessionParams sp;
  sp.root_bandwidth = 1.0;  // root holds exactly one child
  Session s(sim, *topology_, std::make_unique<RelaxedTimeOrderedProtocol>(),
            sp, 9);
  Tree& tree = s.tree();
  // Young supernode holds the top slot and all the headroom.
  const NodeId super = s.InjectMember(10.0, 1e9);
  sim.RunUntil(1.0);
  ASSERT_EQ(tree.Parent(super), kRootId);
  // An old free-rider joins: it outranks the young supernode by age, but
  // evicting it would leave spare = 0 (the free-rider brings none).
  const NodeId elder = s.InjectMember(0.5, 1e9);
  sim.RunUntil(2.0);
  tree.Detach(elder);
  tree.Get(elder).join_time = -1e6;
  s.ForceRejoin(elder);
  sim.RunUntil(3.0);
  EXPECT_EQ(tree.Parent(super), kRootId);  // not evicted
  EXPECT_EQ(tree.Parent(elder), super);    // placed in a spare slot
  tree.CheckInvariants();
}

// Eviction chains terminate and leave a consistent tree even when every
// placement triggers another eviction (strictly decreasing ranks).
TEST_F(SelectionTest, EvictionChainsTerminate) {
  sim::Simulator sim;
  SessionParams sp;
  sp.root_bandwidth = 2.0;
  Session s(sim, *topology_, std::make_unique<RelaxedBandwidthOrderedProtocol>(),
            sp, 11);
  // A ladder of bandwidths joining weakest-first maximizes chain length.
  for (double bw : {1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.6, 3.0, 4.0})
    s.InjectMember(bw, 1e9);
  sim.RunUntil(20.0);
  int rooted = 0;
  for (NodeId id : s.alive_members())
    if (s.tree().IsRooted(id)) ++rooted;
  EXPECT_EQ(rooted, s.alive_count());
  s.tree().CheckInvariants();
  // Bandwidth ordering holds along every parent-child edge.
  for (NodeId id : s.alive_members()) {
    const NodeId parent = s.tree().Parent(id);
    if (parent == kNoNode || parent == kRootId) continue;
    EXPECT_GE(s.tree().Get(parent).bandwidth + 1e-9,
              s.tree().Get(id).bandwidth);
  }
}

}  // namespace
}  // namespace omcast::proto
