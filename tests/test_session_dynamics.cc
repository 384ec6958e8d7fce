// Tests for the session's churn-survival machinery: the join discovery
// pool, fragment dissolution, eviction disruption accounting, bounded
// pre-population ages, and ROST's pre-population switch fast-forward.
#include <gtest/gtest.h>

#include <memory>

#include "core/rost/rost.h"
#include "net/topology.h"
#include "overlay/session.h"
#include "proto/min_depth.h"
#include "sim/simulator.h"

namespace omcast::overlay {
namespace {

class SessionDynamicsTest : public ::testing::Test {
 protected:
  SessionDynamicsTest() {
    rnd::Rng topo_rng(1);
    topology_ = std::make_unique<net::Topology>(
        net::Topology::Generate(net::TinyTopologyParams(), topo_rng));
  }

  std::unique_ptr<Session> Make(SessionParams params = {},
                                std::uint64_t seed = 7) {
    return std::make_unique<Session>(sim_, *topology_,
                                     std::make_unique<proto::MinDepthProtocol>(),
                                     params, seed);
  }

  sim::Simulator sim_;
  std::unique_ptr<net::Topology> topology_;
};

TEST_F(SessionDynamicsTest, JoinPoolContainsBfsPrefixFromRoot) {
  auto s = Make();
  // Build a deep chain the random sample could easily miss.
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 1);
  NodeId prev = kRootId;
  std::vector<NodeId> chain;
  for (int i = 0; i < 10; ++i) {
    const NodeId id = tree.CreateMember(i + 1, 1.2, 0.0, 1e9);
    tree.Attach(prev, id);
    chain.push_back(id);
    prev = id;
  }
  const auto pool = s->CollectJoinPool(100, kNoNode);
  // Every chain member is reachable via the BFS prefix.
  for (NodeId id : chain)
    EXPECT_NE(std::find(pool.begin(), pool.end(), id), pool.end());
  EXPECT_EQ(pool.front(), kRootId);
}

TEST_F(SessionDynamicsTest, JoinPoolHasNoDuplicates) {
  auto s = Make();
  s->Prepopulate(60);
  sim_.RunUntil(1.0);
  const auto pool = s->CollectJoinPool(100, kNoNode);
  std::set<NodeId> distinct(pool.begin(), pool.end());
  EXPECT_EQ(distinct.size(), pool.size());
}

TEST_F(SessionDynamicsTest, PrepopulateRespectsAgeHorizon) {
  // The session's six-hour broadcast history: no member predates it.
  constexpr double kAgeHorizonS = 21600.0;
  auto s = Make();
  s->Prepopulate(80);
  for (NodeId id : s->alive_members()) {
    const Member& m = s->tree().Get(id);
    EXPECT_LE(m.Age(0.0), kAgeHorizonS + 1e-9);
    EXPECT_GT(m.Age(0.0), 0.0);
    // Residual lifetime is positive (departures lie in the future).
    EXPECT_GT(m.join_time + m.lifetime, 0.0);
  }
}

TEST_F(SessionDynamicsTest, PrepopulateBootstrapsEvenWithWeakRoot) {
  // A 2-slot root forces the capacity-injection path: the replay must still
  // attach everyone at t=0 (strongest waiting members get pulled forward).
  SessionParams params;
  params.root_bandwidth = 2.0;
  auto s = Make(params, /*seed=*/5);
  s->Prepopulate(70);
  sim_.RunUntil(30.0);
  int rooted = 0;
  for (NodeId id : s->alive_members())
    if (s->tree().IsRooted(id)) ++rooted;
  EXPECT_GE(rooted, s->alive_count() * 9 / 10);
  s->tree().CheckInvariants();
}

TEST_F(SessionDynamicsTest, StuckFragmentDissolves) {
  auto s = Make();
  Tree& tree = s->tree();
  // A fragment root that can never re-attach (zero capacity anywhere).
  tree.SetCapacity(kRootId, 1);
  const NodeId blocker = s->InjectMember(1.0, 1e9);
  const NodeId kid1 = s->InjectMember(0.5, 1e9);
  sim_.RunUntil(1.0);
  ASSERT_EQ(tree.Parent(blocker), kRootId);
  ASSERT_EQ(tree.Parent(kid1), blocker);
  tree.Detach(blocker);  // fragment {blocker, kid1}, root slot now free...
  tree.SetCapacity(kRootId, 0);  // ...and gone again
  s->ForceRejoin(blocker);
  // After kFragmentDissolveAfterAttempts failures, kid1 is released and
  // retries on its own.
  sim_.RunUntil(40.0);
  EXPECT_EQ(tree.Children(blocker).size(), 0u);
  EXPECT_EQ(tree.Parent(kid1), kNoNode);  // both waiting, independently
  // Capacity reappears: both re-attach.
  tree.SetCapacity(kRootId, 2);
  sim_.RunUntil(80.0);
  EXPECT_TRUE(tree.IsRooted(blocker));
  EXPECT_TRUE(tree.IsRooted(kid1));
}

TEST_F(SessionDynamicsTest, ChargeDisruptionHitsSubtree) {
  auto s = Make();
  Tree& tree = s->tree();
  const NodeId a = s->InjectMember(2.0, 1e9);
  const NodeId b = s->InjectMember(0.5, 1e9);
  sim_.RunUntil(1.0);
  if (tree.Parent(b) != a) {
    tree.Detach(b);
    tree.Attach(a, b);
  }
  int hook_calls = 0;
  s->hooks().AddOnDisruption([&](NodeId, NodeId) { ++hook_calls; });
  s->ChargeDisruption(a);
  EXPECT_EQ(tree.Get(a).disruptions, 1);
  EXPECT_EQ(tree.Get(b).disruptions, 1);
  EXPECT_EQ(hook_calls, 2);
}

TEST_F(SessionDynamicsTest, RostPrepopulationFastForwardsSwitches) {
  // Freshly pre-populated ROST trees should already be BTP-ordered along
  // parent-child edges (up to capacity feasibility), i.e. the fast-forward
  // replayed the member's historical switching.
  sim::Simulator sim;
  core::RostParams params;
  auto protocol = std::make_unique<core::RostProtocol>(params);
  core::RostProtocol* rost = protocol.get();
  SessionParams sp;
  sp.root_bandwidth = 5.0;  // force depth so parent-child pairs exist
  Session session(sim, *topology_, std::move(protocol), sp, 11);
  session.Prepopulate(80);
  // Without running any warmup, no timer-driven switch has fired yet; any
  // ordering must come from OnPrepopulated.
  int violations = 0;
  int checked = 0;
  for (NodeId id : session.alive_members()) {
    const Member& m = session.tree().Get(id);
    const NodeId parent = session.tree().Parent(id);
    if (parent == kNoNode || parent == kRootId) continue;
    ++checked;
    const Member& p = session.tree().Get(parent);
    const bool would_switch =
        m.Btp(0.0) > p.Btp(0.0) && m.bandwidth >= p.bandwidth;
    if (would_switch && rost != nullptr) ++violations;
  }
  ASSERT_GT(checked, 10);
  // Residual violations can remain (lock-free replay still requires
  // structural feasibility), but the overwhelming majority must be settled.
  EXPECT_LT(violations, checked / 5);
}

TEST_F(SessionDynamicsTest, RejoinDelayKeepsOrphanDetached) {
  SessionParams params;
  params.rejoin_delay_s = 15.0;
  auto s = Make(params);
  Tree& tree = s->tree();
  const NodeId hub = s->InjectMember(5.0, 1e9);
  const NodeId child = s->InjectMember(0.5, 1e9);
  sim_.RunUntil(1.0);
  if (tree.Parent(child) != hub) {
    tree.Detach(child);
    tree.Attach(hub, child);
  }
  s->DepartNow(hub);
  // The orphan is physically detached for the detection + rejoin window.
  sim_.RunUntil(10.0);
  EXPECT_EQ(tree.Parent(child), kNoNode);
  sim_.RunUntil(14.0);
  EXPECT_EQ(tree.Parent(child), kNoNode);
  sim_.RunUntil(20.0);
  EXPECT_TRUE(tree.IsRooted(child));
}

TEST_F(SessionDynamicsTest, RejoinDelaySkipsMembersThatDieMeanwhile) {
  SessionParams params;
  params.rejoin_delay_s = 15.0;
  auto s = Make(params);
  Tree& tree = s->tree();
  const NodeId hub = s->InjectMember(5.0, 1e9);
  const NodeId child = s->InjectMember(0.5, 10.0);  // dies during the window
  sim_.RunUntil(1.0);
  if (tree.Parent(child) != hub) {
    tree.Detach(child);
    tree.Attach(hub, child);
  }
  s->DepartNow(hub);
  sim_.RunUntil(30.0);  // child died at ~11, before its rejoin at ~16
  EXPECT_FALSE(tree.Alive(child));
  tree.CheckInvariants();
}

}  // namespace
}  // namespace omcast::overlay
