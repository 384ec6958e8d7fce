#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "exp/scenario.h"
#include "net/topology.h"
#include "overlay/session.h"
#include "proto/longest_first.h"
#include "proto/min_depth.h"
#include "proto/relaxed_ordered.h"
#include "proto/selection.h"
#include "sim/simulator.h"
#include "util/hash.h"

namespace omcast {
namespace {

using overlay::kNoNode;
using overlay::kRootId;
using overlay::NodeId;
using overlay::Session;
using overlay::SessionParams;
using overlay::Tree;

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest() {
    rnd::Rng topo_rng(1);
    topology_ = std::make_unique<net::Topology>(
        net::Topology::Generate(net::TinyTopologyParams(), topo_rng));
  }

  std::unique_ptr<Session> Make(std::unique_ptr<overlay::Protocol> p,
                                std::uint64_t seed = 3) {
    return std::make_unique<Session>(sim_, *topology_, std::move(p),
                                     SessionParams{}, seed);
  }

  sim::Simulator sim_;
  std::unique_ptr<net::Topology> topology_;
};

TEST_F(ProtocolTest, MinDepthPrefersHighestLayer) {
  auto s = Make(std::make_unique<proto::MinDepthProtocol>());
  // Fill the tree: first member lands under the root.
  const NodeId a = s->InjectMember(3.0, 1e9);
  sim_.RunUntil(1.0);
  EXPECT_EQ(s->tree().Parent(a), kRootId);
  // Root has 100 slots; the next hundred join at layer 1 before anyone
  // lands at layer 2.
  for (int i = 0; i < 50; ++i) s->InjectMember(0.5, 1e9);
  sim_.RunUntil(2.0);
  for (NodeId id : s->alive_members())
    EXPECT_EQ(s->tree().Layer(id), 1);
}

TEST_F(ProtocolTest, MinDepthBreaksTiesByDelay) {
  auto s = Make(std::make_unique<proto::MinDepthProtocol>());
  const NodeId a = s->InjectMember(2.0, 1e9);
  const NodeId b = s->InjectMember(2.0, 1e9);
  sim_.RunUntil(1.0);
  // Saturate the root so the next join must go to layer 2.
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 2);
  const NodeId c = s->InjectMember(0.5, 1e9);
  sim_.RunUntil(2.0);
  const NodeId parent = tree.Parent(c);
  ASSERT_TRUE(parent == a || parent == b);
  const NodeId other = parent == a ? b : a;
  EXPECT_LE(s->DelayMs(c, parent), s->DelayMs(c, other));
}

TEST_F(ProtocolTest, LongestFirstPicksOldest) {
  auto s = Make(std::make_unique<proto::LongestFirstProtocol>());
  // The root is the oldest member, so early members chain under it first;
  // saturate the root to force a real choice.
  s->tree().SetCapacity(kRootId, 1);
  const NodeId a = s->InjectMember(5.0, 1e9);  // oldest non-root
  sim_.RunUntil(10.0);
  const NodeId b = s->InjectMember(5.0, 1e9);
  sim_.RunUntil(20.0);
  const NodeId c = s->InjectMember(0.5, 1e9);
  sim_.RunUntil(21.0);
  EXPECT_EQ(s->tree().Parent(a), kRootId);
  EXPECT_EQ(s->tree().Parent(b), a);  // a older than b
  EXPECT_EQ(s->tree().Parent(c), a);  // a oldest with spare capacity
}

TEST_F(ProtocolTest, RelaxedBoEvictsWeakerNode) {
  auto s = Make(std::make_unique<proto::RelaxedBandwidthOrderedProtocol>());
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 1);  // force depth
  const NodeId weak = s->InjectMember(1.0, 1e9);
  sim_.RunUntil(1.0);
  ASSERT_EQ(tree.Parent(weak), kRootId);
  const NodeId strong = s->InjectMember(4.0, 1e9);
  sim_.RunUntil(2.0);
  // The strong newcomer replaces the weak layer-1 incumbent.
  EXPECT_EQ(tree.Parent(strong), kRootId);
  EXPECT_EQ(tree.Layer(strong), 1);
  // The evicted node rejoined below and was charged a reconnection.
  EXPECT_TRUE(tree.IsRooted(weak));
  EXPECT_EQ(tree.Layer(weak), 2);
  EXPECT_EQ(tree.Get(weak).reconnections, 1);
  tree.CheckInvariants();
}

TEST_F(ProtocolTest, RelaxedBoReplacementAdoptsChildren) {
  auto s = Make(std::make_unique<proto::RelaxedBandwidthOrderedProtocol>());
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 1);
  // weak keeps one spare slot so the overlay retains placement headroom
  // (the administrator defers evictions when no slot exists anywhere).
  const NodeId weak = s->InjectMember(3.0, 1e9);
  sim_.RunUntil(1.0);
  const NodeId child1 = s->InjectMember(0.5, 1e9);
  const NodeId child2 = s->InjectMember(0.5, 1e9);
  sim_.RunUntil(2.0);
  ASSERT_EQ(tree.Parent(child1), weak);
  ASSERT_EQ(tree.Parent(child2), weak);
  const NodeId strong = s->InjectMember(10.0, 1e9);
  sim_.RunUntil(3.0);
  // Children moved under the replacement (bandwidth-ordered guarantees
  // capacity) and were charged reconnections. The evicted node's own rejoin
  // may cascade (it outranks its former free-rider children), so only the
  // lower bound on reconnections is fixed.
  EXPECT_GE(tree.Get(child1).reconnections + tree.Get(child2).reconnections, 2);
  EXPECT_GE(tree.Get(weak).reconnections, 1);
  EXPECT_EQ(tree.Layer(strong), 1);
  EXPECT_TRUE(tree.IsRooted(weak));
  EXPECT_TRUE(tree.IsRooted(child1));
  EXPECT_TRUE(tree.IsRooted(child2));
  // Bandwidth ordering holds along every parent-child edge that changed.
  for (NodeId id : {weak, child1, child2})
    EXPECT_GE(tree.Get(tree.Parent(id)).bandwidth, tree.Get(id).bandwidth);
  tree.CheckInvariants();
}

TEST_F(ProtocolTest, RelaxedToFreshJoinEvictsNobody) {
  auto s = Make(std::make_unique<proto::RelaxedTimeOrderedProtocol>());
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 1);
  const NodeId elder = s->InjectMember(3.0, 1e9);
  sim_.RunUntil(100.0);
  const NodeId young = s->InjectMember(3.0, 1e9);
  sim_.RunUntil(101.0);
  // Fresh member (age 0) cannot outrank anyone: it stacks below.
  EXPECT_EQ(tree.Parent(elder), kRootId);
  EXPECT_EQ(tree.Parent(young), elder);
  EXPECT_EQ(tree.Get(elder).reconnections, 0);
}

TEST_F(ProtocolTest, RelaxedToRejoinerEvictsYounger) {
  auto s = Make(std::make_unique<proto::RelaxedTimeOrderedProtocol>());
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 1);
  const NodeId elder = s->InjectMember(3.0, 1e9);
  sim_.RunUntil(50.0);
  const NodeId young = s->InjectMember(3.0, 1e9);
  sim_.RunUntil(60.0);
  ASSERT_EQ(tree.Parent(young), elder);
  // Make the elder's position collapse: detach and force a rejoin. The
  // elder (age 60) outranks the younger (age 10)... but the younger is at
  // layer 2 while layer 1 is now free, so check eviction from a crowded
  // layer instead: detach elder and let it rejoin.
  tree.Detach(elder);
  // `young` is orphaned inside elder's fragment? No: young is elder's child,
  // so it floats with the fragment. Move it out first to keep this test
  // focused on eviction.
  tree.Detach(young);
  tree.Attach(kRootId, young);
  s->ForceRejoin(elder);
  sim_.RunUntil(61.0);
  // The elder outranks the younger layer-1 incumbent and takes its place.
  EXPECT_EQ(tree.Parent(elder), kRootId);
  EXPECT_EQ(tree.Layer(elder), 1);
  EXPECT_TRUE(tree.IsRooted(young));
  EXPECT_GE(tree.Get(young).reconnections, 1);
  tree.CheckInvariants();
}

TEST_F(ProtocolTest, RelaxedToOverflowChildrenAreReparented) {
  auto s = Make(std::make_unique<proto::RelaxedTimeOrderedProtocol>());
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 2);
  // Hand-assemble: root <- {incumbent, elder}; incumbent <- {k1, k2, k3}.
  const NodeId incumbent = s->InjectMember(3.0, 1e9);
  const NodeId elder = s->InjectMember(1.0, 1e9);
  const NodeId k1 = s->InjectMember(1.0, 1e9);
  const NodeId k2 = s->InjectMember(1.0, 1e9);
  const NodeId k3 = s->InjectMember(1.0, 1e9);
  sim_.RunUntil(1.0);
  for (NodeId id : {incumbent, elder, k1, k2, k3})
    if (tree.Parent(id) != kNoNode) tree.Detach(id);
  tree.Attach(kRootId, incumbent);
  tree.Attach(kRootId, elder);
  for (NodeId k : {k1, k2, k3}) tree.Attach(incumbent, k);
  // Ages: elder oldest, then k1 > k2 > k3 > incumbent.
  tree.Get(elder).join_time = -100.0;
  tree.Get(k1).join_time = -50.0;
  tree.Get(k2).join_time = -40.0;
  tree.Get(k3).join_time = -30.0;
  tree.Get(incumbent).join_time = 1.0;
  // Shrink the root and make the elder rejoin: it evicts the younger
  // incumbent but can only adopt one (the oldest) of its three children.
  tree.Detach(elder);
  tree.SetCapacity(kRootId, 1);
  s->ForceRejoin(elder);
  sim_.RunUntil(2.0);
  EXPECT_EQ(tree.Parent(elder), kRootId);
  ASSERT_EQ(tree.Children(elder).size(), 1u);
  EXPECT_EQ(tree.Children(elder).front(), k1);  // oldest child adopted
  // The overflow children were re-parented by the administrator (graceful:
  // reconnection but no disruption); the evicted incumbent rejoined alone
  // and took the one streaming disruption of the eviction.
  EXPECT_TRUE(tree.IsRooted(incumbent));
  EXPECT_TRUE(tree.IsRooted(k2));
  EXPECT_TRUE(tree.IsRooted(k3));
  EXPECT_GE(tree.Get(k2).reconnections, 1);
  EXPECT_GE(tree.Get(k3).reconnections, 1);
  EXPECT_EQ(tree.Get(k2).disruptions, 0);
  // The incumbent is disrupted by its eviction (possibly more than once:
  // the re-parented kids are older and may displace it again as they
  // cascade through the placement machinery).
  EXPECT_GE(tree.Get(incumbent).disruptions, 1);
  EXPECT_GE(tree.Get(incumbent).reconnections, 1);
  tree.CheckInvariants();
}

TEST_F(ProtocolTest, MinDepthAndLongestFirstImposeNoOverhead) {
  for (auto alg : {exp::Algorithm::kMinDepth, exp::Algorithm::kLongestFirst}) {
    sim::Simulator sim;
    Session s(sim, *topology_, exp::MakeProtocol(alg, core::RostParams{}),
              SessionParams{}, 9);
    s.Prepopulate(60);
    s.StartArrivals(60.0 / rnd::kMeanLifetimeSeconds);
    sim.RunUntil(2000.0);
    for (NodeId id : s.alive_members())
      EXPECT_EQ(s.tree().Get(id).reconnections, 0) << exp::AlgorithmLabel(alg);
  }
}

// Property sweep: every protocol keeps the tree structurally sound under
// heavy churn, across seeds.
class ProtocolChurnTest
    : public ::testing::TestWithParam<std::tuple<exp::Algorithm, int>> {};

TEST_P(ProtocolChurnTest, InvariantsHoldUnderChurn) {
  const auto [alg, seed] = GetParam();
  rnd::Rng topo_rng(11);
  const net::Topology topology =
      net::Topology::Generate(net::TinyTopologyParams(), topo_rng);
  sim::Simulator sim;
  Session s(sim, topology, exp::MakeProtocol(alg, core::RostParams{}),
            SessionParams{}, static_cast<std::uint64_t>(seed));
  s.Prepopulate(60);
  s.StartArrivals(60.0 / rnd::kMeanLifetimeSeconds);
  for (int step = 1; step <= 8; ++step) {
    sim.RunUntil(step * 250.0);
    s.tree().CheckInvariants();
  }
  // Population stays near the target (Little's law).
  EXPECT_GT(s.alive_count(), 20);
  EXPECT_LT(s.alive_count(), 130);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAndSeeds, ProtocolChurnTest,
    ::testing::Combine(::testing::Values(exp::Algorithm::kMinDepth,
                                         exp::Algorithm::kLongestFirst,
                                         exp::Algorithm::kRelaxedBo,
                                         exp::Algorithm::kRelaxedTo,
                                         exp::Algorithm::kRost),
                       ::testing::Values(1, 2, 3)),
    [](const auto& param_info) {
      std::string name = exp::AlgorithmLabel(std::get<0>(param_info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name + "_s" + std::to_string(std::get<1>(param_info.param));
    });

// Golden replay of the relaxed baselines. Placement is where they draw from
// the session RNG (a reservoir sample of spare-capacity members per layer)
// and pick eviction candidates (the weakest few per layer, ties broken by
// thread order), so each overlay below is digested member by member --
// parent, layer, reconnections and disruptions in id order -- together with
// the session RNG's next output. A change that moves a draw, a candidate or
// a tie-break moves a digest. The goldens were recorded from the scan of
// the whole rooted tree that the per-branch summaries replaced.
class RelaxedReplay : public ::testing::TestWithParam<exp::Algorithm> {
 protected:
  static const net::Topology& PaperTopology() {
    static const net::Topology topology = [] {
      rnd::Rng topo_rng(1);
      return net::Topology::Generate(net::PaperTopologyParams(), topo_rng);
    }();
    return topology;
  }

  std::unique_ptr<Session> Make(sim::Simulator& sim, SessionParams params,
                                std::uint64_t seed) const {
    return std::make_unique<Session>(
        sim, PaperTopology(), exp::MakeProtocol(GetParam(), core::RostParams{}),
        params, seed);
  }

  static std::uint64_t Digest(Session& s) {
    const Tree& tree = s.tree();
    util::RollingHash h;
    for (NodeId id = 0; id < static_cast<NodeId>(tree.size()); ++id) {
      h.MixI64(tree.Parent(id));
      h.MixI64(tree.Layer(id));
      h.MixI64(tree.Get(id).reconnections);
      h.MixI64(tree.Get(id).disruptions);
    }
    h.MixU64(s.rng().UniformIndex(std::numeric_limits<std::size_t>::max()));
    return h.digest();
  }

  static long Reconnections(const Session& s) {
    long total = 0;
    for (NodeId id = 0; id < static_cast<NodeId>(s.tree().size()); ++id)
      total += s.tree().Get(id).reconnections;
    return total;
  }

  // The golden digest for the running order: {relaxed-BO, relaxed-TO}.
  std::uint64_t Golden(std::uint64_t bo, std::uint64_t to) const {
    return GetParam() == exp::Algorithm::kRelaxedBo ? bo : to;
  }
};

TEST_P(RelaxedReplay, PlacementsMatchGoldenDigest) {
  {
    // The paper's setting: 2,000 prepopulated members, then 300 s of churn.
    sim::Simulator sim;
    auto s = Make(sim, SessionParams{}, 31);
    s->Prepopulate(2000);
    s->StartArrivals(exp::ArrivalRate(2000));
    sim.RunUntil(300.0);
    s->tree().CheckInvariants();
    EXPECT_GT(Reconnections(*s), 0);
    const std::uint64_t d = Digest(*s);
    EXPECT_EQ(d, Golden(0x12edcb931d17127aULL, 0x1b61da3a4b1428a0ULL))
        << "paper overlay 0x" << std::hex << d;
  }
  {
    // A root that feeds two children: one or two branches hold the whole
    // tree, and eviction chains run long.
    sim::Simulator sim;
    SessionParams params;
    params.root_bandwidth = 2.0;
    auto s = Make(sim, params, 32);
    s->Prepopulate(1000);
    s->StartArrivals(exp::ArrivalRate(1000));
    sim.RunUntil(300.0);
    s->tree().CheckInvariants();
    EXPECT_LE(s->tree().ChildCount(kRootId), 2);
    EXPECT_GT(Reconnections(*s), 50);
    const std::uint64_t d = Digest(*s);
    EXPECT_EQ(d, Golden(0x8205d36a97d62386ULL, 0x9f0bb7947ccd2ae1ULL))
        << "narrow root 0x" << std::hex << d;
  }
  {
    // Ties everywhere: four bandwidths, and members injected in batches
    // that share a join time, so rank keys tie under both orders.
    sim::Simulator sim;
    auto s = Make(sim, SessionParams{}, 33);
    rnd::Rng pick(34);
    constexpr double kBandwidths[] = {0.5, 1.0, 2.0, 4.0};
    for (int batch = 0; batch < 20; ++batch) {
      sim.RunUntil(15.0 * batch);
      for (int i = 0; i < 60; ++i)
        s->InjectMember(kBandwidths[pick.UniformIndex(4)],
                        1.0 + pick.ExponentialMean(250.0));
    }
    sim.RunUntil(400.0);
    s->tree().CheckInvariants();
    EXPECT_GT(Reconnections(*s), 0);
    const std::uint64_t d = Digest(*s);
    EXPECT_EQ(d, Golden(0x4d5d952b42dedf9fULL, 0x53ebfaa576685603ULL))
        << "tied keys 0x" << std::hex << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, RelaxedReplay,
                         ::testing::Values(exp::Algorithm::kRelaxedBo,
                                           exp::Algorithm::kRelaxedTo),
                         [](const auto& param_info) {
                           return param_info.param == exp::Algorithm::kRelaxedBo
                                      ? std::string("BO")
                                      : std::string("TO");
                         });

}  // namespace
}  // namespace omcast
