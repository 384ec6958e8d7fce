#include "net/topology.h"

#include <gtest/gtest.h>

#include <cmath>

#include "rand/rng.h"

namespace omcast::net {
namespace {

TEST(Topology, PaperInstanceHas15600Nodes) {
  const TopologyParams p = PaperTopologyParams();
  EXPECT_EQ(p.transit_domains * p.transit_nodes_per_domain, 240);
  EXPECT_EQ(240 * p.stub_domains_per_transit_node * p.nodes_per_stub_domain,
            15360);
}

TEST(Topology, GeneratesRequestedSizes) {
  rnd::Rng rng(1);
  const Topology t = Topology::Generate(TinyTopologyParams(), rng);
  EXPECT_EQ(t.num_transit_nodes(), 6);
  EXPECT_EQ(t.num_stub_domains(), 12);
  EXPECT_EQ(t.num_stub_nodes(), 96);
  EXPECT_EQ(t.FlatNodeCount(), 102);
}

TEST(Topology, DelayIsSymmetricAndZeroOnSelf) {
  rnd::Rng rng(2);
  const Topology t = Topology::Generate(TinyTopologyParams(), rng);
  rnd::Rng pick(3);
  for (int i = 0; i < 200; ++i) {
    const HostId a = static_cast<HostId>(pick.UniformIndex(
        static_cast<std::size_t>(t.num_stub_nodes())));
    const HostId b = static_cast<HostId>(pick.UniformIndex(
        static_cast<std::size_t>(t.num_stub_nodes())));
    EXPECT_DOUBLE_EQ(t.Delay(a, b), t.Delay(b, a));
    EXPECT_GT(t.Delay(a, b) + (a == b ? 1.0 : 0.0), 0.0);
  }
  EXPECT_DOUBLE_EQ(t.Delay(0, 0), 0.0);
}

TEST(Topology, IntraDomainDelaysUseStubRange) {
  rnd::Rng rng(4);
  const TopologyParams p = TinyTopologyParams();
  const Topology t = Topology::Generate(p, rng);
  // Hosts 0..7 share stub domain 0; their shortest path uses only stub-stub
  // links of [2,4] ms each, over at most n-1 hops.
  for (HostId a = 0; a < 8; ++a)
    for (HostId b = a + 1; b < 8; ++b) {
      const double d = t.Delay(a, b);
      EXPECT_GE(d, kStubStubDelayLoMs);
      EXPECT_LE(d, kStubStubDelayHiMs * (p.nodes_per_stub_domain - 1));
      EXPECT_EQ(t.DomainOf(a), t.DomainOf(b));
    }
}

TEST(Topology, CrossDomainDelayIncludesGatewayAndCore) {
  rnd::Rng rng(5);
  const TopologyParams p = TinyTopologyParams();
  const Topology t = Topology::Generate(p, rng);
  // Hosts in different stub domains traverse two gateway links at minimum.
  const HostId a = 0;
  const HostId b = t.num_stub_nodes() - 1;
  ASSERT_NE(t.DomainOf(a), t.DomainOf(b));
  EXPECT_GE(t.Delay(a, b), 2 * kTransitStubDelayLoMs);
}

TEST(Topology, DomainAndTransitIndexing) {
  rnd::Rng rng(6);
  const TopologyParams p = TinyTopologyParams();
  const Topology t = Topology::Generate(p, rng);
  EXPECT_EQ(t.DomainOf(0), 0);
  EXPECT_EQ(t.DomainOf(p.nodes_per_stub_domain), 1);
  EXPECT_EQ(t.TransitOfDomain(0), 0);
  EXPECT_EQ(t.TransitOfDomain(p.stub_domains_per_transit_node), 1);
}

TEST(Topology, DeterministicGivenSeed) {
  rnd::Rng r1(42), r2(42);
  const Topology a = Topology::Generate(TinyTopologyParams(), r1);
  const Topology b = Topology::Generate(TinyTopologyParams(), r2);
  for (HostId i = 0; i < a.num_stub_nodes(); i += 7)
    for (HostId j = 0; j < a.num_stub_nodes(); j += 11)
      EXPECT_DOUBLE_EQ(a.Delay(i, j), b.Delay(i, j));
}

TEST(Topology, FlatGraphIsConnected) {
  rnd::Rng rng(7);
  const Topology t = Topology::Generate(TinyTopologyParams(), rng);
  const auto dist = Dijkstra(t.FlatNodeCount(), t.FlatEdges(), 0);
  for (int i = 0; i < t.FlatNodeCount(); ++i)
    EXPECT_TRUE(std::isfinite(dist[static_cast<std::size_t>(i)]))
        << "node " << i << " unreachable";
}

// With single-host stub domains every stub is a pure leaf, so hierarchical
// routing must match true shortest paths exactly.
TEST(Topology, HierarchicalEqualsDijkstraWhenStubsAreLeaves) {
  TopologyParams p;
  p.transit_domains = 3;
  p.transit_nodes_per_domain = 4;
  p.stub_domains_per_transit_node = 2;
  p.nodes_per_stub_domain = 1;
  rnd::Rng rng(8);
  const Topology t = Topology::Generate(p, rng);
  for (HostId a = 0; a < t.num_stub_nodes(); ++a) {
    const auto dist = Dijkstra(t.FlatNodeCount(), t.FlatEdges(), a);
    for (HostId b = 0; b < t.num_stub_nodes(); ++b)
      EXPECT_NEAR(t.Delay(a, b), dist[static_cast<std::size_t>(b)], 1e-9);
  }
}

// With multi-host stub domains, hierarchical routing never reports less
// than the true shortest path (it restricts the path shape).
TEST(Topology, HierarchicalNeverBeatsDijkstra) {
  rnd::Rng rng(9);
  const Topology t = Topology::Generate(TinyTopologyParams(), rng);
  for (HostId a = 0; a < t.num_stub_nodes(); a += 5) {
    const auto dist = Dijkstra(t.FlatNodeCount(), t.FlatEdges(), a);
    for (HostId b = 0; b < t.num_stub_nodes(); ++b)
      EXPECT_GE(t.Delay(a, b) + 1e-9, dist[static_cast<std::size_t>(b)]);
  }
}

TEST(Topology, PaperScaleGeneratesQuickly) {
  rnd::Rng rng(10);
  const Topology t = Topology::Generate(PaperTopologyParams(), rng);
  EXPECT_EQ(t.num_stub_nodes(), 15360);
  EXPECT_EQ(t.num_transit_nodes(), 240);
  // Spot-check a few delays for sanity.
  EXPECT_GT(t.Delay(0, 15359), 0.0);
  EXPECT_LT(t.Delay(0, 15359), 1000.0);
}

// --- Landmark delay model (DelayModel::kLandmark) accuracy gate. ---------

// The per-pair budget the approximation must honor: either within 25%
// relative error or within 8 ms absolute. Empirically the model sits far
// inside this (mean relative error < 1%, max absolute < 3 ms): only
// same-domain pairs are approximate at all, and their ALT bounds confine
// the error to a couple of stub-stub hops.
constexpr double kRelBudget = 0.25;
constexpr double kAbsBudgetMs = 8.0;

Topology LandmarkTwin(const TopologyParams& p, std::uint64_t seed) {
  TopologyParams lp = p;
  lp.delay_model = DelayModel::kLandmark;
  rnd::Rng rng(seed);
  return Topology::Generate(lp, rng);
}

TEST(TopologyLandmark, CrossDomainDelaysAreExact) {
  const TopologyParams p = TinyTopologyParams();
  rnd::Rng rng(21);
  const Topology exact = Topology::Generate(p, rng);
  const Topology approx = LandmarkTwin(p, 21);
  // Landmark selection consumes no rng, so the generated graphs are
  // bit-identical; cross-domain routing shares every leg with the
  // hierarchical oracle and must match to the last bit.
  int checked = 0;
  for (HostId a = 0; a < exact.num_stub_nodes(); a += 3)
    for (HostId b = 0; b < exact.num_stub_nodes(); b += 5) {
      if (exact.DomainOf(a) == exact.DomainOf(b)) continue;
      EXPECT_DOUBLE_EQ(approx.Delay(a, b), exact.Delay(a, b));
      ++checked;
    }
  EXPECT_GT(checked, 100);
}

TEST(TopologyLandmark, WithinAccuracyGateVsHierarchical) {
  for (const std::uint64_t seed : {11ull, 42ull, 97ull}) {
    const TopologyParams p = TinyTopologyParams();
    rnd::Rng rng(seed);
    const Topology exact = Topology::Generate(p, rng);
    const Topology approx = LandmarkTwin(p, seed);
    rnd::Rng pick(seed + 1);
    const DelayAccuracy acc = CompareDelayOracles(approx, exact, 5000,
                                                  kRelBudget, kAbsBudgetMs,
                                                  pick);
    EXPECT_EQ(acc.gate_violations, 0) << "seed " << seed;
    EXPECT_LT(acc.mean_rel_err, 0.05) << "seed " << seed;
    EXPECT_EQ(acc.pairs, 5000);
  }
}

TEST(TopologyLandmark, WithinAccuracyGateAtSmallScale) {
  const TopologyParams p = SmallTopologyParams();
  rnd::Rng rng(5);
  const Topology exact = Topology::Generate(p, rng);
  const Topology approx = LandmarkTwin(p, 5);
  rnd::Rng pick(6);
  const DelayAccuracy acc =
      CompareDelayOracles(approx, exact, 20000, kRelBudget, kAbsBudgetMs,
                          pick);
  EXPECT_EQ(acc.gate_violations, 0);
  EXPECT_LT(acc.mean_rel_err, 0.02);
  // The landmark tables must actually be leaner than the APSP they replace.
  EXPECT_LT(approx.DelayTableBytes() * 2, exact.DelayTableBytes());
}

TEST(TopologyLandmark, SymmetricZeroSelfAndFinite) {
  const Topology t = LandmarkTwin(TinyTopologyParams(), 33);
  rnd::Rng pick(34);
  for (int i = 0; i < 500; ++i) {
    const HostId a = static_cast<HostId>(
        pick.UniformIndex(static_cast<std::size_t>(t.num_stub_nodes())));
    const HostId b = static_cast<HostId>(
        pick.UniformIndex(static_cast<std::size_t>(t.num_stub_nodes())));
    const double d = t.Delay(a, b);
    EXPECT_TRUE(std::isfinite(d));
    EXPECT_DOUBLE_EQ(d, t.Delay(b, a));
    if (a == b) {
      EXPECT_DOUBLE_EQ(d, 0.0);
    }
  }
  EXPECT_DOUBLE_EQ(t.Delay(3, 3), 0.0);
}

// Against ground truth (flat-graph Dijkstra): the landmark oracle inherits
// the hierarchical routing restriction plus its own same-domain slack, so
// gate it with the same budget against the unrestricted shortest path.
TEST(TopologyLandmark, WithinBudgetOfFlatDijkstra) {
  const TopologyParams p = TinyTopologyParams();
  rnd::Rng rng(13);
  const Topology exact = Topology::Generate(p, rng);
  const Topology approx = LandmarkTwin(p, 13);
  for (HostId a = 0; a < exact.num_stub_nodes(); a += 7) {
    const auto dist = Dijkstra(exact.FlatNodeCount(), exact.FlatEdges(), a);
    for (HostId b = 0; b < exact.num_stub_nodes(); ++b) {
      const double truth = dist[static_cast<std::size_t>(b)];
      const double est = approx.Delay(a, b);
      const double abs_err = std::abs(est - truth);
      const bool ok = truth == 0.0 || abs_err / truth <= kRelBudget ||
                      abs_err <= kAbsBudgetMs;
      EXPECT_TRUE(ok) << "pair (" << a << ", " << b << "): est " << est
                      << " vs dijkstra " << truth;
    }
  }
}

TEST(TopologyLandmark, CompareOraclesIsZeroOnIdenticalTopologies) {
  rnd::Rng rng(3);
  const Topology t = Topology::Generate(TinyTopologyParams(), rng);
  rnd::Rng pick(4);
  const DelayAccuracy acc =
      CompareDelayOracles(t, t, 1000, kRelBudget, kAbsBudgetMs, pick);
  EXPECT_EQ(acc.gate_violations, 0);
  EXPECT_DOUBLE_EQ(acc.max_abs_err_ms, 0.0);
  EXPECT_DOUBLE_EQ(acc.mean_rel_err, 0.0);
}

TEST(TopologyLandmark, ScaleParamsShape) {
  const TopologyParams p = ScaleTopologyParams(100000);
  EXPECT_EQ(p.delay_model, DelayModel::kLandmark);
  EXPECT_FALSE(p.keep_flat_edges);
  EXPECT_GE(p.transit_domains * p.transit_nodes_per_domain *
                p.stub_domains_per_transit_node * p.nodes_per_stub_domain,
            100000);
  // A topology generated without the flat list reports no edges but still
  // answers delay queries.
  rnd::Rng rng(1);
  const Topology t = Topology::Generate(ScaleTopologyParams(500), rng);
  EXPECT_TRUE(t.FlatEdges().empty());
  EXPECT_GT(t.Delay(0, t.num_stub_nodes() - 1), 0.0);
}

struct SeedCase {
  std::uint64_t seed;
};

class TopologyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

// Property sweep: every seed yields a topology whose delay oracle is
// finite, symmetric, and respects the minimum link delay.
TEST_P(TopologyPropertyTest, DelayOracleWellFormed) {
  rnd::Rng rng(GetParam());
  const Topology t = Topology::Generate(TinyTopologyParams(), rng);
  rnd::Rng pick(GetParam() + 1);
  for (int i = 0; i < 100; ++i) {
    const HostId a = static_cast<HostId>(pick.UniformIndex(
        static_cast<std::size_t>(t.num_stub_nodes())));
    const HostId b = static_cast<HostId>(pick.UniformIndex(
        static_cast<std::size_t>(t.num_stub_nodes())));
    const double d = t.Delay(a, b);
    EXPECT_TRUE(std::isfinite(d));
    EXPECT_DOUBLE_EQ(d, t.Delay(b, a));
    if (a != b) {
      EXPECT_GE(d, kStubStubDelayLoMs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace omcast::net
