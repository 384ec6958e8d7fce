// Integration tests: the experiment runners end-to-end, including the
// paper's qualitative relations at a reduced scale with fixed seeds.
#include "exp/scenario.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "net/topology.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace omcast::exp {
namespace {

const net::Topology& PaperTopology() {
  static const net::Topology topology = [] {
    rnd::Rng rng(1 ^ 0x70706fULL);
    return net::Topology::Generate(net::PaperTopologyParams(), rng);
  }();
  return topology;
}

ScenarioConfig QuickConfig(int population, std::uint64_t seed) {
  ScenarioConfig c;
  c.population = population;
  c.warmup_s = 3600.0;
  c.measure_s = 2400.0;
  c.seed = seed;
  return c;
}

TEST(Scenario, DeterministicForFixedSeed) {
  const auto a =
      RunTreeScenario(PaperTopology(), Algorithm::kRost, QuickConfig(800, 5));
  const auto b =
      RunTreeScenario(PaperTopology(), Algorithm::kRost, QuickConfig(800, 5));
  EXPECT_EQ(a.avg_disruptions, b.avg_disruptions);
  EXPECT_EQ(a.avg_delay_ms, b.avg_delay_ms);
  EXPECT_EQ(a.qualifying_members, b.qualifying_members);
  EXPECT_EQ(a.rost_switches, b.rost_switches);
}

TEST(Scenario, SeedsActuallyDiffer) {
  const auto a =
      RunTreeScenario(PaperTopology(), Algorithm::kMinDepth, QuickConfig(800, 5));
  const auto b =
      RunTreeScenario(PaperTopology(), Algorithm::kMinDepth, QuickConfig(800, 6));
  EXPECT_NE(a.avg_delay_ms, b.avg_delay_ms);
}

TEST(Scenario, BaselinesImposeNoOverheadRostLittle) {
  const auto min_depth = RunTreeScenario(PaperTopology(), Algorithm::kMinDepth,
                                         QuickConfig(800, 7));
  const auto longest = RunTreeScenario(PaperTopology(), Algorithm::kLongestFirst,
                                       QuickConfig(800, 7));
  const auto rost =
      RunTreeScenario(PaperTopology(), Algorithm::kRost, QuickConfig(800, 7));
  EXPECT_EQ(min_depth.avg_reconnections, 0.0);
  EXPECT_EQ(longest.avg_reconnections, 0.0);
  EXPECT_GT(rost.rost_switches, 0);
  // "far less than one reconnection for a single node during its lifetime"
  EXPECT_LT(rost.avg_reconnections, 1.0);
}

TEST(Scenario, RostBeatsMinDepthOnReliabilityAndDelay) {
  // The paper's headline relations, at a reduced scale, averaged over a few
  // seeds for stability.
  double rost_disr = 0.0, md_disr = 0.0, rost_delay = 0.0, md_delay = 0.0;
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const auto rost =
        RunTreeScenario(PaperTopology(), Algorithm::kRost, QuickConfig(1500, seed));
    const auto md = RunTreeScenario(PaperTopology(), Algorithm::kMinDepth,
                                    QuickConfig(1500, seed));
    rost_disr += rost.avg_disruptions;
    md_disr += md.avg_disruptions;
    rost_delay += rost.avg_delay_ms;
    md_delay += md.avg_delay_ms;
  }
  EXPECT_LT(rost_disr, md_disr);
  EXPECT_LT(rost_delay, md_delay);
}

TEST(Scenario, PopulationTracksTarget) {
  const auto r = RunTreeScenario(PaperTopology(), Algorithm::kMinDepth,
                                 QuickConfig(1000, 9));
  EXPECT_GT(r.avg_population, 700.0);
  EXPECT_LT(r.avg_population, 1300.0);
  EXPECT_GT(r.qualifying_members, 500);
}

TEST(Scenario, StreamScenarioGroupSizeHelps) {
  stream::StreamParams one;
  one.recovery_group_size = 1;
  stream::StreamParams three;
  three.recovery_group_size = 3;
  double r1 = 0.0, r3 = 0.0;
  for (std::uint64_t seed : {21u, 22u}) {
    r1 += RunStreamScenario(PaperTopology(), Algorithm::kMinDepth,
                            QuickConfig(1200, seed), one)
              .avg_starving_ratio;
    r3 += RunStreamScenario(PaperTopology(), Algorithm::kMinDepth,
                            QuickConfig(1200, seed), three)
              .avg_starving_ratio;
  }
  EXPECT_GT(r1, 0.0);
  EXPECT_LT(r3, r1);
}

TEST(Scenario, RostCerBeatsBaselineCombination) {
  stream::StreamParams cer;
  cer.recovery_group_size = 3;
  cer.selection = core::GroupSelection::kMlc;
  cer.mode = core::RecoveryMode::kCooperative;
  stream::StreamParams baseline;
  baseline.recovery_group_size = 3;
  baseline.selection = core::GroupSelection::kRandom;
  baseline.mode = core::RecoveryMode::kSingleSource;
  double combined = 0.0, base = 0.0;
  for (std::uint64_t seed : {31u, 32u}) {
    combined += RunStreamScenario(PaperTopology(), Algorithm::kRost,
                                  QuickConfig(1200, seed), cer)
                    .avg_starving_ratio;
    base += RunStreamScenario(PaperTopology(), Algorithm::kMinDepth,
                              QuickConfig(1200, seed), baseline)
                .avg_starving_ratio;
  }
  EXPECT_LT(combined, base / 2.0);
}

TEST(Scenario, MemberTraceProducesMonotoneCumulativeSeries) {
  const auto trace = RunMemberTraceScenario(
      PaperTopology(), Algorithm::kMinDepth, QuickConfig(800, 15),
      /*member_bandwidth=*/2.0, /*member_lifetime_s=*/7200.0,
      /*trace_s=*/5400.0);
  double prev = 0.0;
  for (const auto& p : trace.cumulative_disruptions) {
    EXPECT_GE(p.v, prev);
    EXPECT_GE(p.t_min, 0.0);
    prev = p.v;
  }
  ASSERT_FALSE(trace.delay_ms.empty());
  for (const auto& p : trace.delay_ms) {
    EXPECT_GT(p.v, 0.0);
    EXPECT_LT(p.v, 10000.0);
  }
}

TEST(Scenario, AlgorithmLabelsAreDistinct) {
  std::set<std::string> labels;
  for (Algorithm a : AllAlgorithms()) labels.insert(AlgorithmLabel(a));
  EXPECT_EQ(labels.size(), 5u);
}

TEST(Scenario, MakeProtocolHonorsRostParams) {
  core::RostParams params;
  params.switching_interval_s = 42.0;
  auto protocol = MakeProtocol(Algorithm::kRost, params);
  auto* rost = dynamic_cast<core::RostProtocol*>(protocol.get());
  ASSERT_NE(rost, nullptr);
  EXPECT_EQ(rost->params().switching_interval_s, 42.0);
}

// Incident analysis reads the live trace stream, so a caller tracer whose
// ring evicts must change nothing but its own eviction count.
TEST(Scenario, IncidentsAreTheSameWithAndWithoutACallerTracer) {
  rnd::Rng topo_rng(1);
  const net::Topology topology =
      net::Topology::Generate(net::TinyTopologyParams(), topo_rng);
  for (const Algorithm a : AllAlgorithms()) {
    SCOPED_TRACE(AlgorithmLabel(a));
    ScenarioConfig c;
    c.population = 60;
    c.warmup_s = 600.0;
    c.measure_s = 1200.0;
    c.seed = 3;
    // Under the default 100-slot root a 60-member tree is a star, and a
    // star opens no incidents.
    c.session.root_bandwidth = 5.0;
    c.incident_analysis = true;
    obs::Registry plain_registry;
    c.registry = &plain_registry;
    const TreeScenarioResult plain = RunTreeScenario(topology, a, c);

    obs::Registry traced_registry;
    obs::Tracer tracer(/*capacity=*/16);
    c.registry = &traced_registry;
    c.tracer = &tracer;
    const TreeScenarioResult traced = RunTreeScenario(topology, a, c);

    EXPECT_GT(plain.incidents.at("incident.count"), 0.0);
    EXPECT_GT(tracer.dropped(), 0u);
    EXPECT_EQ(plain.incidents, traced.incidents);
    std::map<std::string, double> flat = traced_registry.Flatten();
    EXPECT_EQ(flat.erase("obs.trace.evicted"), 1u);
    EXPECT_EQ(plain_registry.Flatten(), flat);
  }
}

}  // namespace
}  // namespace omcast::exp
