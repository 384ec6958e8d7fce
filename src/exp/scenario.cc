#include "exp/scenario.h"

#include <optional>

#include "exp/run_observability.h"
#include "metrics/collectors.h"
#include "obs/registry.h"
#include "proto/longest_first.h"
#include "proto/min_depth.h"
#include "proto/relaxed_ordered.h"
#include "rand/distributions.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace omcast::exp {

std::vector<Algorithm> AllAlgorithms() {
  return {Algorithm::kMinDepth, Algorithm::kRelaxedBo, Algorithm::kLongestFirst,
          Algorithm::kRelaxedTo, Algorithm::kRost};
}

const char* AlgorithmLabel(Algorithm a) {
  switch (a) {
    case Algorithm::kMinDepth: return "min-depth";
    case Algorithm::kLongestFirst: return "longest-first";
    case Algorithm::kRelaxedBo: return "relaxed-BO";
    case Algorithm::kRelaxedTo: return "relaxed-TO";
    case Algorithm::kRost: return "ROST";
    case Algorithm::kClique: return "clique";
  }
  return "?";
}

std::unique_ptr<overlay::Protocol> MakeProtocol(
    Algorithm a, const core::RostParams& rost,
    const proto::CliqueParams& clique) {
  switch (a) {
    case Algorithm::kMinDepth:
      return std::make_unique<proto::MinDepthProtocol>();
    case Algorithm::kLongestFirst:
      return std::make_unique<proto::LongestFirstProtocol>();
    case Algorithm::kRelaxedBo:
      return std::make_unique<proto::RelaxedBandwidthOrderedProtocol>();
    case Algorithm::kRelaxedTo:
      return std::make_unique<proto::RelaxedTimeOrderedProtocol>();
    case Algorithm::kRost:
      return std::make_unique<core::RostProtocol>(rost);
    case Algorithm::kClique:
      return std::make_unique<proto::CliqueProtocol>(clique);
  }
  util::Fail("unknown algorithm");
}

namespace {

// End-of-run session-level counters shared by every scenario runner.
void ExportSessionCounters(obs::Registry& reg, overlay::Session& session) {
  reg.Count("session.total_members",
            static_cast<double>(session.total_members_created()));
  reg.Count("session.failed_join_attempts",
            static_cast<double>(session.failed_join_attempts()));
  reg.Count("session.dropped_arrivals",
            static_cast<double>(session.dropped_arrivals()));
  reg.SetGauge("session.final_population",
               static_cast<double>(session.alive_count()));
}

}  // namespace

TreeScenarioResult RunTreeScenario(const net::Topology& topology, Algorithm a,
                                   const ScenarioConfig& config) {
  sim::Simulator simulator;
  std::unique_ptr<overlay::Protocol> protocol =
      MakeProtocol(a, config.rost, config.clique);
  auto* rost = a == Algorithm::kRost
                   ? static_cast<core::RostProtocol*>(protocol.get())
                   : nullptr;
  overlay::Session session(simulator, topology, std::move(protocol),
                           config.session, config.seed);
  RunObservability observability(simulator, session, config.tracer,
                                 config.profiler, config.incident_analysis);
  metrics::MemberOutcomes outcomes(session);
  metrics::TreeSnapshots snapshots(session, kSnapshotIntervalS);

  const double t_measure = config.warmup_s;
  const double t_end = config.warmup_s + config.measure_s;
  outcomes.SetWindow(t_measure, t_end);
  snapshots.Start(t_measure, t_end);

  // Recovery curves over the measurement window (the chaos harness records
  // the same gauges on the same window grid, plus its stream series).
  std::optional<RecoverySampler> sampler;
  if (config.timeseries_window_s > 0.0 && config.registry != nullptr) {
    sampler.emplace(simulator, session, *config.registry,
                    config.timeseries_window_s, t_measure, t_end,
                    "scenario.timeseries");
  }

  session.Prepopulate(config.population);
  session.StartArrivals(ArrivalRate(config.population));
  simulator.RunUntil(t_end);
  outcomes.HarvestAliveMembers();

  TreeScenarioResult r;
  r.avg_disruptions = outcomes.disruptions().mean();
  r.disruptions_ci95 = outcomes.disruptions().ci95_half_width();
  r.avg_reconnections = outcomes.reconnections().mean();
  r.avg_delay_ms = snapshots.delay_ms().mean();
  r.avg_stretch = snapshots.stretch().mean();
  r.avg_depth = snapshots.depth().mean();
  r.avg_population = snapshots.population().mean();
  r.qualifying_members = outcomes.qualifying_members();
  r.disruption_samples = outcomes.disruption_samples();
  if (rost != nullptr) {
    r.rost_switches = rost->switches_performed();
    r.rost_lock_conflicts = rost->lock_conflicts();
  }
  r.incidents = observability.Finish(simulator.now(), config.registry);
  if (config.registry != nullptr) {
    ExportSessionCounters(*config.registry, session);
    session.protocol().ExportCounters(*config.registry);
  }
  return r;
}

StreamScenarioResult RunStreamScenario(const net::Topology& topology,
                                       Algorithm a,
                                       const ScenarioConfig& config,
                                       const stream::StreamParams& stream) {
  sim::Simulator simulator;
  overlay::Session session(simulator, topology,
                           MakeProtocol(a, config.rost, config.clique),
                           config.session, config.seed);
  RunObservability observability(simulator, session, config.tracer,
                                 config.profiler, /*incident_analysis=*/false);
  stream::StreamingLayer streaming(session, stream, config.seed ^ 0x5151);

  const double t_measure = config.warmup_s;
  const double t_end = config.warmup_s + config.measure_s;
  streaming.SetMeasurementWindow(t_measure, t_end);

  session.Prepopulate(config.population);
  session.StartArrivals(ArrivalRate(config.population));
  simulator.RunUntil(t_end);

  StreamScenarioResult r;
  r.avg_starving_ratio = streaming.ratio_stat().mean();
  r.ci95 = streaming.ratio_stat().ci95_half_width();
  r.members = static_cast<int>(streaming.ratio_stat().count());
  r.outages = streaming.outages_simulated();
  r.avg_recovery_rate = streaming.aggregate_rate_stat().mean();
  if (config.registry != nullptr) {
    ExportSessionCounters(*config.registry, session);
    config.registry->Count("stream.outages", static_cast<double>(r.outages));
  }
  return r;
}

TraceResult RunMemberTraceScenario(const net::Topology& topology, Algorithm a,
                                   const ScenarioConfig& config,
                                   double member_bandwidth,
                                   double member_lifetime_s, double trace_s) {
  sim::Simulator simulator;
  overlay::Session session(simulator, topology,
                           MakeProtocol(a, config.rost, config.clique),
                           config.session, config.seed);
  RunObservability observability(simulator, session, config.tracer,
                                 config.profiler, /*incident_analysis=*/false);
  metrics::MemberTrace trace(session, kSnapshotIntervalS);

  session.Prepopulate(config.population);
  session.StartArrivals(ArrivalRate(config.population));
  simulator.RunUntil(config.warmup_s);

  const overlay::NodeId tagged =
      session.InjectMember(member_bandwidth, member_lifetime_s);
  const double t0 = simulator.now();
  trace.Track(tagged);
  simulator.RunUntil(t0 + trace_s);

  TraceResult out;
  for (const auto& p : trace.disruption_series())
    out.cumulative_disruptions.push_back({(p.t - t0) / 60.0, p.v});
  for (const auto& p : trace.delay_series())
    out.delay_ms.push_back({(p.t - t0) / 60.0, p.v});
  return out;
}

}  // namespace omcast::exp
