// Reusable experiment scenarios mirroring paper Section 5:
// equilibrium-pre-populated session, Poisson arrivals at
// lambda = population / 1809 (Little's law), a warm-up phase for the tree
// structure to equilibrate under the protocol, then a measurement window.
//
// Three runners cover all figures:
//   * RunTreeScenario       -- structural reliability/quality metrics
//                              (Figs. 4, 5, 7, 8, 10, 11)
//   * RunMemberTraceScenario-- one tagged "typical member" time series
//                              (Figs. 6, 9)
//   * RunStreamScenario     -- starving-time-ratio with a StreamingLayer
//                              (Figs. 12, 13, 14)
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/rost/rost.h"
#include "net/topology.h"
#include "overlay/session.h"
#include "proto/clique/clique.h"
#include "stream/streaming.h"

namespace omcast::obs {
class Tracer;
class Registry;
class SimProfiler;
}  // namespace omcast::obs

namespace omcast::exp {

enum class Algorithm {
  kMinDepth,
  kLongestFirst,
  kRelaxedBo,
  kRelaxedTo,
  kRost,
  // The clustered-overlay competitor (proto/clique) -- not one of the
  // paper's five, so AllAlgorithms() excludes it and the bake-off harness
  // names it explicitly.
  kClique,
};

// The five algorithms in the paper's plotting order (kClique is the
// bake-off competitor, not a paper curve, and is deliberately absent).
std::vector<Algorithm> AllAlgorithms();
const char* AlgorithmLabel(Algorithm a);
std::unique_ptr<overlay::Protocol> MakeProtocol(
    Algorithm a, const core::RostParams& rost,
    const proto::CliqueParams& clique = {});
// The Poisson arrival rate that holds `population` members steady.
inline double ArrivalRate(int population) {
  return static_cast<double>(population) / rnd::kMeanLifetimeSeconds;
}

// Interval of the tree snapshots (delay, stretch, depth, population) and of
// the tagged member's delay samples.
inline constexpr double kSnapshotIntervalS = 300.0;

// Plain value type: runner cells copy one per cell and patch population /
// seed, so scenario code must never stash pointers to a shared config.
// The scenario runners below are thread-safe for concurrent calls *on
// distinct configs and distinct seeds* -- each call builds its own
// Simulator, Session, and RNG and only reads the (immutable) Topology.
struct ScenarioConfig {
  int population = 1000;          // steady-state size M
  double warmup_s = 1800.0;       // structure equilibration before measuring
  double measure_s = 3600.0;      // measurement window length
  std::uint64_t seed = 1;
  core::RostParams rost;          // used when algorithm == kRost
  proto::CliqueParams clique;     // used when algorithm == kClique
  overlay::SessionParams session;

  // --- observability (obs/) -- all non-owning, null = off, and each must
  // outlive the run. The tracer receives the protocol event stream, the
  // registry receives end-of-run counter snapshots (protocol message costs,
  // Fig. 10), and the profiler brackets every simulator dispatch.
  obs::Tracer* tracer = nullptr;
  obs::Registry* registry = nullptr;
  obs::SimProfiler* profiler = nullptr;

  // Recovery-curve sampling (RunTreeScenario only): when > 0 and `registry`
  // is set, the measurement window is sampled every `timeseries_window_s`
  // seconds into "recovery.*" obs::TimeSeries gauges (unrooted members,
  // pending re-entries, wedged leases) in the registry -- the same family
  // the chaos harness records, so churn and chaos cells export uniformly.
  double timeseries_window_s = 0.0;
  // Stitch the trace stream into per-disruption incident lifecycles
  // (obs::IncidentLog -> TreeScenarioResult::incidents, plus registry
  // histograms when `registry` is set). Uses `tracer` when set; otherwise a
  // minimal run-local tracer feeds the analysis.
  bool incident_analysis = false;
};

struct TreeScenarioResult {
  double avg_disruptions = 0.0;
  double disruptions_ci95 = 0.0;
  double avg_reconnections = 0.0;
  double avg_delay_ms = 0.0;
  double avg_stretch = 0.0;
  double avg_depth = 0.0;
  double avg_population = 0.0;
  int qualifying_members = 0;
  std::vector<double> disruption_samples;
  // ROST only; -1 otherwise.
  long rost_switches = -1;
  long rost_lock_conflicts = -1;
  // Per-disruption lifecycle stats (obs::IncidentLog::FlatStats); empty
  // unless ScenarioConfig::incident_analysis.
  std::map<std::string, double> incidents;
};

TreeScenarioResult RunTreeScenario(const net::Topology& topology, Algorithm a,
                                   const ScenarioConfig& config);

struct StreamScenarioResult {
  double avg_starving_ratio = 0.0;  // 0..1
  double ci95 = 0.0;
  int members = 0;
  long outages = 0;
  double avg_recovery_rate = 0.0;  // aggregate repair rate assembled
};

StreamScenarioResult RunStreamScenario(const net::Topology& topology,
                                       Algorithm a,
                                       const ScenarioConfig& config,
                                       const stream::StreamParams& stream);

struct TracePoint {
  double t_min = 0.0;  // minutes since the tagged member joined
  double v = 0.0;
};

struct TraceResult {
  std::vector<TracePoint> cumulative_disruptions;
  std::vector<TracePoint> delay_ms;
};

// Injects a "typical member" (moderate bandwidth, long lifetime) once the
// network is in steady state and traces it for `trace_s` seconds
// (Figs. 6 and 9 trace 300 minutes).
TraceResult RunMemberTraceScenario(const net::Topology& topology, Algorithm a,
                                   const ScenarioConfig& config,
                                   double member_bandwidth,
                                   double member_lifetime_s, double trace_s);

}  // namespace omcast::exp
