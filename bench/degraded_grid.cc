// Degraded-regime grid: the QoE scorecard for the chaos scenario family.
//
// Rows are the three degraded-regime scenarios (all running the full
// hardened stack -- heartbeats, ROST leases over the fault plane, CER
// repair -- with frame-dependency playback enabled):
//
//   join_storm   -- a flash crowd of simultaneous joins lands 10 s into the
//                   stream; new members start mid-GOP and must resync.
//   isp_episode  -- an episodic on/off loss process blankets one stub
//                   domain's links (sim::FaultPlane link groups), an
//                   ISP-level correlated outage.
//   rejoin_load  -- 15% of the membership departs abruptly and re-enters
//                   through the session's bounded-retry re-entry path.
//
// Columns are background control/data-plane loss rates {1%, 5%}. The
// headline metric is qoe degraded_time_fraction: the mean fraction of
// viewing time members spent outside nominal playback cadence. The grid
// also records recovery-to-cadence latency, decode stalls, dependency
// resyncs, permanently stalled sessions, re-entry resolution, wedged leases
// and unrooted members; the run exits nonzero unless the last three are
// zero in every cell.
//
//   ./bench/degraded_grid [--population=150] [--stream=90] [--out=results]
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exp/chaos.h"
#include "net/topology.h"
#include "util/flags.h"

namespace {

using namespace omcast;

constexpr double kLossRates[] = {0.01, 0.05};

struct GridOptions {
  int population = 150;
  double warmup_s = 300.0;
  double stream_s = 90.0;
  double drain_s = 90.0;
  bench::Observability observability;
};

runner::CellResult RunCell(const GridOptions& opt, const net::Topology& topo,
                           const runner::CellContext& cell) {
  exp::ChaosConfig c;
  c.population = opt.population;
  c.warmup_s = opt.warmup_s;
  c.stream_s = opt.stream_s;
  c.drain_s = opt.drain_s;
  c.seed = cell.seed;
  c.fault.loss_rate = kLossRates[cell.col];
  c.fault.dup_prob = 0.01;
  c.fault.jitter_s = 0.02;
  // Cap the root so the tree has real depth at this population (a star
  // would make every scenario trivially nominal).
  c.session.root_bandwidth = 10.0;
  c.rost.switching_interval_s = 120.0;
  c.packet.frame_playback = true;
  switch (cell.row) {
    case 0:  // join_storm: half the steady-state size arrives at once
      c.join_storm_at_s = 10.0;
      c.join_storm_count = opt.population / 2;
      break;
    case 1:  // isp_episode: heavy on/off loss over stub domain 1's links
      c.episodic_at_s = 10.0;
      c.episodic_domain_index = 1;
      c.episodic.loss_rate = 0.9;
      c.episodic.mean_on_s = 4.0;
      c.episodic.mean_off_s = 12.0;
      break;
    case 2:  // rejoin_load: 15% depart and re-enter under load
      c.reconnect_storm_at_s = 10.0;
      c.reconnect_storm_fraction = 0.15;
      c.reconnect_downtime_mean_s = 5.0;
      break;
  }

  bench::CellObservability observe(opt.observability, cell);
  observe.Wire(&c);
  const exp::ChaosResult r = exp::RunChaosScenario(topo, c);

  runner::CellResult out;
  out.metrics["degraded_time_fraction"] = r.degraded_time_fraction;
  out.metrics["mean_recovery_to_cadence_s"] = r.mean_recovery_to_cadence_s;
  out.metrics["decode_stalls"] = static_cast<double>(r.decode_stalls);
  out.metrics["regime_transitions"] = static_cast<double>(r.regime_transitions);
  out.metrics["dependency_resyncs"] = static_cast<double>(r.dependency_resyncs);
  out.metrics["permanently_stalled"] =
      static_cast<double>(r.permanently_stalled);
  out.metrics["starving_ratio"] = r.avg_starving_ratio;
  out.metrics["join_storm_injected"] = static_cast<double>(r.join_storm_injected);
  out.metrics["episodes_started"] = static_cast<double>(r.episodes_started);
  out.metrics["reconnect_storm_killed"] =
      static_cast<double>(r.reconnect_storm_killed);
  out.metrics["reentries_scheduled"] =
      static_cast<double>(r.reentries_scheduled);
  out.metrics["reentries_attached"] = static_cast<double>(r.reentries_attached);
  out.metrics["reentries_abandoned"] =
      static_cast<double>(r.reentries_abandoned);
  out.metrics["reentries_pending"] = static_cast<double>(r.reentries_pending);
  out.metrics["wedged_leases"] = r.registry.at("chaos.wedged_leases");
  out.metrics["unrooted_members"] = static_cast<double>(r.unrooted_members);
  out.metrics["final_population"] = static_cast<double>(r.final_population);
  observe.Export(r.incidents, &out);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace omcast;
  util::FlagSet flags;
  flags.Define("population", "150", "steady-state member count")
      .Define("warmup", "300", "equilibration seconds before the stream")
      .Define("stream", "90", "packet-level stream seconds per cell")
      .Define("drain", "90", "post-stream drain seconds");
  bench::DefineDriverFlags(flags, /*threads_default=*/"1");
  bench::DefineObservabilityFlags(flags, /*profile=*/false);
  if (!flags.Parse(argc, argv)) return 1;
  const bench::Driver driver = bench::ReadDriverFlags(flags);

  GridOptions opt;
  opt.population = flags.GetInt("population");
  opt.warmup_s = flags.GetDouble("warmup");
  opt.stream_s = flags.GetDouble("stream");
  opt.drain_s = flags.GetDouble("drain");
  opt.observability = bench::ReadObservabilityFlags(flags, /*profile=*/false);

  std::cout << "=== degraded_grid -- QoE under degraded-regime scenarios ===\n"
            << "population: " << opt.population << "  stream: " << opt.stream_s
            << "s  warmup: " << opt.warmup_s << "s  seed: " << driver.seed
            << "\n\n";

  rnd::Rng topo_rng(driver.seed ^ 0xde62adULL);
  const net::Topology topo =
      net::Topology::Generate(net::SmallTopologyParams(), topo_rng);

  runner::GridSpec spec;
  spec.figure = "degraded_grid";
  spec.title = "playback QoE across degraded-regime chaos scenarios";
  spec.row_header = "scenario";
  spec.rows = {"join_storm", "isp_episode", "rejoin_load"};
  spec.cols = {"loss=1%", "loss=5%"};
  spec.reps = 1;
  spec.headline_metric = "degraded_time_fraction";
  spec.run = [&opt, &topo](const runner::CellContext& cell) {
    return RunCell(opt, topo, cell);
  };

  // The manifest's phase lengths are the warm-up and the stream.
  const auto [sink, status] = bench::RunGridBench(
      driver, spec, "degraded_grid", opt.warmup_s, opt.stream_s);

  bench::PrintMetricTable(spec, sink, "degraded_time_fraction", 4,
                          "degraded-session time fraction (headline)");
  bench::PrintMetricTable(spec, sink, "mean_recovery_to_cadence_s", 2,
                          "recovery-to-cadence latency (s)");
  bench::PrintMetricTable(spec, sink, "decode_stalls", 0,
                          "decode stalls (dependency-failed frames)");
  bench::PrintMetricTable(spec, sink, "dependency_resyncs", 0,
                          "dependency resyncs (mid-GOP entries recovered)");
  bench::PrintMetricTable(spec, sink, "reentries_pending", 0,
                          "re-entries unresolved after settle (must be 0)");
  bench::PrintMetricTable(spec, sink, "wedged_leases", 0,
                          "wedged leases (must be 0)");
  bench::PrintMetricTable(spec, sink, "unrooted_members", 0,
                          "members still unrooted after settle");
  bench::PrintRecoveryCurveTable(
      spec, sink, "recovery.degraded_fraction",
      "recovery curve: peak degraded fraction / time back to zero", 3);
  bench::PrintIncidentBreakdownTable(
      spec, sink, "disruption incidents: opened/reattached/recovered");
  bench::PrintIncidentPhaseTable(spec, sink, "recover",
                                 "stream-recovery latency p50/p99 (s)");

  // Health gate: the grid run itself fails if any cell wedged a lease, left
  // a re-entry unresolved or stranded an orphan, so CI smoke catches
  // regressions without parsing tables.
  return bench::HealthGate(spec, sink) ? status : 1;
}
