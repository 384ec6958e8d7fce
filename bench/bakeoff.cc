// ROST/CER vs clustered-overlay (clique) bake-off.
//
// One grid, two protocol columns, shared randomness: every (row, rep) pair
// derives ONE seed that both protocol columns reuse, and every cell runs
// over the same cached topology -- so each row is a paired comparison on an
// identical world (same member bandwidths, lifetimes, arrival times, and
// injected failures), not two independent experiments.
//
// Rows split into two families:
//
//   * steady-churn rows (churn_n*) -- RunTreeScenario under equilibrium
//     churn at two sizes; the metrics are the paper's figure set in one
//     cell: disruptions (Fig. 4), service delay (Fig. 7), stretch (Fig. 8),
//     and the protocol's control-message cost (Fig. 10: ROST's lock/switch
//     traffic vs the clique's backbone + intra-cluster announcements);
//
//   * chaos rows -- RunChaosScenario with the full hardened stack
//     (heartbeats + fault plane + packet-level stream with frame-dependency
//     playback) under the injected-failure family: correlated stub-domain
//     kill, flash crowd of simultaneous departures, ISP-level episodic loss
//     over one domain's links, and a reconnect storm through the bounded
//     re-entry path. Metrics are QoE (starving ratio, degraded-time
//     fraction, decode stalls) plus the post-drain health gates.
//
// The health gate (every chaos cell, both protocols): zero wedged leases,
// zero pending re-entries, zero members left unrooted after the settle
// window. The run exits nonzero when any cell violates them, so the CI
// smoke job catches protocol-hardening regressions without parsing tables.
//
// Clique-only cells additionally publish `clique_disruptions` /
// `clique_starving_ratio`, giving scripts/validate_results.py
// --require-metric a clique-side aggregate to pin (a run that silently
// dropped the competitor column fails validation).
//
//   ./bench/bakeoff [--population=150] [--out=results] [--reps=2]
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exp/chaos.h"
#include "exp/scenario.h"
#include "net/topology.h"
#include "obs/registry.h"
#include "util/flags.h"

namespace {

using namespace omcast;

constexpr std::size_t kChurnRows = 2;  // churn rows precede the chaos rows

struct GridOptions {
  int population = 150;       // chaos-row steady-state size
  int tree_population = 200;  // first churn row; the second doubles it
  double tree_warmup_s = 900.0;
  double tree_measure_s = 1800.0;
  double warmup_s = 300.0;  // chaos rows
  double stream_s = 90.0;
  double drain_s = 90.0;
  bench::Observability observability;
};

exp::Algorithm ColAlgorithm(std::size_t col) {
  return col == 0 ? exp::Algorithm::kRost : exp::Algorithm::kClique;
}

// The Fig. 10 cost comparison: each protocol's control messages, read back
// from its ExportCounters registry snapshot. ROST's cost is its lock/switch
// handshake traffic; the clique's is backbone claims plus intra-cluster
// announcement fan-out.
double ControlOverhead(const obs::Registry& reg, exp::Algorithm a) {
  if (a == exp::Algorithm::kRost)
    return reg.CounterValue("rost.switches") +
           reg.CounterValue("rost.lock_conflicts") +
           reg.CounterValue("rost.lock_retries") +
           reg.CounterValue("rost.lock_timeouts") +
           reg.CounterValue("rost.handshake_aborts") +
           reg.CounterValue("rost.preempt_joins");
  return reg.CounterValue("clique.backbone_messages") +
         reg.CounterValue("clique.local_messages");
}

runner::CellResult RunChurnCell(const GridOptions& opt,
                                const net::Topology& topo,
                                const runner::CellContext& cell,
                                std::uint64_t shared_seed) {
  const exp::Algorithm a = ColAlgorithm(cell.col);
  exp::ScenarioConfig c;
  c.population = cell.row == 0 ? opt.tree_population : 2 * opt.tree_population;
  c.warmup_s = opt.tree_warmup_s;
  c.measure_s = opt.tree_measure_s;
  c.seed = shared_seed;
  bench::CellObservability observe(opt.observability, cell);
  observe.Wire(&c);
  const exp::TreeScenarioResult r = exp::RunTreeScenario(topo, a, c);

  runner::CellResult out;
  out.metrics["disruptions"] = r.avg_disruptions;
  out.metrics["disruptions_ci95"] = r.disruptions_ci95;
  out.metrics["reconnections"] = r.avg_reconnections;
  out.metrics["delay_ms"] = r.avg_delay_ms;
  out.metrics["stretch"] = r.avg_stretch;
  out.metrics["depth"] = r.avg_depth;
  out.metrics["population"] = r.avg_population;
  out.metrics["control_overhead"] = ControlOverhead(observe.registry(), a);
  if (a == exp::Algorithm::kClique)
    out.metrics["clique_disruptions"] = r.avg_disruptions;
  observe.Export(r.incidents, &out);
  return out;
}

runner::CellResult RunChaosCell(const GridOptions& opt,
                                const net::Topology& topo,
                                const runner::CellContext& cell,
                                std::uint64_t shared_seed) {
  const exp::Algorithm a = ColAlgorithm(cell.col);
  exp::ChaosConfig c;
  c.population = opt.population;
  c.warmup_s = opt.warmup_s;
  c.stream_s = opt.stream_s;
  c.drain_s = opt.drain_s;
  c.seed = shared_seed;
  c.algorithm = a;
  c.fault.loss_rate = 0.02;
  c.fault.dup_prob = 0.01;
  c.fault.jitter_s = 0.02;
  // Real depth at this population (a star would make every row trivial) but
  // with enough slack that a flash crowd's capacity loss stays feasible:
  // killing a fifth of the membership also removes its fan-out, and with a
  // tighter root the stragglers left over are capacity-0 members no
  // protocol could place (the health gate would measure the workload, not
  // the protocol).
  c.session.root_bandwidth = 16.0;
  c.rost.switching_interval_s = 120.0;
  c.packet.frame_playback = true;
  switch (cell.row - kChurnRows) {
    case 0:  // domain_kill: every member in stub domain 1 dies at once
      c.domain_kill_at_s = 10.0;
      c.domain_kill_index = 1;
      break;
    case 1:  // flash_crowd: a fifth of the membership departs at one instant
      c.flash_at_s = 10.0;
      c.flash_departures = opt.population / 5;
      break;
    case 2:  // isp_episode: heavy on/off loss over stub domain 1's links
      c.episodic_at_s = 10.0;
      c.episodic_domain_index = 1;
      c.episodic.loss_rate = 0.9;
      c.episodic.mean_on_s = 4.0;
      c.episodic.mean_off_s = 12.0;
      // The incident ends with the stream: the drain and the settle window
      // then measure recovery from it. Left running, the on/off process
      // keeps the domain semi-partitioned and the health gate would flag
      // members no protocol could reach.
      c.episodic_end_s = opt.stream_s;
      break;
    case 3:  // reconnect_storm: 15% depart and re-enter under load
      c.reconnect_storm_at_s = 10.0;
      c.reconnect_storm_fraction = 0.15;
      c.reconnect_downtime_mean_s = 5.0;
      break;
  }

  bench::CellObservability observe(opt.observability, cell);
  observe.Wire(&c);
  const exp::ChaosResult r = exp::RunChaosScenario(topo, c);
  const obs::Registry& reg = observe.registry();

  runner::CellResult out;
  out.metrics["starving_ratio"] = r.avg_starving_ratio;
  out.metrics["degraded_time_fraction"] = r.degraded_time_fraction;
  out.metrics["mean_recovery_to_cadence_s"] = r.mean_recovery_to_cadence_s;
  out.metrics["decode_stalls"] = static_cast<double>(r.decode_stalls);
  out.metrics["control_overhead"] = ControlOverhead(reg, a);
  out.metrics["wedged_leases"] = r.zero_wedged_locks ? 0.0 : 1.0;
  out.metrics["reentries_pending"] = static_cast<double>(r.reentries_pending);
  out.metrics["unrooted_members"] = static_cast<double>(r.unrooted_members);
  out.metrics["capacity_starved"] = static_cast<double>(r.capacity_starved);
  out.metrics["final_population"] = static_cast<double>(r.final_population);
  if (a == exp::Algorithm::kClique) {
    out.metrics["clique_starving_ratio"] = r.avg_starving_ratio;
    out.metrics["clique_local_recoveries"] =
        reg.CounterValue("clique.local_recoveries");
    out.metrics["clique_backbone_reattaches"] =
        reg.CounterValue("clique.backbone_reattaches");
  }
  observe.Export(r.incidents, &out);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace omcast;
  util::FlagSet flags;
  flags.Define("population", "150", "chaos-row steady-state member count")
      .Define("tree-population", "200", "first churn row size (2nd doubles)")
      .Define("tree-warmup", "900", "churn-row equilibration seconds")
      .Define("tree-measure", "1800", "churn-row measurement seconds")
      .Define("warmup", "300", "chaos-row equilibration seconds")
      .Define("stream", "90", "packet-level stream seconds per chaos cell")
      .Define("drain", "90", "post-stream drain seconds")
      .Define("reps", "2", "independent repetitions per cell");
  bench::DefineDriverFlags(flags, /*threads_default=*/"1");
  bench::DefineObservabilityFlags(flags, /*profile=*/false);
  if (!flags.Parse(argc, argv)) return 1;
  const bench::Driver driver = bench::ReadDriverFlags(flags);

  GridOptions opt;
  opt.population = flags.GetInt("population");
  opt.tree_population = flags.GetInt("tree-population");
  opt.tree_warmup_s = flags.GetDouble("tree-warmup");
  opt.tree_measure_s = flags.GetDouble("tree-measure");
  opt.warmup_s = flags.GetDouble("warmup");
  opt.stream_s = flags.GetDouble("stream");
  opt.drain_s = flags.GetDouble("drain");
  opt.observability = bench::ReadObservabilityFlags(flags, /*profile=*/false);

  std::cout << "=== bakeoff -- ROST/CER vs clustered overlay (clique) ===\n"
            << "chaos population: " << opt.population
            << "  churn sizes: " << opt.tree_population << "/"
            << 2 * opt.tree_population << "  seed: " << driver.seed << "\n\n";

  rnd::Rng topo_rng(driver.seed ^ 0xde62adULL);
  const net::Topology topo =
      net::Topology::Generate(net::SmallTopologyParams(), topo_rng);

  runner::GridSpec spec;
  spec.figure = "bakeoff";
  spec.title = "ROST/CER vs clustered overlay, shared seeds";
  spec.row_header = "scenario";
  spec.rows = {"churn_n" + std::to_string(opt.tree_population),
               "churn_n" + std::to_string(2 * opt.tree_population),
               "domain_kill", "flash_crowd", "isp_episode", "reconnect_storm"};
  spec.cols = {exp::AlgorithmLabel(exp::Algorithm::kRost),
               exp::AlgorithmLabel(exp::Algorithm::kClique)};
  spec.reps = flags.GetInt("reps");
  spec.headline_metric = "disruptions";
  spec.run = [&opt, &topo, &spec, &driver](const runner::CellContext& cell) {
    // Paired comparison: both protocol columns of a (row, rep) run on one
    // seed (the column label is pinned out of the derivation), so they see
    // identical arrivals, lifetimes, and failure schedules.
    const std::uint64_t shared_seed = runner::CellSeed(
        driver.seed, spec.figure, cell.row_label, "shared", cell.rep);
    return cell.row < kChurnRows ? RunChurnCell(opt, topo, cell, shared_seed)
                                 : RunChaosCell(opt, topo, cell, shared_seed);
  };

  // The manifest's phase lengths are the churn rows'.
  const auto [sink, status] = bench::RunGridBench(
      driver, spec, "bakeoff", opt.tree_warmup_s, opt.tree_measure_s);

  bench::PrintMetricTable(spec, sink, "disruptions", 3,
                          "disruptions per member (churn rows; Fig. 4)");
  bench::PrintMetricTable(spec, sink, "delay_ms", 1,
                          "service delay ms (churn rows; Fig. 7)");
  bench::PrintMetricTable(
      spec, sink, "stretch", 3,
      "delay stretch vs unicast optimum = 1.0 (churn rows; Fig. 8)");
  bench::PrintMetricTable(
      spec, sink, "control_overhead", 0,
      "control messages: ROST lock/switch traffic vs clique announcements");
  bench::PrintMetricTable(spec, sink, "starving_ratio", 4,
                          "starving-time ratio (chaos rows)");
  bench::PrintMetricTable(spec, sink, "degraded_time_fraction", 4,
                          "degraded-session time fraction (chaos rows)");
  bench::PrintMetricTable(spec, sink, "wedged_leases", 0,
                          "wedged leases (must be 0)");
  bench::PrintMetricTable(spec, sink, "reentries_pending", 0,
                          "re-entries unresolved after settle (must be 0)");
  bench::PrintMetricTable(spec, sink, "unrooted_members", 0,
                          "members still unrooted after settle (must be 0)");
  bench::PrintMetricTable(
      spec, sink, "capacity_starved", 1,
      "unplaceable members, tree full at audit (workload, not gated)");
  bench::PrintRecoveryCurveTable(
      spec, sink, "recovery.unrooted_members",
      "recovery curve: peak unrooted members / time back to zero");
  bench::PrintIncidentBreakdownTable(
      spec, sink, "disruption incidents: opened/reattached/recovered");
  bench::PrintIncidentPhaseTable(spec, sink, "reattach",
                                 "incident reattach latency p50/p99 (s)");

  // Health gate over the chaos rows, both protocols: a wedged lease, a
  // stranded orphan, or an unresolved re-entry fails the whole run.
  return bench::HealthGate(spec, sink, kChurnRows) ? status : 1;
}
