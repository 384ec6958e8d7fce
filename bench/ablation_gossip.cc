// Ablation (beyond the paper): the harness normally models membership
// discovery as uniform sampling from the live population ("each node will
// know about a medium-sized subset of other nodes", Section 4.1). This
// bench validates that abstraction by re-running the ROST and min-depth
// scenarios over the *real* gossip protocol (bounded views, push-pull
// exchanges, stale entries) and comparing the headline metrics.
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "metrics/collectors.h"
#include "overlay/gossip.h"
#include "sim/simulator.h"

namespace {

using namespace omcast;

runner::CellResult RunOne(const net::Topology& topology,
                          exp::Algorithm algorithm, bool use_gossip,
                          const exp::ScenarioConfig& config) {
  sim::Simulator sim;
  overlay::Session session(sim, topology,
                           exp::MakeProtocol(algorithm, config.rost),
                           config.session, config.seed);
  std::unique_ptr<overlay::GossipService> gossip;
  if (use_gossip) {
    gossip = std::make_unique<overlay::GossipService>(
        session, overlay::GossipParams{}, config.seed ^ 0x90551B);
    session.SetMembershipOracle(gossip.get());
  }
  metrics::MemberOutcomes outcomes(session);
  metrics::TreeSnapshots snapshots(session, exp::kSnapshotIntervalS);
  const double t_end = config.warmup_s + config.measure_s;
  outcomes.SetWindow(config.warmup_s, t_end);
  snapshots.Start(config.warmup_s, t_end);
  session.Prepopulate(config.population);
  session.StartArrivals(config.population / rnd::kMeanLifetimeSeconds);
  sim.RunUntil(t_end);
  outcomes.HarvestAliveMembers();
  runner::CellResult out;
  out.metrics["disruptions"] = outcomes.disruptions().mean();
  out.metrics["delay_ms"] = snapshots.delay_ms().mean();
  out.metrics["reconnections"] = outcomes.reconnections().mean();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags;
  bench::DefineCommonFlags(flags);
  if (!flags.Parse(argc, argv)) return 1;
  const bench::BenchEnv env = bench::MakeEnv(flags);
  bench::PrintHeader("Ablation -- uniform sampling vs real gossip views", env);

  const exp::Algorithm algorithms[] = {exp::Algorithm::kMinDepth,
                                       exp::Algorithm::kRost};
  runner::GridSpec spec;
  spec.figure = "ablation_gossip";
  spec.title = "membership-discovery ablation";
  spec.row_header = "algorithm";
  for (const exp::Algorithm a : algorithms)
    spec.rows.push_back(exp::AlgorithmLabel(a));
  spec.cols = {"uniform", "gossip views"};
  spec.reps = env.reps;
  spec.headline_metric = "disruptions";
  spec.run = [&env, &algorithms](const runner::CellContext& cell) {
    exp::ScenarioConfig config = env.BaseConfig();
    config.population = env.focus_size;
    config.seed = cell.seed;
    return RunOne(env.Topo(), algorithms[cell.row],
                  /*use_gossip=*/cell.col == 1, config);
  };
  const auto [sink, status] = bench::RunGridBench(env, spec);

  util::Table table({"algorithm", "discovery", "disruptions/node", "delay(ms)",
                     "reconnects/node"});
  for (std::size_t row = 0; row < spec.rows.size(); ++row) {
    for (std::size_t col = 0; col < spec.cols.size(); ++col) {
      table.AddRow(
          {spec.rows[row], spec.cols[col],
           util::FormatDouble(sink.Stat(row, col, "disruptions").mean(), 3),
           util::FormatDouble(sink.Stat(row, col, "delay_ms").mean(), 1),
           util::FormatDouble(sink.Stat(row, col, "reconnections").mean(),
                              3)});
    }
  }
  table.Print(std::cout,
              "membership-discovery ablation (" +
                  std::to_string(env.focus_size) + " members)");
  std::cout << "\nIf the rows match within noise, the uniform-sampling "
               "abstraction used by the\nfigure benches is sound.\n";
  return status;
}
