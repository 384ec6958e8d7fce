// Fig. 11: effect of ROST's switching interval (the paper sweeps 480, 960,
// 1200, 1800 s at 8000 members) on the four metrics. A smaller interval
// gives the overlay more adjustment opportunities: fewer disruptions and a
// smaller delay/stretch, at the cost of more reconnections -- which stay
// small (< ~0.2 per member) even at the smallest interval.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace omcast;
  util::FlagSet flags;
  bench::DefineCommonFlags(flags);
  if (!flags.Parse(argc, argv)) return 1;
  const bench::BenchEnv env = bench::MakeEnv(flags);
  bench::PrintHeader("Fig. 11 -- effect of the ROST switching interval", env);

  const std::vector<int> intervals = {480, 960, 1200, 1800};
  runner::GridSpec spec;
  spec.figure = "fig11_switch_interval";
  spec.title = "effect of the ROST switching interval";
  spec.row_header = "interval(s)";
  for (const int interval : intervals)
    spec.rows.push_back(std::to_string(interval));
  spec.cols = {"ROST"};
  spec.reps = env.reps;
  spec.headline_metric = "disruptions";
  spec.run = [&env, intervals](const runner::CellContext& cell) {
    exp::ScenarioConfig config = env.BaseConfig();
    config.population = env.focus_size;
    config.seed = cell.seed;
    config.rost.switching_interval_s = static_cast<double>(intervals[cell.row]);
    return bench::TreeCellResult(
        exp::RunTreeScenario(env.Topo(), exp::Algorithm::kRost, config));
  };
  const auto [sink, status] = bench::RunGridBench(env, spec);

  bench::PrintMetricColumnsTable(
      spec, sink, /*col=*/0,
      {{"disruptions/node", "disruptions", 3},
       {"delay(ms)", "delay_ms", 3},
       {"stretch", "stretch", 3},
       {"reconnects/node", "reconnections", 3}},
      "ROST metrics vs switching interval (" +
          std::to_string(env.focus_size) + " members)");
  return status;
}
