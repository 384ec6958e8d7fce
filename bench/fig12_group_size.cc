// Fig. 12: average starving time ratio vs network size for recovery group
// sizes 1-4 (minimum-depth tree, CER recovery with MLC-selected groups,
// 10 pkt/s stream, 5 s playback buffer, 5 s detection + 10 s rejoin).
// Increasing the group from 1 to 3 should cut the ratio by about an order
// of magnitude.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace omcast;
  util::FlagSet flags;
  bench::DefineCommonFlags(flags);
  if (!flags.Parse(argc, argv)) return 1;
  const bench::BenchEnv env = bench::MakeEnv(flags);
  bench::PrintHeader("Fig. 12 -- avg starving time ratio vs group size", env);

  runner::GridSpec spec;
  spec.figure = "fig12_group_size";
  spec.title = "avg starving time ratio vs recovery group size";
  spec.row_header = "size";
  for (const int size : env.sizes) spec.rows.push_back(std::to_string(size));
  spec.cols = {"group=1", "group=2", "group=3", "group=4"};
  spec.reps = env.reps;
  spec.headline_metric = "starving_ratio";
  spec.run = [&env](const runner::CellContext& cell) {
    stream::StreamParams sp;
    sp.recovery_group_size = static_cast<int>(cell.col) + 1;
    exp::ScenarioConfig config = env.BaseConfig();
    config.population = env.sizes[cell.row];
    config.seed = cell.seed;
    return bench::StreamCellResult(exp::RunStreamScenario(
        env.Topo(), exp::Algorithm::kMinDepth, config, sp));
  };
  const auto [sink, status] = bench::RunGridBench(env, spec);

  bench::PrintMetricTable(spec, sink, "starving_ratio", 3,
                          "avg starving time ratio (%), min-depth tree + CER",
                          /*scale=*/100.0);
  return status;
}
