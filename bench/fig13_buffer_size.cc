// Fig. 13: average starving time ratio vs playback buffer size (5-30 s) for
// recovery group sizes 1-3 at the focus network size. A single recovery
// node needs a very deep buffer (~27 s) to reach the quality two nodes
// deliver with only 5 s.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace omcast;
  util::FlagSet flags;
  bench::DefineCommonFlags(flags);
  if (!flags.Parse(argc, argv)) return 1;
  const bench::BenchEnv env = bench::MakeEnv(flags);
  bench::PrintHeader("Fig. 13 -- avg starving time ratio vs buffer size", env);

  const std::vector<double> buffers = {5.0, 10.0, 15.0, 20.0, 25.0, 30.0};
  runner::GridSpec spec;
  spec.figure = "fig13_buffer_size";
  spec.title = "avg starving time ratio vs playback buffer size";
  spec.row_header = "buffer(s)";
  for (const double buffer : buffers)
    spec.rows.push_back(util::FormatDouble(buffer, 0));
  spec.cols = {"group=1", "group=2", "group=3"};
  spec.reps = env.reps;
  spec.headline_metric = "starving_ratio";
  spec.run = [&env, buffers](const runner::CellContext& cell) {
    stream::StreamParams sp;
    sp.recovery_group_size = static_cast<int>(cell.col) + 1;
    sp.buffer_s = buffers[cell.row];
    exp::ScenarioConfig config = env.BaseConfig();
    config.population = env.focus_size;
    config.seed = cell.seed;
    return bench::StreamCellResult(exp::RunStreamScenario(
        env.Topo(), exp::Algorithm::kMinDepth, config, sp));
  };
  const auto [sink, status] = bench::RunGridBench(env, spec);

  bench::PrintMetricTable(spec, sink, "starving_ratio", 3,
                          "avg starving time ratio (%), " +
                              std::to_string(env.focus_size) +
                              " members, min-depth tree + CER",
                          /*scale=*/100.0);
  return status;
}
