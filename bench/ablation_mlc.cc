// Ablation (beyond the paper): isolates the two CER ingredients on the same
// min-depth tree -- the recovery-group *selection* (MLC Algorithm 1 vs
// uniform random) and the repair *aggregation* (cooperative striping vs
// single source). The paper only reports the two corner combinations.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace omcast;
  util::FlagSet flags;
  bench::DefineCommonFlags(flags);
  flags.Define("group", "3", "recovery group size");
  if (!flags.Parse(argc, argv)) return 1;
  const bench::BenchEnv env = bench::MakeEnv(flags);
  bench::PrintHeader("Ablation -- CER ingredients (selection x aggregation)",
                     env);

  const int group = flags.GetInt("group");
  runner::GridSpec spec;
  spec.figure = "ablation_mlc";
  spec.title = "CER ingredient ablation (selection x aggregation)";
  spec.row_header = "selection";
  spec.rows = {"MLC", "random"};
  spec.cols = {"cooperative", "single"};
  spec.reps = env.reps;
  spec.headline_metric = "starving_ratio";
  spec.run = [&env, group](const runner::CellContext& cell) {
    stream::StreamParams sp;
    sp.recovery_group_size = group;
    sp.selection = cell.row == 0 ? core::GroupSelection::kMlc
                                 : core::GroupSelection::kRandom;
    sp.mode = cell.col == 0 ? core::RecoveryMode::kCooperative
                            : core::RecoveryMode::kSingleSource;
    exp::ScenarioConfig config = env.BaseConfig();
    config.population = env.focus_size;
    config.seed = cell.seed;
    return bench::StreamCellResult(exp::RunStreamScenario(
        env.Topo(), exp::Algorithm::kMinDepth, config, sp));
  };
  const auto [sink, status] = bench::RunGridBench(env, spec);

  util::Table table(
      {"selection", "aggregation", "starving(%)", "avg repair rate"});
  for (std::size_t row = 0; row < spec.rows.size(); ++row) {
    for (std::size_t col = 0; col < spec.cols.size(); ++col) {
      table.AddRow(
          {spec.rows[row], spec.cols[col],
           util::FormatDouble(
               100.0 * sink.Stat(row, col, "starving_ratio").mean(), 3),
           util::FormatDouble(sink.Stat(row, col, "recovery_rate").mean(),
                              3)});
    }
  }
  table.Print(std::cout, "CER ablation, group size " + std::to_string(group) +
                             ", " + std::to_string(env.focus_size) +
                             " members, min-depth tree");
  return status;
}
