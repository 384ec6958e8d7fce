// Fig. 14: the combined system. ROST+CER (BTP tree, MLC groups, cooperative
// striped recovery) against the general scheme (minimum-depth tree, random
// recovery nodes, single-source repair), for recovery group sizes 1-3, with
// 95% confidence intervals across repetitions. The paper reports an 8-9x
// reduction, with ROST+CER at group size 1 already beating the baseline at
// group size 2.
#include <iostream>

#include "bench_common.h"

namespace {

struct Scheme {
  const char* label;
  omcast::exp::Algorithm algorithm;
  omcast::core::GroupSelection selection;
  omcast::core::RecoveryMode mode;
};

constexpr Scheme kSchemes[] = {
    {"min-depth + single-source", omcast::exp::Algorithm::kMinDepth,
     omcast::core::GroupSelection::kRandom,
     omcast::core::RecoveryMode::kSingleSource},
    {"ROST + CER", omcast::exp::Algorithm::kRost,
     omcast::core::GroupSelection::kMlc,
     omcast::core::RecoveryMode::kCooperative},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace omcast;
  util::FlagSet flags;
  bench::DefineCommonFlags(flags);
  if (!flags.Parse(argc, argv)) return 1;
  const bench::BenchEnv env = bench::MakeEnv(flags);
  bench::PrintHeader("Fig. 14 -- ROST+CER vs MinDepth+SingleSource", env);

  runner::GridSpec spec;
  spec.figure = "fig14_rost_cer";
  spec.title = "ROST+CER vs MinDepth+SingleSource";
  spec.row_header = "scheme";
  for (const Scheme& scheme : kSchemes) spec.rows.push_back(scheme.label);
  spec.cols = {"group=1", "group=2", "group=3"};
  spec.reps = env.reps;
  spec.headline_metric = "starving_ratio";
  spec.run = [&env](const runner::CellContext& cell) {
    const Scheme& scheme = kSchemes[cell.row];
    stream::StreamParams sp;
    sp.recovery_group_size = static_cast<int>(cell.col) + 1;
    sp.selection = scheme.selection;
    sp.mode = scheme.mode;
    exp::ScenarioConfig config = env.BaseConfig();
    config.population = env.focus_size;
    config.seed = cell.seed;
    return bench::StreamCellResult(
        exp::RunStreamScenario(env.Topo(), scheme.algorithm, config, sp));
  };
  const auto [sink, status] = bench::RunGridBench(env, spec);

  bench::PrintMetricTable(spec, sink, "starving_ratio", 3,
                          "avg starving time ratio (%) with 95% CI (" +
                              std::to_string(env.focus_size) + " members)",
                          /*scale=*/100.0, /*with_ci=*/true);
  return status;
}
