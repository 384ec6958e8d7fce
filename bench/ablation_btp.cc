// Ablation (beyond the paper): what does the bandwidth-TIME product buy
// over its parts? Runs ROST's switching machinery with three criteria:
//   * btp        -- the paper's rule (BTP + bandwidth guard),
//   * bandwidth  -- switch whenever the child has strictly more bandwidth
//                   (a distributed approximation of BO),
//   * age        -- switch whenever the child is strictly older (a
//                   distributed approximation of TO / longest-first).
// BTP should combine the bandwidth criterion's shallow tree with the age
// criterion's stable ancestors.
#include <iostream>

#include "bench_common.h"

namespace {

struct Criterion {
  const char* label;
  omcast::core::SwitchCriterion criterion;
};

constexpr Criterion kCriteria[] = {
    {"btp (paper)", omcast::core::SwitchCriterion::kBtp},
    {"bandwidth-only", omcast::core::SwitchCriterion::kBandwidthOnly},
    {"age-only", omcast::core::SwitchCriterion::kAgeOnly},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace omcast;
  util::FlagSet flags;
  bench::DefineCommonFlags(flags);
  if (!flags.Parse(argc, argv)) return 1;
  const bench::BenchEnv env = bench::MakeEnv(flags);
  bench::PrintHeader("Ablation -- ROST switching criterion", env);

  runner::GridSpec spec;
  spec.figure = "ablation_btp";
  spec.title = "ROST switching-criterion ablation";
  spec.row_header = "criterion";
  for (const Criterion& c : kCriteria) spec.rows.push_back(c.label);
  spec.cols = {"ROST"};
  spec.reps = env.reps;
  spec.headline_metric = "disruptions";
  spec.run = [&env](const runner::CellContext& cell) {
    exp::ScenarioConfig config = env.BaseConfig();
    config.population = env.focus_size;
    config.seed = cell.seed;
    config.rost.criterion = kCriteria[cell.row].criterion;
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
      "switching-criterion ablation (" + std::to_string(env.focus_size) +
          " members)");
  return status;
}
