// Figs. 4, 7, 8 and 10: four metrics of one tree-size sweep. The grid runs
// once -- rows are the steady-state sizes, columns the five
// tree-construction algorithms -- and every cell records the full
// tree-metric set, so all four tables describe the same simulated worlds.
//
// Fig. 4, avg streaming disruptions per node. Paper shape: minimum-depth
// and longest-first worst; relaxed BO better; relaxed TO better still;
// ROST best (36-57% below relaxed BO).
//
// Fig. 7, avg end-to-end service delay (ms along the overlay paths). ROST
// should be the best of the three distributed algorithms and within
// ~10-25% of the centralized relaxed-BO.
//
// Fig. 8, avg network stretch (overlay path delay / direct unicast delay):
// the same ordering as Fig. 7.
//
// Fig. 10, protocol overhead: the average number of reconnections the
// optimization mechanism imposes on a member during its lifetime.
// Minimum-depth and longest-first impose none by construction; ROST should
// stay far below one; the centralized relaxed BO/TO pay the most.
//
// The grid keeps the figure name "fig04_disruptions": it keys every cell
// seed and the --resume check, and names the results JSON.
#include <iostream>
#include <memory>

#include "bench_common.h"

namespace {

using namespace omcast;

// `env`, `observability` and `profiles` must outlive the spec; a non-empty
// `profiles` holds one slot per cell (--profile).
runner::GridSpec TreeSizeSweepSpec(const bench::BenchEnv& env,
                                   const bench::Observability& observability,
                                   bench::ProfileSlots* profiles) {
  runner::GridSpec spec;
  spec.figure = "fig04_disruptions";
  spec.title = "avg streaming disruptions per node";
  spec.row_header = "size";
  for (const int size : env.sizes) spec.rows.push_back(std::to_string(size));
  for (const exp::Algorithm a : exp::AllAlgorithms())
    spec.cols.push_back(exp::AlgorithmLabel(a));
  spec.reps = env.reps;
  spec.headline_metric = "disruptions";
  spec.run = [&env, &observability,
              profiles](const runner::CellContext& cell) {
    exp::ScenarioConfig config = env.BaseConfig();
    config.population = env.sizes[cell.row];
    config.seed = cell.seed;
    obs::SimProfiler* profiler = nullptr;
    if (!profiles->empty()) {
      (*profiles)[cell.index] = std::make_unique<obs::SimProfiler>();
      profiler = (*profiles)[cell.index].get();
    }
    bench::CellObservability observe(observability, cell, profiler);
    observe.Wire(&config);
    const exp::Algorithm a = exp::AllAlgorithms()[cell.col];
    const exp::TreeScenarioResult r = exp::RunTreeScenario(env.Topo(), a, config);
    runner::CellResult out = bench::TreeCellResult(r);
    observe.Export(r.incidents, &out);
    return out;
  };
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags;
  bench::DefineCommonFlags(flags);
  bench::DefineObservabilityFlags(flags, /*profile=*/true);
  if (!flags.Parse(argc, argv)) return 1;
  const bench::BenchEnv env = bench::MakeEnv(flags);
  const bench::Observability observability =
      bench::ReadObservabilityFlags(flags, /*profile=*/true);
  bench::PrintHeader("Fig. 4 -- avg streaming disruptions per node", env);

  bench::ProfileSlots profiles;
  const runner::GridSpec spec =
      TreeSizeSweepSpec(env, observability, &profiles);
  if (observability.profile) profiles.resize(spec.cell_count());
  const auto [sink, status] = bench::RunGridBench(env, spec);
  bench::PrintMetricTable(spec, sink, "disruptions", 3,
                          "avg disruptions per node (rows: steady-state size)");

  std::cout << "\n=== Fig. 7 -- avg end-to-end service delay (ms) ===\n";
  bench::PrintMetricTable(spec, sink, "delay_ms", 1,
                          "avg service delay in ms (rows: steady-state size)");
  std::cout << "\n=== Fig. 8 -- avg network stretch ===\n";
  bench::PrintMetricTable(spec, sink, "stretch", 2,
                          "avg stretch (rows: steady-state size)");
  std::cout
      << "\n=== Fig. 10 -- protocol overhead (reconnections per node) ===\n";
  bench::PrintMetricTable(
      spec, sink, "reconnections", 3,
      "avg optimization-induced reconnections per member lifetime");
  bench::PrintProfile(profiles);
  return status;
}
