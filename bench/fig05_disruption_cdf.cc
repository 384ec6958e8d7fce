// Fig. 5: CDF of the per-member disruption count in a network of the focus
// size (the paper's 8000-node instance), for the five algorithms, evaluated
// at the paper's 1,2,4,...,128 grid. Per-member samples are recorded per
// cell and pooled across repetitions.
#include <iostream>

#include "bench_common.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace omcast;
  util::FlagSet flags;
  bench::DefineCommonFlags(flags);
  if (!flags.Parse(argc, argv)) return 1;
  const bench::BenchEnv env = bench::MakeEnv(flags);
  bench::PrintHeader("Fig. 5 -- CDF of per-member disruption count", env);

  runner::GridSpec spec;
  spec.figure = "fig05_disruption_cdf";
  spec.title = "CDF of per-member disruption count";
  spec.row_header = "size";
  spec.rows = {std::to_string(env.focus_size)};
  for (const exp::Algorithm a : exp::AllAlgorithms())
    spec.cols.push_back(exp::AlgorithmLabel(a));
  spec.reps = env.reps;
  spec.headline_metric = "disruptions";
  spec.run = [&env](const runner::CellContext& cell) {
    exp::ScenarioConfig config = env.BaseConfig();
    config.population = env.focus_size;
    config.seed = cell.seed;
    const exp::Algorithm a = exp::AllAlgorithms()[cell.col];
    return bench::TreeCellResult(exp::RunTreeScenario(env.Topo(), a, config),
                                 /*want_samples=*/true);
  };
  const auto [sink, status] = bench::RunGridBench(env, spec);

  const std::vector<double> grid = {1, 2, 4, 8, 16, 32, 64, 128};
  std::vector<std::string> header = {"disruptions<="};
  header.insert(header.end(), spec.cols.begin(), spec.cols.end());
  util::Table table(std::move(header));

  std::vector<std::vector<double>> cdfs;
  for (std::size_t col = 0; col < spec.cols.size(); ++col)
    cdfs.push_back(
        util::CdfAt(sink.PooledSamples(0, col, "disruptions"), grid));
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::vector<double> row;
    for (const auto& cdf : cdfs) row.push_back(100.0 * cdf[i]);
    table.AddRow(util::FormatDouble(grid[i], 0), row, 1);
  }
  table.Print(std::cout, "cumulative % of members with <= X disruptions (" +
                             std::to_string(env.focus_size) + " members)");
  return status;
}
