// Figs. 6 and 9: one "typical member" (moderate bandwidth, long lifetime)
// joins once the network is in steady state and is followed for
// --trace-minutes. Both figures read the same trace of each cell.
//
// Fig. 6, the member's accumulated streaming disruptions over time. Under
// ROST the curve's slope should flatten as the member ages and climbs;
// under the others it should not.
//
// Fig. 9, the member's service delay over time. Under ROST (and relaxed TO)
// it should shrink as the member climbs; under the others it fluctuates
// without converging.
//
// The grid keeps the figure name "fig06_member_disruptions": it keys every
// cell seed and the --resume check, and names the results JSON.
#include <iostream>

#include "bench_common.h"

namespace {

using namespace omcast;

// One row per 30-minute mark of the trace, one column per algorithm;
// `value(col, minute)` gives the entry.
template <typename Value>
void PrintTraceTable(const runner::GridSpec& spec, double trace_s,
                     const Value& value, const std::string& title) {
  std::vector<std::string> header = {"minute"};
  header.insert(header.end(), spec.cols.begin(), spec.cols.end());
  util::Table table(std::move(header));
  for (double minute = 0.0; minute <= trace_s / 60.0 + 1e-9; minute += 30.0) {
    std::vector<double> row;
    for (std::size_t col = 0; col < spec.cols.size(); ++col)
      row.push_back(value(col, minute));
    table.AddRow(util::FormatDouble(minute, 0), row, 1);
  }
  table.Print(std::cout, title);
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags;
  bench::DefineCommonFlags(flags);
  flags.Define("trace-minutes", "300", "how long to follow the member");
  flags.Define("member-bw", "2.0", "tagged member bandwidth");
  if (!flags.Parse(argc, argv)) return 1;
  const bench::BenchEnv env = bench::MakeEnv(flags);
  bench::PrintHeader("Fig. 6 -- cumulative disruptions of a typical member",
                     env);

  const double trace_s = flags.GetDouble("trace-minutes") * 60.0;
  const double member_bw = flags.GetDouble("member-bw");

  // One tagged member per cell (as in the paper); reps take the edge off
  // the single-member anecdote. The trace is recorded as (t_min, value)
  // series in the cell result. The delay is sampled every
  // exp::kSnapshotIntervalS (300 s).
  runner::GridSpec spec;
  spec.figure = "fig06_member_disruptions";
  spec.title = "cumulative disruptions of a typical member";
  spec.row_header = "size";
  spec.rows = {std::to_string(env.focus_size)};
  for (const exp::Algorithm a : exp::AllAlgorithms())
    spec.cols.push_back(exp::AlgorithmLabel(a));
  spec.reps = env.reps;
  spec.headline_metric = "final_disruptions";
  spec.run = [&env, trace_s, member_bw](const runner::CellContext& cell) {
    exp::ScenarioConfig config = env.BaseConfig();
    config.population = env.focus_size;
    config.seed = cell.seed;
    const exp::Algorithm a = exp::AllAlgorithms()[cell.col];
    const exp::TraceResult trace = exp::RunMemberTraceScenario(
        env.Topo(), a, config, member_bw, trace_s + 600.0, trace_s);
    runner::CellResult out;
    auto& disruptions = out.series["cum_disruptions"];
    for (const exp::TracePoint& p : trace.cumulative_disruptions)
      disruptions.emplace_back(p.t_min, p.v);
    auto& delay = out.series["delay_ms"];
    for (const exp::TracePoint& p : trace.delay_ms)
      delay.emplace_back(p.t_min, p.v);
    out.metrics["final_disruptions"] =
        disruptions.empty() ? 0.0 : disruptions.back().second;
    out.metrics["final_delay_ms"] = delay.empty() ? 0.0 : delay.back().second;
    return out;
  };
  const auto [sink, status] = bench::RunGridBench(env, spec);

  // Each cumulative count, averaged across reps.
  PrintTraceTable(
      spec, trace_s,
      [&](std::size_t col, double minute) {
        double sum = 0.0;
        for (int rep = 0; rep < spec.reps; ++rep) {
          const auto& result = sink.Cell(0, col, rep).result;
          const auto it = result.series.find("cum_disruptions");
          double count = 0.0;
          if (it != result.series.end())
            for (const auto& [t_min, v] : it->second)
              if (t_min <= minute) count = v;
          sum += count;
        }
        return sum / static_cast<double>(spec.reps);
      },
      "cumulative disruptions since the tagged member joined");
  std::cout << "\n(ROST's slope should flatten as the member ages and climbs "
               "the tree.)\n";

  std::cout << "\n=== Fig. 9 -- service delay of a typical member (ms) ===\n";
  // The latest delay sample at or before each mark, averaged across the
  // reps that have one.
  PrintTraceTable(
      spec, trace_s,
      [&](std::size_t col, double minute) {
        double sum = 0.0;
        int counted = 0;
        for (int rep = 0; rep < spec.reps; ++rep) {
          const auto& result = sink.Cell(0, col, rep).result;
          const auto it = result.series.find("delay_ms");
          double delay = 0.0;
          if (it != result.series.end())
            for (const auto& [t_min, v] : it->second)
              if (t_min <= minute + 1e-9) delay = v;
          if (delay > 0.0) {
            sum += delay;
            ++counted;
          }
        }
        return counted > 0 ? sum / counted : 0.0;
      },
      "tagged member's service delay (ms) over time");
  return status;
}
