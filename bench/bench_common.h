// The one harness every grid bench runs through, built on the src/runner
// experiment-orchestration engine.
//
// Every bench declares its figure as a runner::GridSpec -- rows (x-axis
// points) x columns (curves) x repetitions -- and hands it to
// RunGridBench(), which spreads the independent cells over --threads
// threads through runner::RunGrid's cell cursor, hands all of them the
// bench's one read-only topology, derives each cell's seed from the cell
// identity (never `seed + rep`), aggregates mean/stddev/95%-CI into the
// ResultsSink the table printers below read, and writes it as a versioned
// JSON results file (see src/runner/results.h for the schema).
//
// Driver flags, on every grid bench (DefineDriverFlags):
//   --seed=N              base RNG seed (per-cell seeds are hashed from it).
//   --threads=N           worker threads (0 = all hardware threads); absent
//                         on scale_sweep, whose cells run one at a time.
//   --out=DIR             write DIR/<figure>.json (empty: no JSON output).
//   --resume=true         reuse matching cells from DIR/<figure>.json.
//   --progress=true|false per-cell progress + ETA lines on stderr.
//   --log-level=LEVEL     debug|info|warn|error (default warn).
//
// Figure flags, on the BenchEnv benches (DefineCommonFlags, which also
// registers the driver flags):
//   --scale=small|paper   both use the paper's 15,600-host GT-ITM topology;
//                         small (default) sweeps steady-state sizes
//                         {2000, 3500, 5000} so the whole suite runs in
//                         minutes, paper sweeps the exact Section 5 sizes
//                         {2000, 5000, 8000, 11000, 14000}.
//   --reps=N              independent repetitions per data point.
//   --sizes=a,b,c         override the steady-state size sweep.
//   --warmup=S --measure=S  override the phase lengths (seconds).
//
// Cell observability flags, on fig04_disruptions, bakeoff and
// degraded_grid (DefineObservabilityFlags):
//   --timeseries=S        recovery-curve sampling window in sim seconds
//                         (0 disables); curves land in each cell's
//                         schema-v3 "timeseries" block.
//   --trace-stream=DIR    per-cell streaming trace JSONL under DIR
//                         (obs::JsonlStreamSink; empty disables).
//   --profile=true        fig04_disruptions only: a per-cell
//                         obs::SimProfiler in a ProfileSlots entry, folded
//                         in grid order and printed after the tables.
#pragma once

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario.h"
#include "net/topology.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "runner/results.h"
#include "runner/runner.h"
#include "util/flags.h"
#include "util/log.h"
#include "util/table.h"

namespace omcast::bench {

// ---------------------------------------------------------------------------
// The driver: how a bench turns its flags into a grid run and a results file.
// ---------------------------------------------------------------------------

struct Driver {
  std::uint64_t seed = 1;
  int threads = 1;  // a bench without --threads runs one cell at a time
  bool progress = true;
  bool resume = false;
  std::string out_dir;
};

// Registers the driver flags on `flags`; --threads only when
// `threads_default` is non-null.
inline void DefineDriverFlags(util::FlagSet& flags,
                              const char* threads_default) {
  flags.Define("seed", "1", "base RNG seed")
      .Define("out", "", "directory for <figure>.json results (empty: none)")
      .Define("resume", "false", "reuse matching cells from --out JSON")
      .Define("progress", "true", "per-cell progress/ETA lines on stderr")
      .Define("log-level", "warn", "debug | info | warn | error");
  if (threads_default != nullptr)
    flags.Define("threads", threads_default,
                 "worker threads (0 = hardware concurrency)");
}

// Reads the driver flags back from parsed `flags` and applies --log-level
// (an unknown level keeps the current one and warns). `threads_flag` says
// whether DefineDriverFlags registered --threads.
inline Driver ReadDriverFlags(const util::FlagSet& flags,
                              bool threads_flag = true) {
  const std::string level = flags.GetString("log-level");
  if (level == "debug") util::SetLogLevel(util::LogLevel::kDebug);
  else if (level == "info") util::SetLogLevel(util::LogLevel::kInfo);
  else if (level == "warn") util::SetLogLevel(util::LogLevel::kWarn);
  else if (level == "error") util::SetLogLevel(util::LogLevel::kError);
  else
    std::cerr << "unknown --log-level '" << level
              << "' (want debug|info|warn|error); keeping current level\n";
  Driver driver;
  driver.seed = flags.GetU64("seed");
  if (threads_flag) driver.threads = flags.GetInt("threads");
  driver.progress = flags.GetBool("progress");
  driver.resume = flags.GetBool("resume");
  driver.out_dir = flags.GetString("out");
  return driver;
}

// Git SHA for the run manifest; the sweep scripts export OMCAST_GIT_SHA.
inline std::string GitSha() {
  const char* sha = std::getenv("OMCAST_GIT_SHA");
  return sha != nullptr && sha[0] != '\0' ? sha : "unknown";
}

// A finished grid: the results the tables read, and the exit status the
// bench returns -- 1 when --out was set and the results file could not be
// written.
struct GridRun {
  runner::ResultsSink sink;
  int status = 0;
};

// Executes the grid on the runner and wraps the outcomes in a ResultsSink
// whose manifest carries `scale`, `warmup_s` and `measure_s`. With --out,
// writes DIR/<figure>.json before any table is printed (and, with --resume,
// first reuses matching cells from a previous file at that path).
inline GridRun RunGridBench(const Driver& driver, const runner::GridSpec& spec,
                            const std::string& scale, double warmup_s,
                            double measure_s) {
  runner::RunnerOptions options;
  options.threads = driver.threads;
  options.base_seed = driver.seed;
  options.progress = driver.progress;

  const std::filesystem::path out_path =
      driver.out_dir.empty()
          ? std::filesystem::path{}
          : std::filesystem::path(driver.out_dir) / (spec.figure + ".json");
  runner::Json resume_doc;
  if (driver.resume && !driver.out_dir.empty()) {
    std::ifstream in(out_path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      std::string error;
      resume_doc = runner::Json::Parse(buf.str(), &error);
      if (resume_doc.is_object()) {
        options.resume = &resume_doc;
      } else {
        std::cerr << "[" << spec.figure << "] ignoring unreadable resume file "
                  << out_path << ": " << error << "\n";
      }
    }
  }

  runner::GridRunSummary summary = runner::RunGrid(spec, options);
  runner::RunInfo info;
  info.scale = scale;
  info.git_sha = GitSha();
  info.base_seed = driver.seed;
  info.warmup_s = warmup_s;
  info.measure_s = measure_s;
  GridRun run{runner::ResultsSink(spec, info, std::move(summary)), 0};

  if (!driver.out_dir.empty()) {
    std::filesystem::create_directories(driver.out_dir);
    if (!run.sink.WriteJson(out_path.string())) {
      std::cerr << "[" << spec.figure << "] FAILED to write " << out_path
                << "\n";
      run.status = 1;
    } else {
      std::cerr << "[" << spec.figure << "] wrote " << out_path << " ("
                << run.sink.summary().executed << " cells run, "
                << run.sink.summary().resumed << " resumed, "
                << run.sink.summary().threads << " threads, "
                << util::FormatDouble(run.sink.summary().wall_ms / 1000.0, 1)
                << "s)\n";
    }
  }
  return run;
}

// ---------------------------------------------------------------------------
// The figure benches' environment: scale, sizes, phases and topology.
// ---------------------------------------------------------------------------

struct BenchEnv {
  Driver driver;
  bool paper_scale = false;
  int reps = 1;
  double warmup_s = 0.0;
  double measure_s = 0.0;
  // The steady-state sizes of the tree-size sweep (Figs. 4, 7, 8 and 10,
  // all printed by bench/fig04_disruptions) and of Fig. 12.
  std::vector<int> sizes;
  // The single-size experiments (Figs. 5, 6/9, 11, 13, 14 and the
  // ablations: the paper's "8000").
  int focus_size = 0;
  // The paper's topology, generated by MakeEnv; cells on every runner
  // thread read it concurrently, and nothing writes it after.
  std::unique_ptr<const net::Topology> topology;

  const net::Topology& Topo() const { return *topology; }
  const char* ScaleLabel() const { return paper_scale ? "paper" : "small"; }

  exp::ScenarioConfig BaseConfig() const {
    exp::ScenarioConfig c;
    c.warmup_s = warmup_s;
    c.measure_s = measure_s;
    c.seed = driver.seed;  // overwritten per cell with the derived cell seed
    return c;
  }
};

// Registers the driver flags (--threads defaults to all hardware threads)
// and the figure flags on `flags`.
inline void DefineCommonFlags(util::FlagSet& flags) {
  DefineDriverFlags(flags, /*threads_default=*/"0");
  flags.Define("scale", "small", "small | paper (Section 5 sizes)")
      .Define("reps", "3", "independent repetitions averaged per point")
      .Define("sizes", "", "override size sweep, e.g. 500,1000 (empty: scale default)")
      .Define("warmup", "-1", "warm-up seconds (-1: scale default)")
      .Define("measure", "-1", "measurement seconds (-1: scale default)");
}

// Builds the environment from parsed flags and generates its topology.
inline BenchEnv MakeEnv(const util::FlagSet& flags) {
  BenchEnv env;
  env.driver = ReadDriverFlags(flags);
  const std::string scale = flags.GetString("scale");
  if (scale != "small" && scale != "paper") {
    std::cerr << "unknown --scale '" << scale << "' (small|paper)\n";
    std::exit(1);
  }
  env.paper_scale = scale == "paper";
  env.reps = flags.GetInt("reps");
  env.warmup_s = env.paper_scale ? 7200.0 : 5400.0;
  env.measure_s = 3600.0;
  env.sizes = env.paper_scale ? std::vector<int>{2000, 5000, 8000, 11000, 14000}
                              : std::vector<int>{2000, 3500, 5000};
  if (!flags.GetString("sizes").empty()) env.sizes = flags.GetIntList("sizes");
  env.focus_size = env.paper_scale ? 8000 : 2000;
  rnd::Rng topo_rng(env.driver.seed ^ 0x70706fULL);
  env.topology = std::make_unique<const net::Topology>(
      net::Topology::Generate(net::PaperTopologyParams(), topo_rng));
  if (flags.GetDouble("warmup") >= 0.0) env.warmup_s = flags.GetDouble("warmup");
  if (flags.GetDouble("measure") >= 0.0)
    env.measure_s = flags.GetDouble("measure");
  return env;
}

inline void PrintHeader(const std::string& figure, const BenchEnv& env) {
  std::cout << "=== " << figure << " ===\n"
            << "scale: " << env.ScaleLabel()
            << "  topology: " << env.Topo().num_stub_nodes()
            << " hosts  warmup: " << env.warmup_s
            << "s  measure: " << env.measure_s << "s  seed: " << env.driver.seed
            << "  reps: " << env.reps << "\n\n";
}

inline GridRun RunGridBench(const BenchEnv& env, const runner::GridSpec& spec) {
  return RunGridBench(env.driver, spec, env.ScaleLabel(), env.warmup_s,
                      env.measure_s);
}

// ---------------------------------------------------------------------------
// Per-cell observability: registry, recovery curves, incidents, streaming
// traces and the dispatch profile.
// ---------------------------------------------------------------------------

// The values of the cell observability flags.
struct Observability {
  double timeseries_window_s = 5.0;  // 0 disables recovery-curve sampling
  std::string trace_dir;             // empty: no streaming trace
  bool profile = false;
};

// Registers --timeseries and --trace-stream on `flags`, and --profile when
// `profile` is set.
inline void DefineObservabilityFlags(util::FlagSet& flags, bool profile) {
  flags.Define("timeseries", "5",
               "recovery-curve sampling window seconds (0 = off)")
      .Define("trace-stream", "",
              "directory for per-cell streaming trace JSONL (empty: off)");
  if (profile)
    flags.Define("profile", "false",
                 "profile simulator dispatch (per-tag counts/wall-time)");
}

// Reads them back from parsed `flags`; `profile` as given to
// DefineObservabilityFlags.
inline Observability ReadObservabilityFlags(const util::FlagSet& flags,
                                            bool profile) {
  Observability o;
  o.timeseries_window_s = flags.GetDouble("timeseries");
  o.trace_dir = flags.GetString("trace-stream");
  o.profile = profile && flags.GetBool("profile");
  return o;
}

// Copies every obs::TimeSeries registered in `reg` into the cell's
// schema-v3 "timeseries" block (dense points, window width, flavor).
inline void ExportTimeSeries(const obs::Registry& reg,
                             runner::CellResult* out) {
  for (const auto& [name, ts] : reg.series()) {
    runner::CellResult::SeriesSnapshot snap;
    snap.kind = static_cast<int>(ts.kind());
    snap.window_s = ts.window_s();
    const std::vector<obs::TimeSeries::Point> points = ts.Points();
    snap.points.reserve(points.size());
    for (const obs::TimeSeries::Point& p : points)
      snap.points.emplace_back(p.t, p.value);
    out->timeseries[name] = std::move(snap);
  }
}

// Optional per-cell streaming trace export (--trace-stream=DIR): a
// bounded-ring tracer with a JsonlStreamSink writing the cell's FULL event
// history to DIR/<figure>.<row>.<col>.rep<N>.trace.jsonl -- the sink sees
// every emission before ring eviction, so nothing is lost on long runs.
// tracer() is null when streaming is off.
class CellTraceStream {
 public:
  CellTraceStream(const std::string& dir, const runner::CellContext& cell) {
    if (dir.empty()) return;
    std::filesystem::create_directories(dir);
    const std::string name = Sanitize(cell.figure) + "." +
                             Sanitize(cell.row_label) + "." +
                             Sanitize(cell.col_label) + ".rep" +
                             std::to_string(cell.rep) + ".trace.jsonl";
    out_.open(std::filesystem::path(dir) / name);
    if (!out_) {
      std::cerr << "[trace-stream] FAILED to open " << dir << "/" << name
                << "; cell runs untraced\n";
      return;
    }
    tracer_.emplace();
    sink_.emplace(out_);
    tracer_->AddSink(&*sink_);
  }
  ~CellTraceStream() {
    if (tracer_) tracer_->RemoveSink(&*sink_);
  }
  CellTraceStream(const CellTraceStream&) = delete;
  CellTraceStream& operator=(const CellTraceStream&) = delete;

  obs::Tracer* tracer() { return tracer_ ? &*tracer_ : nullptr; }

 private:
  // Row/col labels may hold characters awkward in filenames ('%', '/', ...).
  static std::string Sanitize(const std::string& s) {
    std::string t = s;
    for (char& c : t)
      if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' &&
          c != '_' && c != '.')
        c = '_';
    return t;
  }

  std::ofstream out_;
  std::optional<obs::Tracer> tracer_;
  std::optional<obs::JsonlStreamSink> sink_;
};

// One cell's observability. Wire() points the five observability fields of
// an exp::ScenarioConfig or exp::ChaosConfig (the two name them alike) at
// this cell's registry, --trace-stream tracer and `profiler` (the cell's
// --profile slot, or null), sets the --timeseries window and turns incident
// analysis on. After the run, Export() copies the registry, the incidents
// and the recovery curves into the cell's results (schema v3). The profile
// stays in its slot: it is wall clock, so it never enters results or
// digests.
class CellObservability {
 public:
  CellObservability(const Observability& options,
                    const runner::CellContext& cell,
                    obs::SimProfiler* profiler = nullptr)
      : options_(options), trace_(options.trace_dir, cell),
        profiler_(profiler) {}

  template <typename Config>
  void Wire(Config* config) {
    config->tracer = trace_.tracer();
    config->registry = &registry_;
    config->profiler = profiler_;
    config->timeseries_window_s = options_.timeseries_window_s;
    config->incident_analysis = true;
  }

  const obs::Registry& registry() const { return registry_; }

  void Export(const std::map<std::string, double>& incidents,
              runner::CellResult* out) const {
    out->registry = registry_.Flatten();
    out->incidents = incidents;
    ExportTimeSeries(registry_, out);
  }

 private:
  const Observability& options_;
  obs::Registry registry_;
  CellTraceStream trace_;
  obs::SimProfiler* profiler_;
};

// --profile's per-cell profilers, indexed by runner::CellContext::index.
// The bench sizes the slots before the grid runs and each cell fills only
// its own, so they need no lock. Empty when --profile is off; a resumed
// cell never runs and leaves its slot null. (Heap slots, not
// std::optional: g++ 12 reports a false -Wmaybe-uninitialized inside
// std::optional<SimProfiler>::emplace under the sanitizer flags.)
using ProfileSlots = std::vector<std::unique_ptr<obs::SimProfiler>>;

// Folds the filled slots in grid order into the first of them and prints
// the one table. Call it after RunGrid has returned, when no cell writes a
// slot any more.
inline void PrintProfile(ProfileSlots& profiles) {
  if (profiles.empty()) return;
  obs::SimProfiler* total = nullptr;
  for (const std::unique_ptr<obs::SimProfiler>& profile : profiles) {
    if (!profile) continue;
    if (total) total->MergeFrom(*profile);
    else total = profile.get();
  }
  if (!total || total->events() == 0) {
    std::cout << "\n(profile: no simulator events recorded)\n";
    return;
  }
  std::cout << "\n" << total->FormatTable();
}

// ---------------------------------------------------------------------------
// Cell-result adapters for the scenario runners.
// ---------------------------------------------------------------------------

inline runner::CellResult TreeCellResult(const exp::TreeScenarioResult& r,
                                         bool want_samples = false) {
  runner::CellResult out;
  out.metrics["disruptions"] = r.avg_disruptions;
  out.metrics["reconnections"] = r.avg_reconnections;
  out.metrics["delay_ms"] = r.avg_delay_ms;
  out.metrics["stretch"] = r.avg_stretch;
  out.metrics["depth"] = r.avg_depth;
  out.metrics["population"] = r.avg_population;
  out.metrics["qualifying_members"] = r.qualifying_members;
  if (r.rost_switches >= 0) {
    out.metrics["rost_switches"] = static_cast<double>(r.rost_switches);
    out.metrics["rost_lock_conflicts"] =
        static_cast<double>(r.rost_lock_conflicts);
  }
  if (want_samples) out.samples["disruptions"] = r.disruption_samples;
  return out;
}

inline runner::CellResult StreamCellResult(const exp::StreamScenarioResult& r) {
  runner::CellResult out;
  out.metrics["starving_ratio"] = r.avg_starving_ratio;
  out.metrics["members"] = r.members;
  out.metrics["outages"] = static_cast<double>(r.outages);
  out.metrics["recovery_rate"] = r.avg_recovery_rate;
  return out;
}

// The chaos health gate over rows first_row.. of the grid: every cell must
// end with no wedged lease, no unresolved re-entry and no stranded orphan.
// Names each unhealthy cell on stderr; false when any was.
inline bool HealthGate(const runner::GridSpec& spec,
                       const runner::ResultsSink& sink,
                       std::size_t first_row = 0) {
  bool healthy = true;
  for (std::size_t row = first_row; row < spec.rows.size(); ++row)
    for (std::size_t col = 0; col < spec.cols.size(); ++col)
      for (const char* metric :
           {"wedged_leases", "reentries_pending", "unrooted_members"})
        if (sink.Stat(row, col, metric).mean() != 0.0) {
          std::cerr << "[" << spec.figure << "] unhealthy cell: "
                    << spec.rows[row] << " / " << spec.cols[col] << " ("
                    << metric << ")\n";
          healthy = false;
        }
  if (!healthy)
    std::cerr << "[" << spec.figure
              << "] HEALTH GATE FAILED: wedged leases, stranded orphans, or "
                 "unresolved re-entries\n";
  return healthy;
}

// ---------------------------------------------------------------------------
// Table renderers over the aggregated results.
// ---------------------------------------------------------------------------

// The rows x cols table of the grid, its (row, col) entry given by
// `entry(row, col)`.
template <typename Entry>
void PrintGridTable(const runner::GridSpec& spec, const std::string& title,
                    const Entry& entry) {
  std::vector<std::string> header = {spec.row_header};
  header.insert(header.end(), spec.cols.begin(), spec.cols.end());
  util::Table table(std::move(header));
  for (std::size_t row = 0; row < spec.rows.size(); ++row) {
    std::vector<std::string> cells = {spec.rows[row]};
    for (std::size_t col = 0; col < spec.cols.size(); ++col)
      cells.push_back(entry(row, col));
    table.AddRow(std::move(cells));
  }
  table.Print(std::cout, title);
}

// rows x cols of one metric's mean (scaled, e.g. 100.0 turns a ratio into
// a percentage). `with_ci` appends the 95% half-width as "m +-c".
inline void PrintMetricTable(const runner::GridSpec& spec,
                             const runner::ResultsSink& sink,
                             const std::string& metric, int precision,
                             const std::string& title, double scale = 1.0,
                             bool with_ci = false) {
  PrintGridTable(spec, title, [&](std::size_t row, std::size_t col) {
    const util::RunningStat stat = sink.Stat(row, col, metric);
    std::string cell = util::FormatDouble(scale * stat.mean(), precision);
    if (with_ci)
      cell += " +-" +
              util::FormatDouble(scale * stat.ci95_half_width(), precision);
    return cell;
  });
}

struct MetricColumn {
  std::string header;
  std::string metric;
  int precision = 3;
  double scale = 1.0;
};

// Mean of one incidents-block key across the reps of (row, col); cells
// missing the key contribute nothing, and 0 is returned when none have it.
inline double IncidentStat(const runner::GridSpec& spec,
                           const runner::ResultsSink& sink, std::size_t row,
                           std::size_t col, const std::string& key) {
  util::RunningStat stat;
  for (int rep = 0; rep < spec.reps; ++rep) {
    const auto& inc = sink.Cell(row, col, rep).result.incidents;
    if (const auto it = inc.find(key); it != inc.end()) stat.Add(it->second);
  }
  return stat.count() > 0 ? stat.mean() : 0.0;
}

// rows x cols incident-lifecycle breakdown: "opened/reattached/recovered"
// counts (mean over reps) from each cell's incidents block.
inline void PrintIncidentBreakdownTable(const runner::GridSpec& spec,
                                        const runner::ResultsSink& sink,
                                        const std::string& title) {
  PrintGridTable(spec, title, [&](std::size_t row, std::size_t col) {
    const auto count = [&](const std::string& key) {
      return util::FormatDouble(IncidentStat(spec, sink, row, col, key), 1);
    };
    return count("incident.count") + "/" + count("incident.reattached") +
           "/" + count("incident.recovered");
  });
}

// rows x cols of one incident phase's latency: "p50/p99" in seconds (mean
// over the reps that observed the phase; "-" when none did).
inline void PrintIncidentPhaseTable(const runner::GridSpec& spec,
                                    const runner::ResultsSink& sink,
                                    const std::string& phase,
                                    const std::string& title) {
  const std::string base = "incident.phase." + phase;
  PrintGridTable(spec, title,
                 [&](std::size_t row, std::size_t col) -> std::string {
                   const auto stat = [&](const std::string& key) {
                     return IncidentStat(spec, sink, row, col, base + key);
                   };
                   if (stat(".count") <= 0.0) return "-";
                   return util::FormatDouble(stat(".p50_s"), 2) + "/" +
                          util::FormatDouble(stat(".p99_s"), 2);
                 });
}

// rows x cols summary of one recovery curve from the cells' timeseries
// blocks: "peak / drain", where peak is the curve's maximum value and drain
// is how long after that peak it first returned to zero ("-" when it never
// did within the sampled range). Means over reps; reps that never drain are
// excluded from the drain mean.
inline void PrintRecoveryCurveTable(const runner::GridSpec& spec,
                                    const runner::ResultsSink& sink,
                                    const std::string& series,
                                    const std::string& title,
                                    int precision = 1) {
  PrintGridTable(spec, title, [&](std::size_t row,
                                  std::size_t col) -> std::string {
    util::RunningStat peak_stat;
    util::RunningStat drain_stat;
    for (int rep = 0; rep < spec.reps; ++rep) {
      const auto& ts = sink.Cell(row, col, rep).result.timeseries;
      const auto it = ts.find(series);
      if (it == ts.end() || it->second.points.empty()) continue;
      double peak = 0.0;
      double peak_t = 0.0;
      for (const auto& [t, v] : it->second.points)
        if (v > peak) {
          peak = v;
          peak_t = t;
        }
      peak_stat.Add(peak);
      if (peak <= 0.0) {
        drain_stat.Add(0.0);  // never rose: drained from the start
        continue;
      }
      for (const auto& [t, v] : it->second.points)
        if (t > peak_t && v == 0.0) {
          drain_stat.Add(t - peak_t);
          break;
        }
    }
    if (peak_stat.count() == 0) return "-";
    std::string cell = util::FormatDouble(peak_stat.mean(), precision);
    cell += drain_stat.count() > 0
                ? " / " + util::FormatDouble(drain_stat.mean(), 0) + "s"
                : " / -";
    return cell;
  });
}

// For single-curve grids (Fig. 11, the ablations): rows x chosen metrics
// of column `col`.
inline void PrintMetricColumnsTable(const runner::GridSpec& spec,
                                    const runner::ResultsSink& sink,
                                    std::size_t col,
                                    const std::vector<MetricColumn>& columns,
                                    const std::string& title) {
  std::vector<std::string> header = {spec.row_header};
  for (const MetricColumn& c : columns) header.push_back(c.header);
  util::Table table(std::move(header));
  for (std::size_t row = 0; row < spec.rows.size(); ++row) {
    std::vector<std::string> cells = {spec.rows[row]};
    for (const MetricColumn& c : columns)
      cells.push_back(util::FormatDouble(
          c.scale * sink.Stat(row, col, c.metric).mean(), c.precision));
    table.AddRow(std::move(cells));
  }
  table.Print(std::cout, title);
}

}  // namespace omcast::bench
