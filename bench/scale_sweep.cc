// Scale sweep: the million-member hot-path trajectory.
//
// Drives a full churn workload -- equilibrium-pre-populated Session,
// Poisson arrivals, heartbeat failure detection on a reliable plane (its
// deadlines in closed form) -- at steady-state sizes 10^5..10^6 and records
// the simulator hot-path numbers from obs::SimProfiler. The headline is
// simulated seconds per run-loop wall second (queue operations included):
// an event count says little once work stops being one event per beat.
// Dispatched events and events per wall second stay as columns, with peak
// RSS, calendar event-pool occupancy, and the calendar's bucket storage at
// the end of the cell.
//
// One column, "calendar+landmark": the production configuration (calendar
// event queue, DelayModel::kLandmark delay oracle), which fits 10^6
// members in container memory. The exact-vs-landmark oracle comparison
// lives in bench/micro_core (BM_DelayOracleAtScale) and test_topology.
//
//   ./bench/scale_sweep [--sizes=100000,1000000] [--duration=60]
//                       [--out=results]
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/topology.h"
#include "obs/profile.h"
#include "overlay/heartbeat.h"
#include "overlay/session.h"
#include "proto/min_depth.h"
#include "rand/distributions.h"
#include "sim/simulator.h"
#include "util/flags.h"

namespace {

using namespace omcast;

struct SweepOptions {
  std::vector<int> sizes;
  double duration_s = 60.0;
  std::uint64_t seed = 1;
};

// Stub hosts provisioned per steady-state size: 5% churn headroom so
// Poisson arrivals never hit host exhaustion mid-measurement.
int HostsFor(int size) { return size + size / 20 + 100; }

runner::CellResult RunCell(const SweepOptions& opt,
                           const runner::CellContext& cell) {
  const int size = opt.sizes[cell.row];
  // The cell's own topology, freed with the cell: rows never share one.
  rnd::Rng topo_rng(opt.seed ^ (0x5ca1eULL + cell.row));
  const net::Topology topo = net::Topology::Generate(
      net::ScaleTopologyParams(HostsFor(size)), topo_rng);

  sim::Simulator sim;
  obs::SimProfiler prof;
  sim.SetProfiler(&prof);

  overlay::SessionParams sp;
  sp.external_failure_detection = true;
  overlay::Session session(sim, topo,
                           std::make_unique<proto::MinDepthProtocol>(), sp,
                           cell.seed);
  overlay::HeartbeatService heartbeat(session, overlay::HeartbeatParams{},
                                      cell.seed ^ 0xbea75ULL);
  session.Prepopulate(size);
  session.StartArrivals(size / rnd::kMeanLifetimeSeconds);
  sim.RunUntil(opt.duration_s);

  runner::CellResult out;
  out.metrics["events"] = static_cast<double>(sim.executed_count());
  out.metrics["events_per_sec"] = prof.events_per_sec();
  out.metrics["loop_wall_s"] = prof.loop_us() * 1e-6;
  out.metrics["sim_s_per_wall_s"] = opt.duration_s / (prof.loop_us() * 1e-6);
  // peak_rss_mb is the *process* high-water mark (monotone across cells in
  // one grid run -- a late cell inherits earlier cells' peak); rss_delta_mb
  // is the growth attributable to this cell alone.
  out.metrics["peak_rss_mb"] =
      static_cast<double>(prof.peak_rss_bytes()) / 1e6;
  out.metrics["rss_delta_mb"] =
      static_cast<double>(prof.rss_delta_bytes()) / 1e6;
  out.metrics["pool_live_max"] = static_cast<double>(prof.pool_live_max());
  out.metrics["pool_capacity_max"] =
      static_cast<double>(prof.pool_capacity_max());
  out.metrics["pending_end"] = static_cast<double>(sim.pending_count());
  out.metrics["bucket_storage_mb"] =
      static_cast<double>(sim.pool_stats().bucket_bytes) / 1e6;
  out.metrics["delay_table_mb"] =
      static_cast<double>(topo.DelayTableBytes()) / 1e6;
  out.metrics["population_end"] = session.alive_count();
  out.metrics["heartbeats"] = static_cast<double>(heartbeat.heartbeats_sent());
  out.metrics["detections"] = static_cast<double>(heartbeat.detections());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace omcast;
  util::FlagSet flags;
  flags.Define("sizes", "100000,1000000", "steady-state member counts")
      .Define("duration", "60", "simulated churn seconds per cell");
  // No --threads: the cells are memory-heavy, so they never overlap.
  bench::DefineDriverFlags(flags, /*threads_default=*/nullptr);
  if (!flags.Parse(argc, argv)) return 1;
  const bench::Driver driver =
      bench::ReadDriverFlags(flags, /*threads_flag=*/false);

  SweepOptions opt;
  opt.sizes = flags.GetIntList("sizes");
  opt.duration_s = flags.GetDouble("duration");
  opt.seed = driver.seed;
  if (opt.sizes.empty()) {
    std::cerr << "--sizes must name at least one size\n";
    return 1;
  }

  std::cout << "=== scale_sweep -- simulator hot path at 10^5..10^6 members"
            << " ===\nduration: " << opt.duration_s
            << "s simulated churn  seed: " << opt.seed << "\n\n";

  runner::GridSpec spec;
  spec.figure = "scale_sweep";
  spec.title = "simulator hot-path throughput and memory vs overlay size";
  spec.row_header = "members";
  for (const int size : opt.sizes) spec.rows.push_back(std::to_string(size));
  spec.cols = {"calendar+landmark"};
  spec.reps = 1;
  spec.headline_metric = "sim_s_per_wall_s";
  spec.run = [&opt](const runner::CellContext& cell) {
    return RunCell(opt, cell);
  };

  const auto [sink, status] = bench::RunGridBench(
      driver, spec, "scale_sweep", /*warmup_s=*/0.0, opt.duration_s);

  const std::vector<bench::MetricColumn> columns = {
      {"sim s/wall s", "sim_s_per_wall_s", 2},
      {"events", "events", 0},
      {"events/sec", "events_per_sec", 0},
      {"loop wall (s)", "loop_wall_s", 2},
      {"proc peak RSS (MB)", "peak_rss_mb", 1},
      {"cell RSS delta (MB)", "rss_delta_mb", 1},
      {"pool live max", "pool_live_max", 0},
      {"bucket storage (MB)", "bucket_storage_mb", 2},
      {"delay tables (MB)", "delay_table_mb", 2},
      {"population", "population_end", 0},
  };
  bench::PrintMetricColumnsTable(spec, sink, 0, columns,
                                 "calendar queue + landmark oracle");
  return status;
}
