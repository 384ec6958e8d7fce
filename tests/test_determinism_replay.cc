// Seed-replay determinism test: runs a mid-size churn + gossip + per-packet
// streaming scenario twice with identical seeds and asserts the rolling hash
// of the *entire event trace* (every executed simulator event, plus the
// final tree shape and stream accounting) is bit-identical. Any
// nondeterminism hazard -- unordered-container iteration order feeding a
// decision, an unseeded RNG, pointer-valued tie-breaks -- shows up here as a
// digest mismatch long before it silently skews a figure.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include <string>

#include "core/rost/rost.h"
#include "exp/chaos.h"
#include "exp/scenario.h"
#include "net/topology.h"
#include "obs/registry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "overlay/gossip.h"
#include "overlay/heartbeat.h"
#include "overlay/session.h"
#include "runner/runner.h"
#include "sim/fault_plane.h"
#include "sim/simulator.h"
#include "stream/packet_sim.h"
#include "util/hash.h"

namespace omcast {
namespace {

using overlay::NodeId;

// Installs the digest's trace observer: folds every dispatched (time, id)
// pair into `hash` and requires the pairs to strictly increase. Ids are
// issued in scheduling (seq) order, so this is the queue's (time, seq)
// dispatch contract seen from outside the simulator.
void HashDispatches(sim::Simulator& sim, util::RollingHash& hash) {
  sim.SetTraceObserver([&hash, last_t = -1.0, last_id = std::uint64_t{0},
                        reported = false](sim::Time t,
                                          std::uint64_t id) mutable {
    if (!reported && !(t > last_t || (t == last_t && id > last_id))) {
      ADD_FAILURE() << "dispatch (" << t << ", " << id
                    << ") does not follow (" << last_t << ", " << last_id
                    << ")";
      reported = true;  // one report per run, not one per later event
    }
    last_t = t;
    last_id = id;
    hash.MixDouble(t);
    hash.MixU64(id);
  });
}

// The tiny topology most scenarios below run on: fixed across their
// seeds, so only churn varies. The grids build it before RunGrid and share
// it read-only across their threads.
net::Topology TinyTopology() {
  rnd::Rng topo_rng(1);
  return net::Topology::Generate(net::TinyTopologyParams(), topo_rng);
}

// One full scenario run; everything observable is folded into the digest.
std::uint64_t RunScenarioDigest(std::uint64_t seed) {
  sim::Simulator sim;
  const net::Topology topology = TinyTopology();

  overlay::SessionParams sp;
  sp.rejoin_delay_s = 15.0;  // paper's detection + rejoin outage
  core::RostParams rp;
  rp.switching_interval_s = 60.0;
  overlay::Session session(sim, topology,
                           std::make_unique<core::RostProtocol>(rp), sp, seed);
  overlay::GossipService gossip(session, overlay::GossipParams{}, seed + 1);
  session.SetMembershipOracle(&gossip);

  util::RollingHash hash;
  HashDispatches(sim, hash);

  session.Prepopulate(80);  // tiny topology holds 96 stub hosts
  session.StartArrivals(80.0 / 1809.0);

  stream::PacketSimParams pp;
  pp.packet_rate = 5.0;
  stream::PacketLevelStream stream(session, pp, seed + 2);
  stream.Start(120.0);

  sim.RunUntil(300.0);
  session.StopArrivals();
  stream.FinalizeAliveMembers();

  // Fold in the end state: tree shape, stream accounting, RNG-driven
  // population counts. A trace collision would still have to match all of
  // these to slip through.
  hash.MixU64(sim.executed_count());
  hash.MixU64(static_cast<std::uint64_t>(session.alive_count()));
  hash.MixU64(static_cast<std::uint64_t>(session.total_members_created()));
  const overlay::Tree& tree = session.tree();
  for (NodeId id = 0; id < static_cast<NodeId>(tree.size()); ++id) {
    hash.MixI64(static_cast<std::int64_t>(tree.Parent(id)));
    hash.MixI64(tree.Layer(id));
    hash.MixU64(tree.Alive(id) ? 1 : 0);
  }
  hash.MixI64(stream.packets_emitted());
  hash.MixI64(stream.deliveries());
  hash.MixI64(stream.repairs_scheduled());
  hash.MixDouble(stream.ratio_stat().mean());
  return hash.digest();
}

// Chaos-flavored variant: the same churn scenario with every control path
// routed through a lossy FaultPlane, heartbeat failure detection replacing
// the oracle, and a correlated stub-domain kill mid-stream. The entire
// fault schedule -- which messages drop, duplicate, jitter -- must replay
// bit-identically under the same seed.
std::uint64_t RunChaosDigest(std::uint64_t seed) {
  sim::Simulator sim;
  const net::Topology topology = TinyTopology();

  overlay::SessionParams sp;
  sp.rejoin_delay_s = 15.0;
  sp.external_failure_detection = true;
  sp.root_bandwidth = 5.0;  // force depth so failures orphan someone
  core::RostParams rp;
  rp.switching_interval_s = 60.0;
  auto protocol = std::make_unique<core::RostProtocol>(rp);
  core::RostProtocol* rost = protocol.get();
  overlay::Session session(sim, topology, std::move(protocol), sp, seed);
  // The protocol trace rides on the same determinism contract as the event
  // schedule: fold its digest in so a wall-clock or iteration-order leak
  // into a trace payload fails here.
  obs::Tracer tracer(1u << 18);
  session.SetTracer(&tracer);

  sim::FaultPlaneParams fp;
  fp.loss_rate = 0.05;
  fp.dup_prob = 0.02;
  fp.jitter_s = 0.05;
  sim::FaultPlane plane(sim, fp, seed + 10);
  rost->SetFaultPlane(&plane);
  overlay::HeartbeatService heartbeat(session, overlay::HeartbeatParams{},
                                      seed + 11, &plane);

  util::RollingHash hash;
  HashDispatches(sim, hash);

  session.Prepopulate(60);
  session.StartArrivals(60.0 / 1809.0);

  stream::PacketSimParams pp;
  pp.packet_rate = 5.0;
  stream::PacketLevelStream stream(session, pp, seed + 2);
  stream.SetFaultPlane(&plane);
  stream.Start(120.0);

  // Correlated kill at t=30: every member hosted in stub domain 1 dies.
  sim.ScheduleAt(30.0, [&] {
    std::vector<NodeId> victims;
    for (NodeId id : session.alive_members())
      if (topology.DomainOf(session.tree().Get(id).host) == 1)
        victims.push_back(id);
    for (NodeId id : victims)
      if (session.tree().Alive(id)) session.DepartNow(id);
  });

  sim.RunUntil(300.0);
  session.StopArrivals();
  stream.FinalizeAliveMembers();

  hash.MixU64(sim.executed_count());
  hash.MixU64(static_cast<std::uint64_t>(session.alive_count()));
  hash.MixI64(plane.messages_sent());
  hash.MixI64(plane.messages_dropped());
  hash.MixI64(plane.messages_duplicated());
  hash.MixI64(heartbeat.detections());
  hash.MixI64(heartbeat.false_suspicions());
  hash.MixI64(rost->leases_granted());
  hash.MixI64(rost->leases_expired());
  hash.MixI64(rost->lock_timeouts());
  const overlay::Tree& tree = session.tree();
  for (NodeId id = 0; id < static_cast<NodeId>(tree.size()); ++id) {
    hash.MixI64(static_cast<std::int64_t>(tree.Parent(id)));
    hash.MixU64(tree.Alive(id) ? 1 : 0);
  }
  hash.MixI64(stream.deliveries());
  hash.MixI64(stream.repairs_scheduled());
  hash.MixDouble(stream.ratio_stat().mean());
  hash.MixU64(tracer.Digest());
  return hash.digest();
}

TEST(SeedReplayDeterminism, IdenticalSeedsProduceIdenticalTraces) {
  const std::uint64_t first = RunScenarioDigest(42);
  const std::uint64_t second = RunScenarioDigest(42);
  EXPECT_EQ(first, second)
      << "two runs with the same seed diverged: a nondeterminism hazard "
         "(hash-order iteration, unseeded RNG, pointer tie-break) is live";
}

TEST(SeedReplayDeterminism, DifferentSeedsProduceDifferentTraces) {
  // Sanity check that the digest actually sees the trace: distinct seeds
  // must yield distinct histories (collision odds are ~2^-64).
  EXPECT_NE(RunScenarioDigest(42), RunScenarioDigest(43));
}

TEST(SeedReplayDeterminism, ChaosFaultScheduleReplaysBitIdentically) {
  const std::uint64_t first = RunChaosDigest(17);
  const std::uint64_t second = RunChaosDigest(17);
  EXPECT_EQ(first, second)
      << "the fault schedule (drops/duplicates/jitter) or the heartbeat "
         "path diverged between identically-seeded runs";
}

TEST(SeedReplayDeterminism, ChaosDigestSeesTheSeed) {
  EXPECT_NE(RunChaosDigest(17), RunChaosDigest(18));
}

// ---------------------------------------------------------------------------
// Dispatch order on real scenario cells: the digest helpers' observers
// require every dispatch to strictly follow the previous one in (time, id).
// tests/test_calendar_queue.cc checks the queue itself against a binary-heap
// reference; these seeds check it under real workloads.
// ---------------------------------------------------------------------------

TEST(DispatchOrder, ScenarioSeedsDispatchInOrderAndReplay) {
  for (const std::uint64_t seed : {42ull, 7ull, 1234ull}) {
    SCOPED_TRACE(seed);
    EXPECT_EQ(RunScenarioDigest(seed), RunScenarioDigest(seed));
  }
}

TEST(DispatchOrder, ChaosSeedsDispatchInOrderAndReplay) {
  // The chaos run leans hard on cancellation (heartbeat re-arms cancel and
  // reschedule suspicion timers constantly) and on equal-time pileups from
  // the fault plane's jittered redeliveries -- the two places a queue
  // could break ordering.
  for (const std::uint64_t seed : {17ull, 99ull}) {
    SCOPED_TRACE(seed);
    EXPECT_EQ(RunChaosDigest(seed), RunChaosDigest(seed));
  }
}

// ---------------------------------------------------------------------------
// Full chaos-scenario replay under the scaled hot path: the calendar queue
// plus the landmark delay oracle, i.e. the exact configuration the
// million-member trajectory runs. Each of the harness's injection shapes --
// correlated domain kill, flash crowd, mid-repair double kill -- must
// replay bit-identically (same registry snapshot, same QoE accounting, same
// protocol trace).
// ---------------------------------------------------------------------------

std::uint64_t RunChaosHarnessDigest(int scenario, std::uint64_t seed) {
  rnd::Rng topo_rng(1);
  net::TopologyParams tp = net::TinyTopologyParams();
  tp.delay_model = net::DelayModel::kLandmark;
  const net::Topology topology = net::Topology::Generate(tp, topo_rng);

  exp::ChaosConfig c;
  c.population = 60;
  c.warmup_s = 300.0;
  c.stream_s = 60.0;
  c.drain_s = 60.0;
  c.seed = seed;
  c.fault.loss_rate = 0.02;
  c.fault.dup_prob = 0.01;
  c.fault.jitter_s = 0.02;
  c.session.root_bandwidth = 5.0;
  c.rost.switching_interval_s = 60.0;
  c.packet.frame_playback = true;
  switch (scenario) {
    case 0:  // correlated stub-domain kill
      c.domain_kill_at_s = 10.0;
      c.domain_kill_index = 1;
      break;
    case 1:  // flash crowd of simultaneous departures
      c.flash_at_s = 10.0;
      c.flash_departures = 5;
      break;
    default:  // mid-repair double kill (parent, then the repair server)
      c.mid_repair_kill_at_s = 20.0;
      break;
  }
  obs::Tracer tracer(1u << 18);
  c.tracer = &tracer;
  const exp::ChaosResult r = exp::RunChaosScenario(topology, c);

  util::RollingHash hash;
  for (const auto& [name, value] : r.registry) {
    hash.MixBytes(name);
    hash.MixDouble(value);
  }
  hash.MixDouble(r.avg_starving_ratio);
  hash.MixDouble(r.degraded_time_fraction);
  hash.MixDouble(r.mean_recovery_to_cadence_s);
  hash.MixI64(r.decode_stalls);
  hash.MixI64(r.regime_transitions);
  hash.MixI64(r.dependency_resyncs);
  hash.MixI64(r.reentries_scheduled);
  hash.MixI64(r.reentries_attached);
  hash.MixI64(r.reentries_abandoned);
  hash.MixI64(r.unrooted_members);
  hash.MixI64(r.final_population);
  hash.MixU64(tracer.Digest());
  return hash.digest();
}

TEST(ChaosHarnessReplay, ScenariosReplayBitIdenticallyUnderCalendarLandmark) {
  for (int scenario : {0, 1, 2}) {
    EXPECT_EQ(RunChaosHarnessDigest(scenario, 21),
              RunChaosHarnessDigest(scenario, 21))
        << "chaos scenario " << scenario
        << " diverged between identically-seeded runs";
  }
}

TEST(ChaosHarnessReplay, ScenarioDigestsSeeTheSeed) {
  EXPECT_NE(RunChaosHarnessDigest(0, 21), RunChaosHarnessDigest(0, 22));
}

// ---------------------------------------------------------------------------
// Clique-protocol replay: the clustered overlay's event history -- cluster
// formation order, election timers, succession timeouts, advisory traffic
// over the fault plane -- must replay bit-identically under the same seed
// and under both delay models. The flash-crowd shape exercises every
// recovery path (local reattach, succession, dissolution, overflow/preempt
// admission) in one run.
// ---------------------------------------------------------------------------

std::uint64_t RunCliqueChaosDigest(std::uint64_t seed, net::DelayModel delay) {
  rnd::Rng topo_rng(1);
  net::TopologyParams tp = net::TinyTopologyParams();
  tp.delay_model = delay;
  const net::Topology topology = net::Topology::Generate(tp, topo_rng);

  exp::ChaosConfig c;
  c.algorithm = exp::Algorithm::kClique;
  c.population = 60;
  c.warmup_s = 300.0;
  c.stream_s = 60.0;
  c.drain_s = 60.0;
  c.seed = seed;
  c.fault.loss_rate = 0.02;
  c.fault.dup_prob = 0.01;
  c.fault.jitter_s = 0.02;
  c.session.root_bandwidth = 16.0;  // feasible post-flash rebuild
  c.packet.frame_playback = true;
  c.flash_at_s = 10.0;
  c.flash_departures = 12;
  obs::Tracer tracer(1u << 18);
  c.tracer = &tracer;
  const exp::ChaosResult r = exp::RunChaosScenario(topology, c);

  util::RollingHash hash;
  for (const auto& [name, value] : r.registry) {
    hash.MixBytes(name);
    hash.MixDouble(value);
  }
  hash.MixDouble(r.avg_starving_ratio);
  hash.MixDouble(r.degraded_time_fraction);
  hash.MixI64(r.decode_stalls);
  hash.MixI64(r.reentries_attached);
  hash.MixI64(r.unrooted_members);
  hash.MixI64(r.final_population);
  hash.MixU64(tracer.Digest());
  return hash.digest();
}

TEST(CliqueReplay, ChaosReplaysBitIdenticallyUnderBothDelayModels) {
  for (const net::DelayModel delay :
       {net::DelayModel::kHierarchical, net::DelayModel::kLandmark}) {
    EXPECT_EQ(RunCliqueChaosDigest(21, delay), RunCliqueChaosDigest(21, delay))
        << "clique chaos run diverged between identically-seeded runs "
           "(delay model " << static_cast<int>(delay) << ")";
  }
}

TEST(CliqueReplay, DigestSeesTheSeed) {
  EXPECT_NE(RunCliqueChaosDigest(21, net::DelayModel::kLandmark),
            RunCliqueChaosDigest(22, net::DelayModel::kLandmark));
}

// ---------------------------------------------------------------------------
// Grid-level determinism: the experiment runner must produce bit-identical
// per-cell results whether the grid executes serially or on four threads.
// Each cell runs a real (small) tree scenario against the grid's one
// read-only topology; the digest covers every metric and sample of every
// cell, so a data race on the topology, a scheduling-dependent seed, or an
// output-slot mixup all fail this test.
// ---------------------------------------------------------------------------

runner::GridRunSummary RunScenarioGrid(int threads) {
  runner::GridSpec spec;
  spec.figure = "determinism_probe";
  spec.title = "grid determinism probe";
  spec.row_header = "members";
  spec.rows = {"40", "60"};
  spec.cols = {"min-depth", "ROST"};
  spec.reps = 2;
  spec.headline_metric = "disruptions";
  const net::Topology topology = TinyTopology();
  spec.run = [&topology](const runner::CellContext& cell) {
    exp::ScenarioConfig config;
    config.population = cell.row == 0 ? 40 : 60;
    config.warmup_s = 120.0;
    config.measure_s = 300.0;
    config.seed = cell.seed;
    const exp::Algorithm algorithm =
        cell.col == 0 ? exp::Algorithm::kMinDepth : exp::Algorithm::kRost;
    const exp::TreeScenarioResult r =
        exp::RunTreeScenario(topology, algorithm, config);
    runner::CellResult out;
    out.metrics["disruptions"] = r.avg_disruptions;
    out.metrics["delay_ms"] = r.avg_delay_ms;
    out.metrics["stretch"] = r.avg_stretch;
    out.metrics["population"] = r.avg_population;
    out.samples["disruptions"] = r.disruption_samples;
    return out;
  };
  runner::RunnerOptions options;
  options.threads = threads;
  options.base_seed = 1;
  return runner::RunGrid(spec, options);
}

TEST(SeedReplayDeterminism, SerialAndParallelGridsAreBitIdentical) {
  const runner::GridRunSummary serial = RunScenarioGrid(/*threads=*/1);
  const runner::GridRunSummary parallel = RunScenarioGrid(/*threads=*/4);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  EXPECT_EQ(runner::DigestOutcomes(serial.cells),
            runner::DigestOutcomes(parallel.cells))
      << "per-cell results depend on thread count: a cell is sharing "
         "mutable state (RNG, topology, collector) across the grid";
  // Localize a failure if the digests ever diverge.
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].result.metrics,
              parallel.cells[i].result.metrics)
        << "cell " << i << " (" << serial.cells[i].ctx.row_label << "/"
        << serial.cells[i].ctx.col_label << " rep "
        << serial.cells[i].ctx.rep << ") diverged";
  }
}

TEST(SeedReplayDeterminism, GridCellsUseDistinctDerivedSeeds) {
  const runner::GridRunSummary summary = RunScenarioGrid(/*threads=*/2);
  std::set<std::uint64_t> seeds;
  for (const runner::CellOutcome& cell : summary.cells)
    seeds.insert(cell.ctx.seed);
  EXPECT_EQ(seeds.size(), summary.cells.size())
      << "two grid cells derived the same seed";
}

// Per-cell protocol traces must also be independent of the thread count:
// each cell attaches a private Tracer and the exported JSONL text -- not
// just a digest of it -- must come out byte-identical whether the grid ran
// serially or on four workers.
std::vector<std::string> RunTracedGridJsonl(int threads) {
  runner::GridSpec spec;
  spec.figure = "trace_determinism_probe";
  spec.title = "per-cell trace determinism probe";
  spec.row_header = "members";
  spec.rows = {"40", "60"};
  spec.cols = {"ROST"};
  spec.reps = 2;
  const net::Topology topology = TinyTopology();
  std::vector<std::string> jsonl(spec.cell_count());
  spec.run = [&topology, &jsonl,
              reps = spec.reps](const runner::CellContext& cell) {
    obs::Tracer tracer(1u << 18);
    exp::ScenarioConfig config;
    config.population = cell.row == 0 ? 40 : 60;
    config.warmup_s = 120.0;
    config.measure_s = 180.0;
    config.seed = cell.seed;
    config.tracer = &tracer;
    const exp::TreeScenarioResult r =
        exp::RunTreeScenario(topology, exp::Algorithm::kRost, config);
    // Cells write distinct slots, so no lock is needed across the pool.
    jsonl[cell.row * static_cast<std::size_t>(reps) +
          static_cast<std::size_t>(cell.rep)] = tracer.ToJsonl();
    runner::CellResult out;
    out.metrics["disruptions"] = r.avg_disruptions;
    out.metrics["trace_events"] = static_cast<double>(tracer.emitted());
    return out;
  };
  runner::RunnerOptions options;
  options.threads = threads;
  options.base_seed = 1;
  (void)runner::RunGrid(spec, options);
  return jsonl;
}

TEST(SeedReplayDeterminism, SerialAndParallelTraceJsonlAreByteIdentical) {
  const std::vector<std::string> serial = RunTracedGridJsonl(/*threads=*/1);
  const std::vector<std::string> parallel = RunTracedGridJsonl(/*threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_FALSE(serial[i].empty()) << "cell " << i << " emitted no trace";
    EXPECT_EQ(serial[i], parallel[i])
        << "cell " << i << " exported different JSONL under 4 threads: a "
           "trace payload depends on scheduling or wall-clock";
  }
}

// The degraded-regime scenario grid (the shape bench/degraded_grid runs)
// must also be thread-count independent: every QoE metric, registry entry,
// recovery time-series and incident stat of every cell digests identically
// serially and on four workers (DigestOutcomes mixes the schema-v3
// timeseries and incidents blocks, so a scheduling leak into either fails
// the digest comparison, and the per-cell loops localize it).
runner::GridRunSummary RunDegradedGrid(int threads) {
  runner::GridSpec spec;
  spec.figure = "degraded_determinism_probe";
  spec.title = "degraded-regime grid determinism probe";
  spec.row_header = "scenario";
  spec.rows = {"join_storm", "rejoin_load"};
  spec.cols = {"loss=5%"};
  spec.reps = 2;
  spec.headline_metric = "degraded_time_fraction";
  const net::Topology topology = TinyTopology();
  spec.run = [&topology](const runner::CellContext& cell) {
    exp::ChaosConfig c;
    c.population = 50;
    c.warmup_s = 200.0;
    c.stream_s = 60.0;
    c.drain_s = 60.0;
    c.seed = cell.seed;
    c.fault.loss_rate = 0.05;
    c.session.root_bandwidth = 5.0;
    c.rost.switching_interval_s = 60.0;
    c.packet.frame_playback = true;
    if (cell.row == 0) {
      c.join_storm_at_s = 10.0;
      c.join_storm_count = 20;
    } else {
      c.reconnect_storm_at_s = 10.0;
      c.reconnect_storm_fraction = 0.2;
    }
    obs::Registry reg;
    c.registry = &reg;
    c.timeseries_window_s = 5.0;
    c.incident_analysis = true;
    const exp::ChaosResult r = exp::RunChaosScenario(topology, c);
    runner::CellResult out;
    out.metrics["degraded_time_fraction"] = r.degraded_time_fraction;
    out.metrics["decode_stalls"] = static_cast<double>(r.decode_stalls);
    out.metrics["dependency_resyncs"] =
        static_cast<double>(r.dependency_resyncs);
    out.metrics["reentries_pending"] = static_cast<double>(r.reentries_pending);
    out.registry = r.registry;
    out.incidents = r.incidents;
    for (const auto& [name, ts] : reg.series()) {
      runner::CellResult::SeriesSnapshot snap;
      snap.kind = static_cast<int>(ts.kind());
      snap.window_s = ts.window_s();
      for (const obs::TimeSeries::Point& p : ts.Points())
        snap.points.emplace_back(p.t, p.value);
      out.timeseries[name] = std::move(snap);
    }
    return out;
  };
  runner::RunnerOptions options;
  options.threads = threads;
  options.base_seed = 1;
  return runner::RunGrid(spec, options);
}

TEST(SeedReplayDeterminism, DegradedGridIsBitIdenticalSerialVsFourThreads) {
  const runner::GridRunSummary serial = RunDegradedGrid(/*threads=*/1);
  const runner::GridRunSummary parallel = RunDegradedGrid(/*threads=*/4);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  EXPECT_EQ(runner::DigestOutcomes(serial.cells),
            runner::DigestOutcomes(parallel.cells))
      << "degraded-regime cells depend on thread count";
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].result.metrics, parallel.cells[i].result.metrics)
        << "cell " << i << " diverged";
    EXPECT_EQ(serial.cells[i].result.registry,
              parallel.cells[i].result.registry)
        << "cell " << i << " registry diverged";
    // The flight-recorder blocks must be populated (the probe enables both)
    // and thread-count independent point for point.
    EXPECT_FALSE(serial.cells[i].result.timeseries.empty())
        << "cell " << i << " recorded no recovery curves";
    EXPECT_FALSE(serial.cells[i].result.incidents.empty())
        << "cell " << i << " recorded no incident stats";
    EXPECT_EQ(serial.cells[i].result.incidents,
              parallel.cells[i].result.incidents)
        << "cell " << i << " incident stats diverged";
    const auto& serial_ts = serial.cells[i].result.timeseries;
    const auto& parallel_ts = parallel.cells[i].result.timeseries;
    ASSERT_EQ(serial_ts.size(), parallel_ts.size()) << "cell " << i;
    for (const auto& [name, snap] : serial_ts) {
      ASSERT_TRUE(parallel_ts.contains(name))
          << "cell " << i << " lost series " << name << " under 4 threads";
      EXPECT_EQ(snap.points, parallel_ts.at(name).points)
          << "cell " << i << " series " << name << " diverged";
    }
  }
}

// The bake-off's clique side must be thread-count independent too: a churn
// row (RunTreeScenario) and a flash row (RunChaosScenario) both under the
// clustered protocol, serially and on four workers.
runner::GridRunSummary RunCliqueGrid(int threads) {
  runner::GridSpec spec;
  spec.figure = "clique_determinism_probe";
  spec.title = "clique grid determinism probe";
  spec.row_header = "scenario";
  spec.rows = {"churn", "flash"};
  spec.cols = {"clique"};
  spec.reps = 2;
  spec.headline_metric = "disruptions";
  const net::Topology topology = TinyTopology();
  spec.run = [&topology](const runner::CellContext& cell) {
    runner::CellResult out;
    if (cell.row == 0) {
      exp::ScenarioConfig config;
      config.population = 50;
      config.warmup_s = 120.0;
      config.measure_s = 300.0;
      config.seed = cell.seed;
      const exp::TreeScenarioResult r =
          exp::RunTreeScenario(topology, exp::Algorithm::kClique, config);
      out.metrics["disruptions"] = r.avg_disruptions;
      out.metrics["delay_ms"] = r.avg_delay_ms;
      out.metrics["stretch"] = r.avg_stretch;
      return out;
    }
    exp::ChaosConfig c;
    c.algorithm = exp::Algorithm::kClique;
    c.population = 50;
    c.warmup_s = 200.0;
    c.stream_s = 60.0;
    c.drain_s = 60.0;
    c.seed = cell.seed;
    c.fault.loss_rate = 0.02;
    c.session.root_bandwidth = 16.0;
    c.packet.frame_playback = true;
    c.flash_at_s = 10.0;
    c.flash_departures = 10;
    const exp::ChaosResult r = exp::RunChaosScenario(topology, c);
    out.metrics["disruptions"] = r.avg_starving_ratio;
    out.metrics["unrooted_members"] = static_cast<double>(r.unrooted_members);
    out.registry = r.registry;
    return out;
  };
  runner::RunnerOptions options;
  options.threads = threads;
  options.base_seed = 1;
  return runner::RunGrid(spec, options);
}

TEST(SeedReplayDeterminism, CliqueGridIsBitIdenticalSerialVsFourThreads) {
  const runner::GridRunSummary serial = RunCliqueGrid(/*threads=*/1);
  const runner::GridRunSummary parallel = RunCliqueGrid(/*threads=*/4);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  EXPECT_EQ(runner::DigestOutcomes(serial.cells),
            runner::DigestOutcomes(parallel.cells))
      << "clique cells depend on thread count";
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].result.metrics, parallel.cells[i].result.metrics)
        << "cell " << i << " diverged";
    EXPECT_EQ(serial.cells[i].result.registry,
              parallel.cells[i].result.registry)
        << "cell " << i << " registry diverged";
  }
}

TEST(SeedReplayDeterminism, TraceObserverSeesMonotonicTime) {
  sim::Simulator sim;
  sim::Time last = 0.0;
  long observed = 0;
  sim.SetTraceObserver([&](sim::Time t, std::uint64_t) {
    EXPECT_GE(t, last);
    last = t;
    ++observed;
  });
  for (int i = 0; i < 50; ++i)
    sim.ScheduleAt(static_cast<double>((i * 7) % 10), [] {});
  sim.Run();
  EXPECT_EQ(observed, 50);
  EXPECT_EQ(sim.executed_count(), 50u);
}

}  // namespace
}  // namespace omcast
