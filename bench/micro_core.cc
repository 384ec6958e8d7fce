// Microbenchmarks (google-benchmark) for the building blocks on the hot
// paths of the simulation: the event queue, the topology delay oracle,
// tree walks and relaxed BO/TO joins on paper-scale overlays, heartbeat and
// gossip timers on prepopulated overlays, partial-tree construction + MLC
// selection, the per-outage recovery model, and a full small churn
// scenario.
#include <benchmark/benchmark.h>

#include <functional>

#include "core/cer/mlc.h"
#include "core/cer/partial_tree.h"
#include "core/cer/recovery.h"
#include "exp/scenario.h"
#include "net/topology.h"
#include "overlay/gossip.h"
#include "overlay/heartbeat.h"
#include "rand/distributions.h"
#include "rand/rng.h"
#include "sim/fault_plane.h"
#include "sim/simulator.h"

namespace {

using namespace omcast;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    long count = 0;
    for (int i = 0; i < n; ++i)
      sim.ScheduleAt(static_cast<double>(i % 97), [&count] { ++count; });
    sim.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

// --- the event queue at scale ----------------------------------------------
//
// The steady-state shape of the churn workload: a large standing set of
// pending timers (heartbeat periods, suspicion deadlines, departures) while
// the run loop continuously dispatches near-future events and schedules
// replacements. Each benchmark pre-populates `n` pending events, then
// measures one of the three queue operations the hot path is made of.
// Timer deadlines mix three scales (1s heartbeats, 4s suspicions, long-tail
// lifetimes) like the real session does.

double MixedDeadline(rnd::Rng& rng) {
  const double u = rng.Uniform(0.0, 1.0);
  if (u < 0.45) return rng.Uniform(0.0, 1.0);        // heartbeat period
  if (u < 0.90) return rng.Uniform(3.0, 5.0);        // suspicion deadline
  return rng.ExponentialMean(1809.0);                // member lifetime
}

void QueueScaleArgs(benchmark::internal::Benchmark* b) {
  for (long n : {10000L, 100000L, 1000000L, 10000000L}) b->Arg(n);
}

void BM_QueueScheduleAtScale(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulator sim;
  rnd::Rng rng(42);
  for (int i = 0; i < n; ++i)
    sim.ScheduleAt(MixedDeadline(rng), [] {}, "bench.standing");
  for (auto _ : state) {
    const sim::EventId id =
        sim.ScheduleAt(MixedDeadline(rng), [] {}, "bench.probe");
    benchmark::DoNotOptimize(id);
    state.PauseTiming();
    sim.Cancel(id);  // keep the pending set at n
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueueScheduleAtScale)->Apply(QueueScaleArgs);

void BM_QueueCancelAtScale(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulator sim;
  rnd::Rng rng(42);
  for (int i = 0; i < n; ++i)
    sim.ScheduleAt(MixedDeadline(rng), [] {}, "bench.standing");
  for (auto _ : state) {
    state.PauseTiming();
    const sim::EventId id =
        sim.ScheduleAt(MixedDeadline(rng), [] {}, "bench.probe");
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.Cancel(id));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueueCancelAtScale)->Apply(QueueScaleArgs);

void BM_QueueDispatchAtScale(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulator sim;
  rnd::Rng rng(42);
  // Self-renewing timers: each dispatch schedules its replacement, so the
  // pending set stays at n however long the benchmark iterates.
  std::function<void()> renew;
  long fired = 0;
  renew = [&] {
    ++fired;
    sim.ScheduleAfter(MixedDeadline(rng), renew, "bench.renew");
    sim.Stop();  // one dispatch per Run() call
  };
  for (int i = 0; i < n; ++i)
    sim.ScheduleAt(MixedDeadline(rng), renew, "bench.renew");
  for (auto _ : state) {
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueueDispatchAtScale)->Apply(QueueScaleArgs);

// --- exact hierarchical vs landmark delay oracle ---------------------------
//
// Same topology size (~110k stub hosts, the 10^5-member sweep cell), both
// delay models, uniform random host pairs: the per-query cost that multiplies
// into every heartbeat delivery and every BTP candidate evaluation.

const net::Topology& OracleTopology(bool landmark) {
  auto make = [](net::DelayModel model) {
    net::TopologyParams p = net::ScaleTopologyParams(110000);
    p.delay_model = model;
    p.keep_flat_edges = false;
    rnd::Rng rng(7);
    return new net::Topology(net::Topology::Generate(p, rng));
  };
  static const net::Topology* hier = make(net::DelayModel::kHierarchical);
  static const net::Topology* land = make(net::DelayModel::kLandmark);
  return landmark ? *land : *hier;
}

void BM_DelayOracleAtScale(benchmark::State& state) {
  const net::Topology& t = OracleTopology(state.range(0) == 1);
  rnd::Rng pick(2);
  const auto hosts = static_cast<std::size_t>(t.num_stub_nodes());
  for (auto _ : state) {
    const auto a = static_cast<net::HostId>(pick.UniformIndex(hosts));
    const auto b = static_cast<net::HostId>(pick.UniformIndex(hosts));
    benchmark::DoNotOptimize(t.Delay(a, b));
  }
  state.SetLabel(state.range(0) == 1 ? "landmark" : "hierarchical");
}
BENCHMARK(BM_DelayOracleAtScale)->Arg(0)->Arg(1);

void BM_TopologyGenerate(benchmark::State& state) {
  for (auto _ : state) {
    rnd::Rng rng(1);
    const net::Topology t =
        net::Topology::Generate(net::PaperTopologyParams(), rng);
    benchmark::DoNotOptimize(t.num_stub_nodes());
  }
}
BENCHMARK(BM_TopologyGenerate)->Unit(benchmark::kMillisecond);

void BM_DelayOracle(benchmark::State& state) {
  rnd::Rng rng(1);
  const net::Topology t =
      net::Topology::Generate(net::PaperTopologyParams(), rng);
  rnd::Rng pick(2);
  for (auto _ : state) {
    const auto a = static_cast<net::HostId>(
        pick.UniformIndex(static_cast<std::size_t>(t.num_stub_nodes())));
    const auto b = static_cast<net::HostId>(
        pick.UniformIndex(static_cast<std::size_t>(t.num_stub_nodes())));
    benchmark::DoNotOptimize(t.Delay(a, b));
  }
}
BENCHMARK(BM_DelayOracle);

// --- tree ops on prepopulated paper-scale overlays --------------------------
//
// Members from state.range(0) (2k / 10k) on the paper's GT-ITM topology. A
// relaxed BO/TO fresh join scans the whole rooted tree along its preorder
// thread, then places (possibly evicting); ForEachDescendant from the root
// is that walk alone.

const net::Topology& PaperTopology() {
  static const net::Topology* topology = [] {
    rnd::Rng rng(1);
    return new net::Topology(
        net::Topology::Generate(net::PaperTopologyParams(), rng));
  }();
  return *topology;
}

void BM_ForEachDescendantFromRoot(benchmark::State& state) {
  sim::Simulator sim;
  overlay::Session session(
      sim, PaperTopology(),
      exp::MakeProtocol(exp::Algorithm::kMinDepth, core::RostParams{}),
      overlay::SessionParams{}, 3);
  session.Prepopulate(static_cast<int>(state.range(0)));
  const overlay::Tree& tree = session.tree();
  std::size_t visited = 0;
  for (auto _ : state) {
    std::size_t count = 0;
    tree.ForEachDescendant(overlay::kRootId,
                           [&count](overlay::NodeId) { ++count; });
    benchmark::DoNotOptimize(count);
    visited = count;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(visited));
}
BENCHMARK(BM_ForEachDescendantFromRoot)->Arg(2000)->Arg(10000);

// Each iteration injects one more member (lifetime far past the run), so a
// fixed iteration count bounds the overlay's growth to 5% at 2k.
void BM_RelaxedJoin(benchmark::State& state) {
  const bool time_ordered = state.range(1) == 1;
  sim::Simulator sim;
  overlay::Session session(
      sim, PaperTopology(),
      exp::MakeProtocol(time_ordered ? exp::Algorithm::kRelaxedTo
                                     : exp::Algorithm::kRelaxedBo,
                        core::RostParams{}),
      overlay::SessionParams{}, 3);
  session.Prepopulate(static_cast<int>(state.range(0)));
  rnd::Rng rng(11);
  const rnd::BoundedPareto bandwidth = rnd::PaperBandwidthDist();
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.InjectMember(bandwidth.Sample(rng), 1e6));
  }
  state.SetLabel(time_ordered ? "relaxed-TO" : "relaxed-BO");
}
BENCHMARK(BM_RelaxedJoin)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Iterations(100)
    ->Unit(benchmark::kMicrosecond);

// --- heartbeat and gossip timers on prepopulated overlays -------------------
//
// Each iteration advances a prepopulated overlay (state.range(0) members,
// no arrivals) by one timer period: a second of heartbeat failure
// detection, or a 30 s gossip period (one tick and push-pull exchange per
// member). A fixed iteration count bounds how far departures thin the
// membership.
//
// BM_HeartbeatSecond runs both heartbeat paths on one binary:
// state.range(1) = 1 routes every beat through a zero-loss, zero-jitter
// FaultPlane (a send event per beating member, a delivery per child and
// a re-arming monitor each second), 0 runs the closed form, which
// schedules none of them. Its items are member-seconds (alive members x
// simulated seconds), so items/s is the simulated load each path carries
// per wall second. BM_GossipPeriod's items are dispatched events; its
// view_bytes_per_member counter is the entry storage of every view plus
// the merge buffer, per alive member.

void BM_HeartbeatSecond(benchmark::State& state) {
  sim::Simulator sim;
  overlay::SessionParams sp;
  sp.external_failure_detection = true;
  overlay::Session session(
      sim, PaperTopology(),
      exp::MakeProtocol(exp::Algorithm::kMinDepth, core::RostParams{}), sp,
      3);
  const overlay::HeartbeatParams params;
  const bool event_path = state.range(1) != 0;
  sim::FaultPlane plane(sim, {}, 7);
  overlay::HeartbeatService heartbeat(session, params, 5,
                                      event_path ? &plane : nullptr);
  session.Prepopulate(static_cast<int>(state.range(0)));
  // Past every start phase and every attach-time monitor.
  sim.RunUntil(2.0 * heartbeat.SuspicionTimeout());
  double member_seconds = 0.0;
  for (auto _ : state) {
    member_seconds += session.alive_count() * params.period_s;
    sim.RunUntil(sim.now() + params.period_s);
  }
  benchmark::DoNotOptimize(heartbeat.detections());
  state.SetItemsProcessed(static_cast<std::int64_t>(member_seconds));
  state.SetLabel(event_path ? "event path (zero-loss plane)" : "closed form");
}
BENCHMARK(BM_HeartbeatSecond)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Iterations(40)
    ->Unit(benchmark::kMicrosecond);

void BM_GossipPeriod(benchmark::State& state) {
  sim::Simulator sim;
  overlay::Session session(
      sim, PaperTopology(),
      exp::MakeProtocol(exp::Algorithm::kMinDepth, core::RostParams{}),
      overlay::SessionParams{}, 3);
  overlay::GossipService gossip(session, overlay::GossipParams{}, 5);
  session.SetMembershipOracle(&gossip);
  session.Prepopulate(static_cast<int>(state.range(0)));
  // Every member has ticked: views are past their bootstrap.
  sim.RunUntil(overlay::kGossipPeriodS);
  const std::uint64_t events_before = sim.executed_count();
  for (auto _ : state) {
    sim.RunUntil(sim.now() + overlay::kGossipPeriodS);
    benchmark::DoNotOptimize(gossip.exchanges_performed());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sim.executed_count() - events_before));
  state.counters["view_bytes_per_member"] =
      static_cast<double>(gossip.view_slots() *
                          sizeof(overlay::GossipService::Entry)) /
      session.alive_count();
}
BENCHMARK(BM_GossipPeriod)
    ->Arg(2000)
    ->Arg(10000)
    ->Iterations(8)
    ->Unit(benchmark::kMillisecond);

void BM_MlcSelection(benchmark::State& state) {
  // A realistic partial view: ~100 known members of a churned overlay.
  sim::Simulator sim;
  rnd::Rng topo_rng(1);
  const net::Topology topo =
      net::Topology::Generate(net::SmallTopologyParams(), topo_rng);
  overlay::Session session(sim, topo,
                           exp::MakeProtocol(exp::Algorithm::kMinDepth,
                                             core::RostParams{}),
                           overlay::SessionParams{}, 3);
  session.Prepopulate(800);
  sim.RunUntil(600.0);
  rnd::Rng rng(7);
  for (auto _ : state) {
    const auto known = session.SampleCandidates(100, overlay::kNoNode);
    const core::PartialTree view = core::PartialTree::Build(session.tree(), known);
    benchmark::DoNotOptimize(
        core::FindMlcGroup(view, 3, overlay::kNoNode, rng));
  }
}
BENCHMARK(BM_MlcSelection);

void BM_SimulateOutage(benchmark::State& state) {
  core::OutageSpec spec;
  spec.chain = {{true, 0.3, 0.01}, {true, 0.4, 0.01}, {true, 0.2, 0.01}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SimulateOutage(spec));
  }
}
BENCHMARK(BM_SimulateOutage);

void BM_ChurnScenario(benchmark::State& state) {
  rnd::Rng topo_rng(1);
  const net::Topology topo =
      net::Topology::Generate(net::SmallTopologyParams(), topo_rng);
  for (auto _ : state) {
    exp::ScenarioConfig config;
    config.population = 500;
    config.warmup_s = 600.0;
    config.measure_s = 600.0;
    config.seed = 5;
    benchmark::DoNotOptimize(
        RunTreeScenario(topo, exp::Algorithm::kRost, config));
  }
}
BENCHMARK(BM_ChurnScenario)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
