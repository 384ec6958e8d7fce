// HeartbeatService tests: genuine detection (parent really died) with
// bounded latency, no false suspicions on a clean plane, false suspicion +
// disruption-free recovery when a link is fully severed, free riders that
// never wake to send, and suspicions that land exactly on the deadline.
//
// The differential tests run each scenario twice on the same seeds: once
// with a zero-loss, zero-jitter FaultPlane, which runs the per-beat event
// path (it delivers at exactly now + hop: its jitter draw is Uniform(0, 0),
// and its RNG is separate from the session's), and once with none, which
// runs the closed form. Every output must agree to the bit.
#include "overlay/heartbeat.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "core/rost/rost.h"
#include "exp/scenario.h"
#include "net/topology.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "proto/min_depth.h"
#include "sim/fault_plane.h"
#include "sim/simulator.h"

namespace omcast::overlay {
namespace {

// Times at which `kind` was traced for `subject`.
std::vector<double> TracedTimes(const obs::Tracer& tracer, obs::EventKind kind,
                                NodeId subject) {
  std::vector<double> times;
  for (const obs::TraceEvent& ev : tracer.Events())
    if (ev.kind == kind && ev.subject == subject) times.push_back(ev.t);
  return times;
}

class HeartbeatTest : public ::testing::Test {
 protected:
  HeartbeatTest() {
    rnd::Rng topo_rng(1);
    topology_ = std::make_unique<net::Topology>(
        net::Topology::Generate(net::TinyTopologyParams(), topo_rng));
  }

  void MakeSession(std::uint64_t seed = 5) {
    SessionParams sp;
    sp.external_failure_detection = true;
    session_ = std::make_unique<Session>(
        sim_, *topology_, std::make_unique<proto::MinDepthProtocol>(), sp,
        seed);
  }

  sim::Simulator sim_;
  std::unique_ptr<net::Topology> topology_;
  std::unique_ptr<Session> session_;
};

TEST_F(HeartbeatTest, DetectsRealParentDeathAndRejoinsTheOrphan) {
  MakeSession();
  HeartbeatParams hp;  // period 1 s, 3 misses -> 4 s suspicion timeout
  HeartbeatService hb(*session_, hp, 7);

  Tree& tree = session_->tree();
  tree.SetCapacity(kRootId, 1);
  const NodeId parent = session_->InjectMember(2.0, 1e9);
  sim_.RunUntil(1.0);
  const NodeId child = session_->InjectMember(1.0, 1e9);
  sim_.RunUntil(2.0);
  ASSERT_EQ(tree.Parent(child), parent);

  session_->DepartNow(parent);
  // The session must NOT have rejoined the orphan on its own...
  EXPECT_EQ(tree.Parent(child), kNoNode);
  // ...but the detector notices the silence within its timeout (+1 beat of
  // phase, + hops) and re-enters the join path.
  sim_.RunUntil(sim_.now() + hb.SuspicionTimeout() + hp.period_s + 1.0);
  EXPECT_EQ(hb.detections(), 1);
  EXPECT_EQ(hb.false_suspicions(), 0);
  EXPECT_NE(tree.Parent(child), kNoNode);
  EXPECT_TRUE(tree.IsRooted(child));

  // Latency metric: the silence clock starts at the last beat *before* the
  // death, so latency spans [timeout - period, timeout + period] (+ hops).
  ASSERT_EQ(hb.detection_latency().count(), 1);
  EXPECT_GE(hb.detection_latency().mean(),
            hb.SuspicionTimeout() - hp.period_s - 0.5);
  EXPECT_LE(hb.detection_latency().mean(),
            hb.SuspicionTimeout() + hp.period_s + 0.5);
}

TEST_F(HeartbeatTest, QuietCleanPlaneProducesNoSuspicions) {
  MakeSession();
  HeartbeatService hb(*session_, {}, 7);
  session_->Prepopulate(30);
  sim_.RunUntil(60.0);
  EXPECT_GT(hb.heartbeats_sent(), 0);
  EXPECT_EQ(hb.false_suspicions(), 0);
}

TEST_F(HeartbeatTest, SeveredLinkCausesFalseSuspicionAndReconnection) {
  MakeSession();
  sim::FaultPlane plane(sim_, {}, 11);
  HeartbeatParams hp;
  HeartbeatService hb(*session_, hp, 7, &plane);

  Tree& tree = session_->tree();
  tree.SetCapacity(kRootId, 1);
  const NodeId parent = session_->InjectMember(2.0, 1e9);
  sim_.RunUntil(1.0);
  const NodeId child = session_->InjectMember(1.0, 1e9);
  sim_.RunUntil(2.0);
  ASSERT_EQ(tree.Parent(child), parent);
  const int reconnections_before = tree.Get(child).reconnections;

  // Sever parent -> child: every heartbeat is lost, though the parent is
  // alive and forwarding. The child cannot tell this from a death.
  plane.SetLinkLossRate(parent, child, 1.0);
  sim_.RunUntil(sim_.now() + hb.SuspicionTimeout() + hp.period_s + 2.0);
  EXPECT_GE(hb.false_suspicions(), 1);
  EXPECT_EQ(hb.detections(), 0);
  // The child re-entered the join path (charged as protocol overhead, not a
  // disruption) and is attached again.
  EXPECT_GT(tree.Get(child).reconnections, reconnections_before);
  EXPECT_TRUE(tree.Alive(child));
}

// Runs on the event path (a zero-loss plane), the only one with send
// events to count.
TEST_F(HeartbeatTest, FreeRidersNeverWakeToSend) {
  MakeSession();
  sim::FaultPlane plane(sim_, {}, 11);
  HeartbeatService hb(*session_, {}, 7, &plane);
  session_->Prepopulate(60);
  sim_.RunUntil(10.0);
  const Tree& tree = session_->tree();
  const std::vector<NodeId> alive = session_->alive_members();
  long beaters = 1;  // the source
  long free_riders = 0;
  for (NodeId id : alive) {
    ASSERT_NE(tree.Parent(id), kNoNode) << "member " << id;
    if (tree.Capacity(id) == 0)
      ++free_riders;
    else
      ++beaters;
  }
  ASSERT_GT(free_riders, 0);
  ASSERT_GT(beaters, 1);

  // Every member that can have a child fires once per period; a free rider
  // never fires at all.
  obs::SimProfiler prof;
  sim_.SetProfiler(&prof);
  constexpr int kPeriods = 5;
  sim_.RunUntil(10.0 + kPeriods * HeartbeatParams{}.period_s);
  sim_.SetProfiler(nullptr);
  ASSERT_EQ(session_->alive_members(), alive) << "membership changed";
  EXPECT_EQ(prof.per_tag().at("heartbeat.send").count,
            static_cast<std::uint64_t>(kPeriods * beaters));
  EXPECT_EQ(hb.false_suspicions(), 0);
}

// The closed-form twin of FreeRidersNeverWakeToSend: with no plane nothing
// is sent as an event, and over the same five periods heartbeats_sent()
// grows by exactly what the event path sends.
TEST_F(HeartbeatTest, ClosedFormCountsTheBeatsTheEventPathSends) {
  constexpr int kPeriods = 5;
  const auto sent_over_periods = [this](bool event_path) {
    sim::Simulator sim;
    SessionParams sp;
    sp.external_failure_detection = true;
    Session session(sim, *topology_,
                    std::make_unique<proto::MinDepthProtocol>(), sp, 5);
    sim::FaultPlane plane(sim, {}, 11);
    HeartbeatService hb(session, {}, 7, event_path ? &plane : nullptr);
    session.Prepopulate(60);
    sim.RunUntil(10.0);
    const long before = hb.heartbeats_sent();
    obs::SimProfiler prof;
    sim.SetProfiler(&prof);
    sim.RunUntil(10.0 + kPeriods * HeartbeatParams{}.period_s);
    sim.SetProfiler(nullptr);
    for (const char* tag : {"heartbeat.send", "net.deliver"})
      EXPECT_EQ(prof.per_tag().count(tag) != 0, event_path) << tag;
    EXPECT_EQ(hb.false_suspicions(), 0);
    return hb.heartbeats_sent() - before;
  };
  const long sent = sent_over_periods(/*event_path=*/true);
  EXPECT_GT(sent, 0);
  EXPECT_EQ(sent_over_periods(/*event_path=*/false), sent);
}

TEST_F(HeartbeatTest, OrphanSuspectsExactlyAtItsDeadline) {
  MakeSession();
  obs::Tracer tracer;
  session_->SetTracer(&tracer);
  HeartbeatService hb(*session_, {}, 7);

  Tree& tree = session_->tree();
  tree.SetCapacity(kRootId, 1);
  const NodeId parent = session_->InjectMember(2.0, 1e9);
  sim_.RunUntil(1.0);
  const NodeId child = session_->InjectMember(1.0, 1e9);
  // Several suspicion timeouts of beats: the attach-time monitor found a
  // beat had landed and retired; no monitor is pending while beats land.
  sim_.RunUntil(15.0);
  ASSERT_EQ(tree.Parent(child), parent);

  session_->DepartNow(parent);
  // No beat reaches the orphan any more: its last one fixed the deadline.
  const sim::Time deadline = hb.SuspicionDeadline(child);
  EXPECT_GT(deadline, sim_.now());
  EXPECT_LE(deadline, sim_.now() + hb.SuspicionTimeout());
  sim_.RunUntil(deadline + 1.0);
  EXPECT_EQ(hb.detections(), 1);
  EXPECT_EQ(TracedTimes(tracer, obs::EventKind::kSuspicion, child),
            std::vector<double>{deadline});
}

TEST_F(HeartbeatTest, SeveredLinkFalselySuspectsExactlyAtTheDeadline) {
  MakeSession();
  obs::Tracer tracer;
  session_->SetTracer(&tracer);
  sim::FaultPlane plane(sim_, {}, 11);
  HeartbeatService hb(*session_, {}, 7, &plane);

  Tree& tree = session_->tree();
  tree.SetCapacity(kRootId, 1);
  const NodeId parent = session_->InjectMember(2.0, 1e9);
  sim_.RunUntil(1.0);
  const NodeId child = session_->InjectMember(1.0, 1e9);
  sim_.RunUntil(15.0);
  ASSERT_EQ(tree.Parent(child), parent);

  plane.SetLinkLossRate(parent, child, 1.0);
  // Hops are milliseconds: within a second the last beat that left before
  // the cut has landed and moved the deadline for the last time.
  sim_.RunUntil(sim_.now() + 1.0);
  const sim::Time deadline = hb.SuspicionDeadline(child);
  EXPECT_GT(deadline, sim_.now());
  sim_.RunUntil(deadline + 1.0);
  EXPECT_EQ(hb.false_suspicions(), 1);
  EXPECT_EQ(TracedTimes(tracer, obs::EventKind::kFalseSuspicion, child),
            std::vector<double>{deadline});
}

// --- differential: closed form vs event path ---------------------------------

struct DiffScenario {
  DiffScenario() { session.root_bandwidth = 4.0; }  // a tree, not a star

  exp::Algorithm algorithm = exp::Algorithm::kRost;
  core::RostParams rost;
  SessionParams session;
  HeartbeatParams heartbeat;
  int population = 80;
  bool arrivals = true;
  // Members with children that leave right after prepopulation, before any
  // beat lands: their orphans suspect at the attach deadline.
  int early_departures = 0;
  double span_s = 900.0;
  int checkpoints = 6;
};

// What one run shows of failure detection.
struct DiffRun {
  // (t, kind, subject, parent) of heartbeat-miss, suspicion,
  // false-suspicion, join, rejoin and leave events, in emission order.
  using Event = std::tuple<double, int, std::int64_t, std::int64_t>;
  std::vector<Event> events;
  long detections = 0;
  long false_suspicions = 0;
  long sent = 0;
  std::size_t latency_count = 0;
  std::vector<std::uint64_t> latency_bits;  // mean, min, max
  // Per checkpoint: SuspicionDeadline() of every attached member, and
  // heartbeats_sent().
  std::vector<std::vector<std::pair<NodeId, double>>> deadlines;
  std::vector<long> sent_at;
  std::vector<NodeId> final_parents;
  // Not compared; they show what a scenario exercised.
  long dissolved = 0;  // children released by stuck fragment roots
  long switches = 0;   // ROST switches (re-parents without an attach hook)
};

class DiffLog : public obs::TraceSink {
 public:
  explicit DiffLog(DiffRun& run) : run_(run) {}
  void OnEvent(const obs::TraceEvent& ev) override {
    switch (ev.kind) {
      case obs::EventKind::kHeartbeatMiss:
      case obs::EventKind::kSuspicion:
      case obs::EventKind::kFalseSuspicion:
      case obs::EventKind::kJoin:
      case obs::EventKind::kRejoin:
      case obs::EventKind::kLeave:
        run_.events.emplace_back(ev.t, static_cast<int>(ev.kind), ev.subject,
                                 ev.peer);
        break;
      case obs::EventKind::kOrphaned:
        if (ev.detail == 2) ++run_.dissolved;
        break;
      case obs::EventKind::kSwitchCommit:
        ++run_.switches;
        break;
      default:
        break;
    }
  }

 private:
  DiffRun& run_;
};

DiffRun RunDiff(const net::Topology& topology, const DiffScenario& sc,
                std::uint64_t seed, bool event_path) {
  sim::Simulator sim;
  SessionParams sp = sc.session;
  sp.external_failure_detection = true;
  Session session(sim, topology, exp::MakeProtocol(sc.algorithm, sc.rost), sp,
                  seed);
  DiffRun run;
  DiffLog log(run);
  obs::Tracer tracer(/*capacity=*/1);
  tracer.AddSink(&log);
  session.SetTracer(&tracer);
  sim::FaultPlane plane(sim, {}, seed ^ 0xfa17ULL);
  HeartbeatService hb(session, sc.heartbeat, seed ^ 0xbea7ULL,
                      event_path ? &plane : nullptr);
  session.Prepopulate(sc.population);
  const Tree& tree = session.tree();
  int left = 0;
  for (NodeId id : std::vector<NodeId>(session.alive_members())) {
    if (left == sc.early_departures) break;
    if (tree.ChildCount(id) < 2) continue;
    session.DepartNow(id);
    ++left;
  }
  if (sc.arrivals) session.StartArrivals(exp::ArrivalRate(sc.population));
  for (int k = 1; k <= sc.checkpoints; ++k) {
    sim.RunUntil(sc.span_s * k / sc.checkpoints);
    std::vector<std::pair<NodeId, double>> deadlines;
    for (NodeId id = 1; id < static_cast<NodeId>(tree.size()); ++id)
      if (tree.Alive(id) && tree.Parent(id) != kNoNode)
        deadlines.emplace_back(id, hb.SuspicionDeadline(id));
    run.deadlines.push_back(std::move(deadlines));
    run.sent_at.push_back(hb.heartbeats_sent());
  }
  session.SetTracer(nullptr);
  run.detections = hb.detections();
  run.false_suspicions = hb.false_suspicions();
  run.sent = hb.heartbeats_sent();
  const util::RunningStat& latency = hb.detection_latency();
  run.latency_count = latency.count();
  for (const double v : {latency.mean(), latency.min(), latency.max()})
    run.latency_bits.push_back(std::bit_cast<std::uint64_t>(v));
  for (NodeId id = 0; id < static_cast<NodeId>(tree.size()); ++id)
    run.final_parents.push_back(tree.Parent(id));
  return run;
}

// Counts the suspicions that share an instant with another one, and fails
// the test unless each is at its member's attach deadline: the closed form
// keeps same-instant order only through the attach-time monitor.
long SameInstantSuspicions(const DiffRun& run, double timeout) {
  std::vector<double> attached_at;
  std::vector<std::pair<double, bool>> misses;  // (t, at attach deadline)
  for (const auto& [t, kind, subject, peer] : run.events) {
    const auto i = static_cast<std::size_t>(subject);
    if (attached_at.size() <= i) attached_at.resize(i + 1, -1.0);
    const auto k = static_cast<obs::EventKind>(kind);
    if (k == obs::EventKind::kJoin || k == obs::EventKind::kRejoin)
      attached_at[i] = t;
    if (k == obs::EventKind::kHeartbeatMiss)
      misses.emplace_back(t, attached_at[i] >= 0.0 &&
                                 t == attached_at[i] + timeout);
  }
  long shared = 0;
  for (std::size_t a = 0; a < misses.size(); ++a) {
    const bool with_prev = a > 0 && misses[a - 1].first == misses[a].first;
    const bool with_next =
        a + 1 < misses.size() && misses[a + 1].first == misses[a].first;
    if (!with_prev && !with_next) continue;
    ++shared;
    EXPECT_TRUE(misses[a].second)
        << "two suspicions share t=" << misses[a].first
        << " off an attach deadline";
  }
  return shared;
}

class HeartbeatDifferentialTest : public HeartbeatTest {
 protected:
  // Runs `sc` on both paths for each seed, requires identical outputs and
  // no same-instant suspicions off attach deadlines, and returns the
  // closed-form runs.
  std::vector<DiffRun> ExpectPathsAgree(const DiffScenario& sc,
                                        std::vector<std::uint64_t> seeds) {
    std::vector<DiffRun> runs;
    for (const std::uint64_t seed : seeds) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      const DiffRun events = RunDiff(*topology_, sc, seed, true);
      const DiffRun closed = RunDiff(*topology_, sc, seed, false);
      EXPECT_EQ(closed.detections, events.detections);
      EXPECT_EQ(closed.false_suspicions, events.false_suspicions);
      EXPECT_EQ(closed.sent, events.sent);
      EXPECT_EQ(closed.latency_count, events.latency_count);
      EXPECT_EQ(closed.latency_bits, events.latency_bits);
      EXPECT_EQ(closed.events, events.events);
      EXPECT_EQ(closed.sent_at, events.sent_at);
      EXPECT_EQ(closed.deadlines, events.deadlines);
      EXPECT_EQ(closed.final_parents, events.final_parents);
      EXPECT_GT(events.sent, 0);
      SameInstantSuspicions(closed, sc.heartbeat.period_s *
                                        (sc.heartbeat.miss_threshold + 1));
      runs.push_back(closed);
    }
    return runs;
  }
};

TEST_F(HeartbeatDifferentialTest, RostWithPrepopulationAndChurn) {
  DiffScenario sc;
  // Switches within the run: members re-parented without an attach hook
  // long after their attach-time monitor retired.
  sc.rost.switching_interval_s = 60.0;
  long detections = 0;
  long switches = 0;
  for (const DiffRun& run : ExpectPathsAgree(sc, {1, 2, 3})) {
    detections += run.detections;
    switches += run.switches;
  }
  EXPECT_GT(detections, 0);
  EXPECT_GT(switches, 0);
}

TEST_F(HeartbeatDifferentialTest, EarlyDeparturesPileUpAtTheAttachDeadline) {
  DiffScenario sc;
  sc.early_departures = 4;
  sc.span_s = 120.0;
  const double timeout = HeartbeatParams{}.period_s * 4;
  for (const DiffRun& run : ExpectPathsAgree(sc, {4, 5})) {
    long at_timeout = 0;
    for (const auto& [t, kind, subject, peer] : run.events)
      if (static_cast<obs::EventKind>(kind) == obs::EventKind::kSuspicion &&
          t == timeout)
        ++at_timeout;
    EXPECT_GE(at_timeout, 2);
    EXPECT_GE(SameInstantSuspicions(run, timeout), 2);
  }
}

TEST_F(HeartbeatDifferentialTest, CapacityCrunchDissolvesFragments) {
  DiffScenario sc;
  sc.algorithm = exp::Algorithm::kMinDepth;
  // The source's four slots (DiffScenario's small root_bandwidth) fill
  // fast, and early departures take the strongest parents' capacity with
  // them: orphaned subtrees find no room, and stuck fragment roots
  // release their children.
  sc.early_departures = 4;
  sc.span_s = 300.0;
  long dissolved = 0;
  for (const DiffRun& run : ExpectPathsAgree(sc, {6, 7}))
    dissolved += run.dissolved;
  EXPECT_GT(dissolved, 0);
}

// Evictions (relaxed BO/TO) and the clique protocol's preemptions and
// swaps re-parent members without an attach hook, as ROST's switches do.
TEST_F(HeartbeatDifferentialTest, EvictionsAndSwapsOfEveryProtocolAgree) {
  for (const exp::Algorithm a :
       {exp::Algorithm::kRelaxedBo, exp::Algorithm::kRelaxedTo,
        exp::Algorithm::kLongestFirst, exp::Algorithm::kClique}) {
    SCOPED_TRACE(exp::AlgorithmLabel(a));
    DiffScenario sc;
    sc.algorithm = a;
    ExpectPathsAgree(sc, {8});
  }
}

TEST_F(HeartbeatDifferentialTest,
       OneMissWithAPeriodUnderAHopSuspectsLiveParents) {
  DiffScenario sc;
  // A 4 ms period under the tiny topology's hops, and a deadline of two
  // periods: a child whose parent's first beat lands after it suspects the
  // live parent, rejoins, and often lands under the same parent again while
  // that parent's earlier beats are still in flight.
  sc.heartbeat.period_s = 0.004;
  sc.heartbeat.miss_threshold = 1;
  sc.population = 50;
  sc.span_s = 12.0;
  for (const DiffRun& run : ExpectPathsAgree(sc, {9, 10}))
    EXPECT_GT(run.false_suspicions, 0);
}

}  // namespace
}  // namespace omcast::overlay
