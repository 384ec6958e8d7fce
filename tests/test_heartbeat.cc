// HeartbeatService tests: genuine detection (parent really died) with
// bounded latency, no false suspicions on a clean plane, false suspicion +
// disruption-free recovery when a link is fully severed, free riders that
// never wake to send, and suspicions that land exactly on the deadline.
#include "overlay/heartbeat.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

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

TEST_F(HeartbeatTest, FreeRidersNeverWakeToSend) {
  MakeSession();
  HeartbeatService hb(*session_, {}, 7);
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
  // Several suspicion timeouts of beats: the child's monitor has fired
  // early and re-armed at its deadline more than once.
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

}  // namespace
}  // namespace omcast::overlay
