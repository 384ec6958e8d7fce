// Reconnect/re-entry state machine and frame-dependency playback tests:
// the bounded-retry re-entry path (successor creation, exponential backoff
// bounds, abandonment), rejoin races under a lossy control plane leaving no
// wedged leases or unresolved re-entries, mid-GOP entry desync/resync, and
// escape from the degraded playback regime after an upstream outage heals.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/rost/rost.h"
#include "exp/chaos.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "overlay/session.h"
#include "proto/min_depth.h"
#include "sim/simulator.h"
#include "stream/packet_sim.h"

namespace omcast {
namespace {

using overlay::kNoNode;
using overlay::kRootId;
using overlay::NodeId;
using overlay::Session;
using overlay::SessionParams;

long CountKind(const obs::Tracer& tracer, obs::EventKind kind) {
  long n = 0;
  for (const obs::TraceEvent& e : tracer.Events())
    if (e.kind == kind) ++n;
  return n;
}

class ReentryTest : public ::testing::Test {
 protected:
  ReentryTest() {
    rnd::Rng topo_rng(1);
    topology_ = std::make_unique<net::Topology>(
        net::Topology::Generate(net::TinyTopologyParams(), topo_rng));
  }

  std::unique_ptr<Session> Make(SessionParams sp = {},
                                std::uint64_t seed = 3) {
    auto s = std::make_unique<Session>(
        sim_, *topology_, std::make_unique<proto::MinDepthProtocol>(), sp,
        seed);
    s->SetTracer(&tracer_);
    return s;
  }

  sim::Simulator sim_;
  std::unique_ptr<net::Topology> topology_;
  obs::Tracer tracer_;
};

TEST_F(ReentryTest, SuccessorInheritsBandwidthAndAttaches) {
  auto s = Make();
  const NodeId v = s->InjectMember(2.5, 1e9);
  sim_.RunUntil(1.0);
  ASSERT_TRUE(s->tree().IsRooted(v));
  s->DepartNow(v);
  s->ScheduleReentry(v, /*downtime_s=*/5.0, /*lifetime_s=*/1e9);
  EXPECT_EQ(s->reentries_scheduled(), 1);
  EXPECT_EQ(s->reentries_pending(), 1);
  sim_.RunUntil(10.0);

  // The successor is a new member carrying the predecessor's bandwidth
  // (same household, new session).
  NodeId successor = kNoNode;
  for (NodeId id : s->alive_members())
    if (s->ReentryPredecessor(id) == v) successor = id;
  ASSERT_NE(successor, kNoNode);
  EXPECT_NE(successor, v);
  EXPECT_DOUBLE_EQ(s->tree().Get(successor).bandwidth, 2.5);
  EXPECT_TRUE(s->tree().IsRooted(successor));
  EXPECT_EQ(s->reentries_attached(), 1);
  EXPECT_EQ(s->reentries_pending(), 0);
  EXPECT_EQ(CountKind(tracer_, obs::EventKind::kReconnectStart), 1);
  EXPECT_EQ(CountKind(tracer_, obs::EventKind::kReconnectAttached), 1);
  // Ordinary members are not re-entries.
  EXPECT_EQ(s->ReentryPredecessor(v), kNoNode);
}

TEST_F(ReentryTest, BoundedRetryBacksOffExponentiallyThenAbandons) {
  SessionParams sp;
  sp.join_retry_delay_s = 1.0;
  sp.reentry_max_attempts = 4;
  sp.reentry_backoff_cap = 4;
  auto s = Make(sp);
  // A zero-bandwidth member joins the capacity-1 root, departs, and another
  // zero-bandwidth member takes the only slot: the returning successor (also
  // bandwidth 0, inherited) can neither find a slot nor displace anyone, so
  // every bounded attempt fails.
  s->tree().SetCapacity(kRootId, 1);
  const NodeId v = s->InjectMember(0.0, 1e9);
  sim_.RunUntil(1.0);
  ASSERT_EQ(s->tree().Parent(v), kRootId);
  s->DepartNow(v);
  const NodeId blocker = s->InjectMember(0.0, 1e9);
  sim_.RunUntil(2.0);
  ASSERT_EQ(s->tree().Parent(blocker), kRootId);

  s->ScheduleReentry(v, /*downtime_s=*/3.0, /*lifetime_s=*/1e9);
  // Attempts run at t=5, 6, 8, 12: backoff 2^(k-1) capped at 4 times the
  // 1 s base delay. Just before the fourth (final) attempt the re-entry is
  // still pending...
  sim_.RunUntil(11.5);
  EXPECT_EQ(s->reentries_abandoned(), 0);
  EXPECT_EQ(s->reentries_pending(), 1);
  // ...and just after it the member gave up for good.
  sim_.RunUntil(12.5);
  EXPECT_EQ(s->reentries_abandoned(), 1);
  EXPECT_EQ(s->reentries_attached(), 0);
  EXPECT_EQ(s->reentries_pending(), 0);
  // No zombie successor lingers after abandonment.
  for (NodeId id : s->alive_members()) EXPECT_EQ(s->ReentryPredecessor(id), kNoNode);
  const std::vector<obs::TraceEvent> events = tracer_.Events();
  const auto it = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.kind == obs::EventKind::kReconnectAbandoned;
  });
  ASSERT_NE(it, events.end());
  EXPECT_EQ(it->detail, 4);  // attempts used
  EXPECT_EQ(CountKind(tracer_, obs::EventKind::kReconnectAttached), 0);
}

TEST_F(ReentryTest, ReentryWithNoFreeHostsAbandonsImmediately) {
  auto s = Make();
  const NodeId v = s->InjectMember(1.0, 1e9);
  sim_.RunUntil(1.0);
  s->DepartNow(v);
  // Exhaust the stub hosts before the downtime elapses: the re-entry cannot
  // even create its successor record and abandons up front.
  while (s->alive_count() + 1 < topology_->num_stub_nodes())
    s->InjectMember(1.0, 1e9);
  s->ScheduleReentry(v, 2.0, 1e9);
  sim_.RunUntil(10.0);
  EXPECT_EQ(s->reentries_abandoned(), 1);
  EXPECT_EQ(s->reentries_pending(), 0);
  EXPECT_EQ(CountKind(tracer_, obs::EventKind::kReconnectAbandoned), 1);
}

// ---------------------------------------------------------------------------
// Frame-dependency playback.
// ---------------------------------------------------------------------------

class PlaybackTest : public ::testing::Test {
 protected:
  PlaybackTest() {
    rnd::Rng topo_rng(1);
    topology_ = std::make_unique<net::Topology>(
        net::Topology::Generate(net::TinyTopologyParams(), topo_rng));
  }

  // The packet stream requires the rejoin delay to cover its detection
  // time, so the fixture defaults to the paper's 15 s.
  void MakeSession(SessionParams sp = {}) {
    if (sp.rejoin_delay_s <= 0.0) sp.rejoin_delay_s = 15.0;
    session_ = std::make_unique<Session>(
        sim_, *topology_, std::make_unique<proto::MinDepthProtocol>(), sp, 5);
    session_->SetTracer(&tracer_);
  }

  sim::Simulator sim_;
  std::unique_ptr<net::Topology> topology_;
  std::unique_ptr<Session> session_;
  obs::Tracer tracer_;
};

TEST_F(PlaybackTest, MidGopEntryDesyncsThenResyncsOnNextReference) {
  MakeSession();
  stream::PacketSimParams p;
  p.packet_rate = 5.0;
  p.frame_playback = true;
  p.gop_size = 10;
  p.warmup_absorb_s = 0.0;  // judge startup stalls instead of absorbing them
  stream::PacketLevelStream stream(*session_, p, 11);
  session_->InjectMember(3.0, 1e9);
  sim_.RunUntil(1.0);
  stream.Start(60.0);
  // Join mid-GOP: GOP 1 spans seqs 10..19 (t = 2..4 s at 5 pkt/s); a member
  // arriving at t=3.1 has first_seq 16 and never plays GOP 1's reference,
  // so its on-time dependent frames are decode stalls until the reference
  // of GOP 2 (seq 20) resynchronizes it.
  NodeId late = kNoNode;
  sim_.ScheduleAt(3.1, [&] { late = session_->InjectMember(1.0, 1e9); });
  sim_.RunUntil(5.0);
  ASSERT_NE(late, kNoNode);
  ASSERT_TRUE(session_->tree().IsRooted(late));
  sim_.RunUntil(120.0);
  stream.FinalizeAliveMembers();
  EXPECT_GE(stream.decode_stalls(), 1);
  EXPECT_GE(stream.dependency_resyncs(), 1);
  EXPECT_GE(CountKind(tracer_, obs::EventKind::kDependencyResync), 1);
  EXPECT_GE(CountKind(tracer_, obs::EventKind::kDecodeStall), 1);
}

TEST_F(PlaybackTest, WarmupWindowAbsorbsStartupStalls) {
  MakeSession();
  stream::PacketSimParams p;
  p.packet_rate = 5.0;
  p.frame_playback = true;
  p.gop_size = 10;
  p.warmup_absorb_s = 30.0;  // covers every startup stall in this run
  stream::PacketLevelStream stream(*session_, p, 11);
  session_->InjectMember(3.0, 1e9);
  sim_.RunUntil(1.0);
  stream.Start(60.0);
  NodeId late = kNoNode;
  sim_.ScheduleAt(3.1, [&] { late = session_->InjectMember(1.0, 1e9); });
  sim_.RunUntil(5.0);
  ASSERT_NE(late, kNoNode);
  ASSERT_TRUE(session_->tree().IsRooted(late));
  sim_.RunUntil(120.0);
  stream.FinalizeAliveMembers();
  // The same mid-GOP entry as above, but the grace window swallows the
  // stalls: none are judged, so none can push the member out of nominal.
  EXPECT_EQ(stream.decode_stalls(), 0);
  EXPECT_EQ(stream.regime_transitions(), 0);
}

TEST_F(PlaybackTest, ParentDeathDegradesThenRecoversCadence) {
  SessionParams sp;
  sp.rejoin_delay_s = 15.0;
  MakeSession(sp);
  stream::PacketSimParams p;
  p.packet_rate = 5.0;
  p.buffer_s = 0.5;  // a 15 s hole cannot hide inside the playout buffer
  p.detect_s = 5.0;
  p.frame_playback = true;
  stream::PacketLevelStream stream(*session_, p, 11);
  const NodeId hub = session_->InjectMember(5.0, 1e9);
  const NodeId victim = session_->InjectMember(0.5, 1e9);
  sim_.RunUntil(1.0);
  overlay::Tree& tree = session_->tree();
  if (tree.Parent(victim) != hub) {
    tree.Detach(victim);
    tree.Attach(hub, victim);
  }
  stream.Start(120.0);
  sim_.RunUntil(20.0);
  ASSERT_EQ(stream.PlaybackRegimeOf(victim), 0);
  session_->DepartNow(hub);
  // Mid-outage (hole longer than the buffer, judged before any repair
  // stripes could refill upcoming deadlines) the victim has left nominal
  // cadence...
  sim_.RunUntil(26.0);
  EXPECT_GE(stream.PlaybackRegimeOf(victim), 1);
  // ...and within one rejoin plus a few judgment windows it escapes back.
  sim_.RunUntil(60.0);
  EXPECT_EQ(stream.PlaybackRegimeOf(victim), 0);
  EXPECT_GE(stream.recovery_latency_stat().count(), 1);
  EXPECT_LT(stream.recovery_latency_stat().mean(), 40.0);
  sim_.RunUntil(200.0);
  stream.FinalizeAliveMembers();
  EXPECT_EQ(stream.permanently_stalled(), 0);
  EXPECT_GT(stream.degraded_fraction_stat().mean(), 0.0);
  EXPECT_GE(CountKind(tracer_, obs::EventKind::kPlaybackRegime), 2);
}

TEST_F(PlaybackTest, FramePlaybackDoesNotPerturbDeliveryFates) {
  // Playback judgment draws no randomness and sends no messages: the same
  // seeded run with and without it must produce identical delivery and
  // starving accounting.
  const auto run = [&](bool frame_playback, long* deliveries, double* ratio) {
    sim::Simulator sim;
    rnd::Rng topo_rng(1);
    const net::Topology topo =
        net::Topology::Generate(net::TinyTopologyParams(), topo_rng);
    SessionParams sp;
    sp.rejoin_delay_s = 15.0;
    Session session(sim, topo, std::make_unique<proto::MinDepthProtocol>(),
                    sp, 7);
    stream::PacketSimParams p;
    p.packet_rate = 5.0;
    p.frame_playback = frame_playback;
    stream::PacketLevelStream stream(session, p, 13);
    session.Prepopulate(40);
    session.StartArrivals(40.0 / 1809.0);
    stream.Start(90.0);
    sim.RunUntil(200.0);
    session.StopArrivals();
    stream.FinalizeAliveMembers();
    *deliveries = stream.deliveries();
    *ratio = stream.ratio_stat().mean();
  };
  long d_off = 0, d_on = 0;
  double r_off = 0.0, r_on = 0.0;
  run(false, &d_off, &r_off);
  run(true, &d_on, &r_on);
  EXPECT_EQ(d_off, d_on);
  EXPECT_DOUBLE_EQ(r_off, r_on);
}

// ---------------------------------------------------------------------------
// Rejoin races under load: the acceptance storm.
// ---------------------------------------------------------------------------

// A reconnect storm (20% of the membership departing and re-entering under
// 5% control-plane loss) must finish with zero wedged leases, every
// re-entry resolved, and no permanently stalled playback session.
TEST(ReconnectStorm, ResolvesEveryReentryWithoutWedgingLeases) {
  rnd::Rng topo_rng(1);
  const net::Topology topology =
      net::Topology::Generate(net::TinyTopologyParams(), topo_rng);
  exp::ChaosConfig c;
  c.population = 60;
  c.warmup_s = 300.0;
  c.stream_s = 60.0;
  c.drain_s = 60.0;
  c.seed = 7;
  c.fault.loss_rate = 0.05;
  c.fault.dup_prob = 0.01;
  c.fault.jitter_s = 0.02;
  c.session.root_bandwidth = 5.0;
  c.rost.switching_interval_s = 60.0;
  c.packet.frame_playback = true;
  c.reconnect_storm_at_s = 10.0;
  c.reconnect_storm_fraction = 0.2;
  c.reconnect_downtime_mean_s = 5.0;
  const exp::ChaosResult r = exp::RunChaosScenario(topology, c);
  EXPECT_TRUE(r.zero_wedged_locks);
  EXPECT_EQ(r.registry.at("chaos.wedged_leases"), 0.0);
  // >= 10% of the nominal population actually went through the storm.
  EXPECT_GE(r.reconnect_storm_killed, 6);
  EXPECT_EQ(r.reentries_scheduled, r.reconnect_storm_killed);
  EXPECT_EQ(r.reentries_attached + r.reentries_abandoned,
            r.reentries_scheduled);
  EXPECT_EQ(r.reentries_pending, 0) << "a re-entry neither attached nor "
                                       "abandoned: the retry chain wedged";
  EXPECT_EQ(r.permanently_stalled, 0);
  // The storm surfaces in the exported registry too.
  ASSERT_TRUE(r.registry.contains("reconnect.scheduled"));
  EXPECT_EQ(r.registry.at("reconnect.scheduled"),
            static_cast<double>(r.reentries_scheduled));
  EXPECT_EQ(r.registry.at("reconnect.pending"), 0.0);
}

}  // namespace
}  // namespace omcast
