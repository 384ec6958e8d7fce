// Chaos-harness tests: the ROST lease handshake under a lossy control
// plane, CER stripe failover when a recovery server dies mid-repair,
// recovery-group shrink fallback, and full RunChaosScenario runs (seeded
// reproducibility, plus the 500-member acceptance run: 5% loss + a
// correlated stub-domain kill must leave zero wedged locks and every
// surviving member rooted).
#include "exp/chaos.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "core/rost/rost.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "proto/min_depth.h"
#include "sim/fault_plane.h"
#include "sim/simulator.h"

namespace omcast::exp {
namespace {

using core::RostParams;
using core::RostProtocol;
using overlay::kNoNode;
using overlay::kRootId;
using overlay::NodeId;
using overlay::Session;
using overlay::SessionParams;
using overlay::Tree;

// ---------------------------------------------------------------------------
// Lease-path locking unit tests: a hand-built root <- parent <- child chain
// where the child's BTP overtakes the parent's, driven over a FaultPlane.
// ---------------------------------------------------------------------------

class LeasePathTest : public ::testing::Test {
 protected:
  LeasePathTest() {
    rnd::Rng topo_rng(1);
    topology_ = std::make_unique<net::Topology>(
        net::Topology::Generate(net::TinyTopologyParams(), topo_rng));
  }

  // Session with a retained RostProtocol routed through plane_.
  std::unique_ptr<Session> Make(RostParams params = {},
                                std::uint64_t seed = 3) {
    auto protocol = std::make_unique<RostProtocol>(params);
    rost_ = protocol.get();
    auto s = std::make_unique<Session>(sim_, *topology_, std::move(protocol),
                                       SessionParams{}, seed);
    plane_ = std::make_unique<sim::FaultPlane>(sim_, sim::FaultPlaneParams{},
                                               seed + 100);
    rost_->SetFaultPlane(plane_.get());
    return s;
  }

  // root(capacity 1) <- parent(bw 1) <- child(bw 4): the child's BTP grows
  // 4x faster, so the first periodic check wants the swap.
  void BuildChain(Session& s) {
    s.tree().SetCapacity(kRootId, 1);
    parent_ = s.InjectMember(1.0, 1e9);
    sim_.RunUntil(1.0);
    child_ = s.InjectMember(4.0, 1e9);
    sim_.RunUntil(2.0);
    ASSERT_EQ(s.tree().Parent(child_), parent_);
  }

  sim::Simulator sim_;
  std::unique_ptr<net::Topology> topology_;
  std::unique_ptr<sim::FaultPlane> plane_;
  RostProtocol* rost_ = nullptr;
  NodeId parent_ = kNoNode;
  NodeId child_ = kNoNode;
};

TEST_F(LeasePathTest, HandshakeOverCleanPlaneCompletesTheSwitch) {
  RostParams p;
  p.switching_interval_s = 100.0;
  auto s = Make(p);
  BuildChain(*s);
  sim_.RunUntil(150.0);
  // Same outcome as the oracle path's ChildWithHigherBtpAndBandwidth test,
  // but reached through request -> grant -> swap -> release messages.
  EXPECT_EQ(s->tree().Parent(child_), kRootId);
  EXPECT_EQ(s->tree().Parent(parent_), child_);
  EXPECT_EQ(rost_->switches_performed(), 1);
  // Lock set {child, parent, grandparent=root}: one self lease + two
  // participant leases, all released on teardown.
  EXPECT_GE(rost_->leases_granted(), 3);
  EXPECT_EQ(rost_->lock_timeouts(), 0);
  EXPECT_EQ(rost_->leases_outstanding(), 0);
  EXPECT_EQ(rost_->WedgedLeases(sim_.now()), 0);
  s->tree().CheckInvariants();
}

TEST_F(LeasePathTest, LostRequestsTimeOutBackOffAndEventuallySucceed) {
  RostParams p;
  p.switching_interval_s = 100.0;
  auto s = Make(p);
  BuildChain(*s);
  // Sever child -> parent: the lock request to the parent never arrives,
  // so no attempt can assemble its grant set.
  plane_->SetLinkLossRate(child_, parent_, 1.0);
  sim_.RunUntil(160.0);
  EXPECT_EQ(s->tree().Parent(child_), parent_);  // still stuck below
  EXPECT_EQ(rost_->switches_performed(), 0);
  EXPECT_GE(rost_->lock_timeouts(), 1);
  EXPECT_GE(rost_->lock_retries(), 1);
  // Timed-out attempts must not leak leases: everything granted so far
  // (self + the grandparent's grants) was released or has expired.
  EXPECT_EQ(rost_->WedgedLeases(sim_.now()), 0);

  // Heal the link: the next backoff retry completes the switch.
  plane_->ClearLinkOverrides();
  sim_.RunUntil(400.0);
  EXPECT_EQ(s->tree().Parent(child_), kRootId);
  EXPECT_EQ(rost_->switches_performed(), 1);
  EXPECT_EQ(rost_->leases_outstanding(), 0);
  EXPECT_EQ(rost_->WedgedLeases(sim_.now()), 0);
  s->tree().CheckInvariants();
}

TEST_F(LeasePathTest, DeadInitiatorsLeasesExpireInsteadOfWedging) {
  RostParams p;
  p.switching_interval_s = 1e8;  // manual triggering only
  auto s = Make(p);
  BuildChain(*s);
  sim_.RunUntil(50.0);
  // Start the handshake, then kill the initiator before any grant returns:
  // the participants' leases are granted to a corpse that will never send
  // releases. Without expiry this wedges parent and root forever.
  rost_->CheckSwitchNow(*s, child_);
  s->DepartNow(child_);
  EXPECT_GE(rost_->leases_granted(), 1);  // at least the self lease
  sim_.RunUntil(sim_.now() + core::kLockLeaseS + 1.0);
  EXPECT_EQ(rost_->switches_performed(), 0);
  EXPECT_EQ(rost_->leases_outstanding(), 0);  // all reaped by expiry
  EXPECT_GE(rost_->leases_expired(), 1);
  EXPECT_EQ(rost_->WedgedLeases(sim_.now()), 0);
}

// ---------------------------------------------------------------------------
// Saturated-tree preempt joins: when no rooted member has a spare slot, a
// contributor displaces the weakest rooted leaf and adopts it. This is the
// fallback that keeps a correlated kill of a high-fanout node -- which
// strands the overlay's spare capacity inside detached fragments -- from
// deadlocking every rejoin against a full tree.
// ---------------------------------------------------------------------------

TEST_F(LeasePathTest, SaturatedTreePreemptJoinDisplacesWeakestLeaf) {
  auto s = Make();
  s->tree().SetCapacity(kRootId, 1);
  const NodeId freerider = s->InjectMember(0.0, 1e9);
  sim_.RunUntil(1.0);
  ASSERT_EQ(s->tree().Parent(freerider), kRootId);  // tree now full
  const NodeId contributor = s->InjectMember(3.0, 1e9);
  sim_.RunUntil(2.0);
  // The contributor took the free-rider's slot and rehoused it: nobody is
  // detached and rooted fan-out grew by the contributor's spare capacity.
  EXPECT_EQ(s->tree().Parent(contributor), kRootId);
  EXPECT_EQ(s->tree().Parent(freerider), contributor);
  EXPECT_TRUE(s->tree().IsRooted(freerider));
  EXPECT_EQ(rost_->preempt_joins(), 1);
  s->tree().CheckInvariants();
}

TEST_F(LeasePathTest, JoinerWithoutSpareCapacityCannotPreempt) {
  auto s = Make();
  s->tree().SetCapacity(kRootId, 1);
  const NodeId first = s->InjectMember(0.0, 1e9);
  sim_.RunUntil(1.0);
  ASSERT_EQ(s->tree().Parent(first), kRootId);
  // A free-rider cannot host the leaf it would displace (and displacing an
  // equal would just ping-pong), so it stays in the retry loop instead.
  const NodeId second = s->InjectMember(0.0, 1e9);
  sim_.RunUntil(2.0);
  EXPECT_EQ(s->tree().Parent(second), kNoNode);
  EXPECT_EQ(rost_->preempt_joins(), 0);
}

// ---------------------------------------------------------------------------
// CER stripe failover and group-shrink fallback (packet-level stream).
// ---------------------------------------------------------------------------

class RepairChaosTest : public ::testing::Test {
 protected:
  RepairChaosTest() {
    rnd::Rng topo_rng(1);
    topology_ = std::make_unique<net::Topology>(
        net::Topology::Generate(net::TinyTopologyParams(), topo_rng));
  }

  void MakeSession(std::uint64_t seed = 5) {
    SessionParams sp;
    sp.rejoin_delay_s = 15.0;
    session_ = std::make_unique<Session>(
        sim_, *topology_, std::make_unique<proto::MinDepthProtocol>(), sp,
        seed);
  }

  sim::Simulator sim_;
  std::unique_ptr<net::Topology> topology_;
  std::unique_ptr<Session> session_;
};

TEST_F(RepairChaosTest, ServerDeathMidRepairFailsOverToSurvivingStripe) {
  MakeSession();
  stream::PacketSimParams p;
  p.recovery_group_size = 4;
  p.residual_lo_pkts = 2.0;  // every stripe serves at a real rate
  stream::PacketLevelStream packets(*session_, p, 11);
  for (int i = 0; i < 25; ++i) session_->InjectMember(1.0, 1e9);
  const NodeId hub = session_->InjectMember(5.0, 1e9);
  const NodeId victim = session_->InjectMember(0.5, 1e9);
  sim_.RunUntil(1.0);
  Tree& tree = session_->tree();
  if (tree.Parent(victim) != hub) {
    tree.Detach(victim);
    tree.Attach(hub, victim);
  }
  packets.Start(150.0);
  sim_.RunUntil(20.0);
  session_->DepartNow(hub);  // victim's 15 s hole; stripes start at +5 s
  sim_.RunUntil(26.0);       // stripes have been serving for ~1 s
  const std::vector<NodeId> servers = packets.ActiveRepairServers();
  ASSERT_FALSE(servers.empty());
  NodeId dead_server = kNoNode;
  for (NodeId server : servers) {
    if (server == kRootId || !tree.Alive(server)) continue;
    dead_server = server;
    break;
  }
  ASSERT_NE(dead_server, kNoNode);
  session_->DepartNow(dead_server);
  sim_.RunUntil(300.0);
  packets.FinalizeAliveMembers();
  // The dead server's remaining range moved to a surviving group member and
  // kept serving; the victim's hole still shrinks well below no-recovery.
  EXPECT_GE(packets.stripe_failovers(), 1);
  EXPECT_GT(packets.repairs_scheduled(), 0);
  EXPECT_LT(packets.ratio_stat().max(), 0.15);
}

TEST_F(RepairChaosTest, ShrunkenRecoveryGroupFallsBackToFewerStripes) {
  MakeSession();
  stream::PacketSimParams p;
  p.recovery_group_size = 6;  // more stripes than live candidates
  p.residual_lo_pkts = 2.0;
  stream::PacketLevelStream packets(*session_, p, 7);
  const NodeId hub = session_->InjectMember(5.0, 1e9);
  const NodeId victim = session_->InjectMember(0.5, 1e9);
  session_->InjectMember(1.0, 1e9);
  session_->InjectMember(1.0, 1e9);
  sim_.RunUntil(1.0);
  Tree& tree = session_->tree();
  if (tree.Parent(victim) != hub) {
    tree.Detach(victim);
    tree.Attach(hub, victim);
  }
  packets.Start(100.0);
  sim_.RunUntil(20.0);
  session_->DepartNow(hub);  // only ~3 possible servers for 6 stripes
  sim_.RunUntil(200.0);
  packets.FinalizeAliveMembers();
  EXPECT_GE(packets.short_group_fallbacks(), 1);
  EXPECT_GT(packets.repairs_scheduled(), 0);
}

// ---------------------------------------------------------------------------
// Full chaos scenarios.
// ---------------------------------------------------------------------------

// Cheap tiny-topology config exercising every injection at once.
ChaosConfig TinyChaosConfig(std::uint64_t seed) {
  ChaosConfig c;
  c.population = 60;
  c.warmup_s = 300.0;
  c.stream_s = 60.0;
  c.drain_s = 60.0;
  c.seed = seed;
  c.fault.loss_rate = 0.02;
  c.fault.dup_prob = 0.01;
  c.fault.jitter_s = 0.02;
  // A 60-member session under the default 100-child root would be a star
  // (no orphans, no switches); cap the root so the tree has real depth.
  c.session.root_bandwidth = 5.0;
  c.rost.switching_interval_s = 60.0;
  c.flash_at_s = 10.0;
  c.flash_departures = 5;
  c.mid_repair_kill_at_s = 20.0;
  return c;
}

bool SameResult(const ChaosResult& a, const ChaosResult& b) {
  return a.registry == b.registry &&
         a.avg_starving_ratio == b.avg_starving_ratio &&
         a.members == b.members &&
         a.flash_members_killed == b.flash_members_killed &&
         a.domain_members_killed == b.domain_members_killed &&
         a.mid_repair_kill_fired == b.mid_repair_kill_fired &&
         a.unrooted_members == b.unrooted_members &&
         a.final_population == b.final_population;
}

// Reads a "chaos.*" counter from the result's registry snapshot; throws (and
// so fails the test) if the run did not export it.
double Chaos(const ChaosResult& r, const std::string& name) {
  return r.registry.at("chaos." + name);
}

TEST(ChaosScenario, TinyRunSurvivesFlashAndMidRepairKills) {
  rnd::Rng topo_rng(1);
  const net::Topology topology =
      net::Topology::Generate(net::TinyTopologyParams(), topo_rng);
  const ChaosResult r = RunChaosScenario(topology, TinyChaosConfig(21));
  EXPECT_TRUE(r.zero_wedged_locks);
  EXPECT_EQ(Chaos(r, "wedged_leases"), 0.0);
  EXPECT_EQ(r.flash_members_killed, 5);
  EXPECT_GT(Chaos(r, "heartbeats_sent"), 0.0);
  EXPECT_GT(Chaos(r, "messages_dropped"), 0.0);
  EXPECT_GT(Chaos(r, "repairs_scheduled"), 0.0);
  EXPECT_GT(r.final_population, 0);
  // Lease accounting identity: every grant is released, expired or still
  // legitimately held.
  EXPECT_EQ(Chaos(r, "leases_granted"),
            Chaos(r, "leases_released") + Chaos(r, "leases_expired") +
                Chaos(r, "leases_outstanding"));
}

TEST(ChaosScenario, SameSeedReplaysBitIdentically) {
  rnd::Rng topo_rng(1);
  const net::Topology topology =
      net::Topology::Generate(net::TinyTopologyParams(), topo_rng);
  const ChaosResult a = RunChaosScenario(topology, TinyChaosConfig(33));
  const ChaosResult b = RunChaosScenario(topology, TinyChaosConfig(33));
  EXPECT_TRUE(SameResult(a, b))
      << "two chaos runs with the same seed diverged: the fault schedule "
         "or an injection is not deterministic";
  const ChaosResult c = RunChaosScenario(topology, TinyChaosConfig(34));
  EXPECT_FALSE(SameResult(a, c)) << "the comparison is vacuous";
}

// The run exports exactly these resilience counters. Most tests read only a
// few of them, so a counter dropped or renamed on the way into the registry
// would otherwise go unnoticed.
TEST(ChaosScenario, RegistryExportsEveryResilienceCounter) {
  rnd::Rng topo_rng(1);
  const net::Topology topology =
      net::Topology::Generate(net::TinyTopologyParams(), topo_rng);
  const ChaosResult r = RunChaosScenario(topology, TinyChaosConfig(21));
  std::set<std::string> names;
  for (const auto& [name, value] : r.registry)
    if (name.starts_with("chaos.") || name.starts_with("qoe.") ||
        name.starts_with("reconnect."))
      names.insert(name);
  const std::set<std::string> expected = {
      "chaos.detections",
      "chaos.eln_sent",
      "chaos.false_suspicions",
      "chaos.handshake_aborts",
      "chaos.heartbeats_sent",
      "chaos.leases_expired",
      "chaos.leases_granted",
      "chaos.leases_outstanding",
      "chaos.leases_released",
      "chaos.lock_retries",
      "chaos.lock_timeouts",
      "chaos.mean_detection_latency_s",
      "chaos.messages_delivered",
      "chaos.messages_dropped",
      "chaos.messages_duplicated",
      "chaos.messages_sent",
      "chaos.preempt_joins",
      "chaos.repairs_scheduled",
      "chaos.short_group_fallbacks",
      "chaos.stripe_failovers",
      "chaos.wedged_leases",
      "qoe.decode_stalls",
      "qoe.degraded_time_fraction",
      "qoe.dependency_resyncs",
      "qoe.mean_recovery_to_cadence_s",
      "qoe.permanently_stalled",
      "qoe.regime_transitions",
      "reconnect.abandoned",
      "reconnect.attached",
      "reconnect.pending",
      "reconnect.scheduled",
  };
  EXPECT_EQ(names, expected);
}

// Incident analysis reads the live trace stream, so a caller tracer whose
// ring evicts must change nothing but its own eviction count.
TEST(ChaosScenario, IncidentsAreTheSameWithAndWithoutACallerTracer) {
  rnd::Rng topo_rng(1);
  const net::Topology topology =
      net::Topology::Generate(net::TinyTopologyParams(), topo_rng);
  ChaosConfig c = TinyChaosConfig(21);
  c.incident_analysis = true;
  const ChaosResult plain = RunChaosScenario(topology, c);
  obs::Tracer tracer(/*capacity=*/16);
  c.tracer = &tracer;
  const ChaosResult traced = RunChaosScenario(topology, c);

  EXPECT_GT(plain.incidents.at("incident.count"), 0.0);
  EXPECT_GT(tracer.dropped(), 0u);
  EXPECT_EQ(plain.incidents, traced.incidents);
  std::map<std::string, double> registry = traced.registry;
  EXPECT_EQ(registry.erase("obs.trace.evicted"), 1u);
  EXPECT_EQ(plain.registry, registry);
}

// The PR's acceptance scenario: 500 members on the paper-scale topology,
// 5% control-plane loss with duplication and jitter, plus a correlated
// stub-domain kill early in the stream. The hardened protocol must finish
// with no wedged locks and every surviving member attached to the root.
TEST(ChaosScenario, FiveHundredMembersSurviveLossAndDomainKill) {
  rnd::Rng topo_rng(1);
  const net::Topology topology =
      net::Topology::Generate(net::SmallTopologyParams(), topo_rng);
  ChaosConfig c;
  c.population = 500;
  c.warmup_s = 400.0;
  c.stream_s = 60.0;
  c.drain_s = 120.0;
  c.seed = 9;
  c.fault.loss_rate = 0.05;
  c.fault.dup_prob = 0.01;
  c.fault.jitter_s = 0.05;
  c.session.root_bandwidth = 20.0;  // force a deep tree at this scale
  c.rost.switching_interval_s = 120.0;
  c.domain_kill_at_s = 5.0;
  c.domain_kill_index = 1;
  const ChaosResult r = RunChaosScenario(topology, c);
  EXPECT_TRUE(r.zero_wedged_locks);
  EXPECT_EQ(Chaos(r, "wedged_leases"), 0.0);
  EXPECT_EQ(r.unrooted_members, 0) << "orphans failed to reattach";
  EXPECT_GT(r.domain_members_killed, 0);
  EXPECT_GT(Chaos(r, "messages_dropped"), 0.0);
  EXPECT_GT(Chaos(r, "detections"), 0.0);
  EXPECT_GT(Chaos(r, "leases_granted"), 0.0);
  EXPECT_EQ(Chaos(r, "leases_granted"),
            Chaos(r, "leases_released") + Chaos(r, "leases_expired") +
                Chaos(r, "leases_outstanding"));
  EXPECT_GT(r.final_population, 0);
}

// Regression: this exact bake-off cell (flash_crowd / clique, shared seed
// for rep 0) once hung forever. The flash kills a member that had earlier
// taken over a sibling repair stripe -- so it served two stripes of one
// group -- and OnDeparture's failover sweep, running while the departing
// member is still marked alive, handed each dead stripe back to the dying
// server, minting server==failed stripes faster than it retired them.
// FailoverStripe must never select the dead stripe's own server.
TEST(ChaosScenario, FlashCrowdSurvivesMidTakeoverServerDeath) {
  rnd::Rng topo_rng(1 ^ 0xde62adULL);
  const net::Topology topology =
      net::Topology::Generate(net::SmallTopologyParams(), topo_rng);
  ChaosConfig c;
  c.algorithm = Algorithm::kClique;
  c.population = 150;
  c.warmup_s = 300.0;
  c.stream_s = 90.0;
  c.drain_s = 90.0;
  c.seed = 12887781531040884567ULL;  // CellSeed(1, "bakeoff", "flash_crowd",
                                     // "shared", 0)
  c.fault.loss_rate = 0.02;
  c.fault.dup_prob = 0.01;
  c.fault.jitter_s = 0.02;
  c.session.root_bandwidth = 16.0;
  c.rost.switching_interval_s = 120.0;
  c.packet.frame_playback = true;
  c.flash_at_s = 10.0;
  c.flash_departures = 30;
  const ChaosResult r = RunChaosScenario(topology, c);
  EXPECT_GT(Chaos(r, "stripe_failovers"), 0.0)
      << "the mid-takeover failover no longer fires; the regression is "
         "vacuous";
  EXPECT_TRUE(r.zero_wedged_locks);
  EXPECT_EQ(r.unrooted_members, 0) << "orphans failed to reattach";
  EXPECT_EQ(r.reentries_pending, 0);
  EXPECT_GT(r.final_population, 0);
}

}  // namespace
}  // namespace omcast::exp
