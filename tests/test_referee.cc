#include "core/rost/referee.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/rost/rost.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace omcast::core {
namespace {

using overlay::kRootId;
using overlay::NodeId;
using overlay::Session;
using overlay::SessionParams;

class RefereeTest : public ::testing::Test {
 protected:
  RefereeTest() {
    rnd::Rng topo_rng(1);
    topology_ = std::make_unique<net::Topology>(
        net::Topology::Generate(net::TinyTopologyParams(), topo_rng));
    RostParams p;
    p.use_referees = true;
    p.switching_interval_s = 1e8;  // manual switching only
    auto protocol = std::make_unique<RostProtocol>(p);
    rost_ = protocol.get();
    session_ = std::make_unique<Session>(sim_, *topology_, std::move(protocol),
                                         SessionParams{}, 5);
  }

  sim::Simulator sim_;
  std::unique_ptr<net::Topology> topology_;
  std::unique_ptr<Session> session_;
  RostProtocol* rost_ = nullptr;
};

TEST_F(RefereeTest, EnrollsOnFirstAttach) {
  // Seed some potential referees first.
  for (int i = 0; i < 10; ++i) session_->InjectMember(1.0, 1e9);
  const NodeId a = session_->InjectMember(2.0, 1e9);
  sim_.RunUntil(1.0);
  EXPECT_TRUE(rost_->referees().IsEnrolled(a));
}

TEST_F(RefereeTest, VerifiedValuesMatchGroundTruth) {
  for (int i = 0; i < 10; ++i) session_->InjectMember(1.0, 1e9);
  const NodeId a = session_->InjectMember(2.5, 1e9);
  sim_.RunUntil(100.0);
  EXPECT_NEAR(rost_->referees().VerifiedBandwidth(*session_, a), 2.5, 1e-12);
  EXPECT_NEAR(rost_->referees().VerifiedAge(*session_, a, sim_.now()),
              100.0, 1e-9);
}

TEST_F(RefereeTest, CheaterClaimsAreIgnoredWithReferees) {
  for (int i = 0; i < 10; ++i) session_->InjectMember(1.0, 1e9);
  const NodeId cheater = session_->InjectMember(0.9, 1e9);
  sim_.RunUntil(10.0);
  overlay::Member& m = session_->tree().Get(cheater);
  m.reported_bandwidth = 100.0;
  m.reported_age_bonus = 1e7;
  // Claimed BTP is enormous; the referee-attested one is honest.
  EXPECT_GT(m.ClaimedBtp(sim_.now()), 1e8);
  EXPECT_NEAR(rost_->EffectiveBtp(*session_, cheater), 0.9 * 10.0, 1e-6);
  EXPECT_NEAR(rost_->EffectiveBandwidth(*session_, cheater), 0.9, 1e-12);
}

TEST_F(RefereeTest, CheaterCannotClimbWithReferees) {
  session_->tree().SetCapacity(kRootId, 1);
  const NodeId honest = session_->InjectMember(2.0, 1e9);
  sim_.RunUntil(1.0);
  ASSERT_EQ(session_->tree().Parent(honest), kRootId);
  const NodeId cheater = session_->InjectMember(1.0, 1e9);
  sim_.RunUntil(2.0);
  ASSERT_TRUE(session_->tree().IsRooted(cheater));
  overlay::Member& m = session_->tree().Get(cheater);
  m.reported_bandwidth = 100.0;
  m.reported_age_bonus = 1e7;
  rost_->CheckSwitchNow(*session_, cheater);
  // Verified bandwidth 1.0 < honest's 2.0: no switch.
  EXPECT_NE(session_->tree().Layer(cheater), 1);
  EXPECT_EQ(rost_->switches_performed(), 0);
}

TEST_F(RefereeTest, CheaterClimbsWithoutReferees) {
  // Same situation but referees disabled: the claimed values drive the
  // switch and the cheater takes over layer 1.
  sim::Simulator sim;
  RostParams p;
  p.use_referees = false;
  p.switching_interval_s = 1e8;
  auto protocol = std::make_unique<RostProtocol>(p);
  RostProtocol* rost = protocol.get();
  Session session(sim, *topology_, std::move(protocol), SessionParams{}, 5);
  session.tree().SetCapacity(kRootId, 1);
  const NodeId honest = session.InjectMember(2.0, 1e9);
  sim.RunUntil(1.0);
  ASSERT_EQ(session.tree().Parent(honest), kRootId);
  const NodeId cheater = session.InjectMember(1.0, 1e9);
  sim.RunUntil(2.0);
  ASSERT_EQ(session.tree().Parent(cheater), honest);
  overlay::Member& m = session.tree().Get(cheater);
  m.reported_bandwidth = 100.0;
  m.reported_age_bonus = 1e7;
  rost->CheckSwitchNow(session, cheater);
  EXPECT_EQ(session.tree().Parent(cheater), kRootId);
  EXPECT_EQ(rost->switches_performed(), 1);
}

TEST_F(RefereeTest, DeadRefereesAreReplaced) {
  std::vector<NodeId> pool;
  for (int i = 0; i < 10; ++i) pool.push_back(session_->InjectMember(1.0, 1e9));
  const NodeId a = session_->InjectMember(2.0, 1e9);
  sim_.RunUntil(10.0);
  // Kill most of the pool: some referees likely die; verification must
  // still return the attested (pre-death) values via repair.
  for (int i = 0; i < 8; ++i) session_->DepartNow(pool[static_cast<std::size_t>(i)]);
  const double age = rost_->referees().VerifiedAge(*session_, a, sim_.now());
  const double bw = rost_->referees().VerifiedBandwidth(*session_, a);
  EXPECT_NEAR(bw, 2.0, 1e-12);
  EXPECT_NEAR(age, 10.0, 1e-9);
}

TEST_F(RefereeTest, TotalWitnessLossResetsAttestation) {
  // If every referee dies before repair, the attested age restarts (the
  // member cannot prove its earlier history) and bandwidth is re-measured.
  std::vector<NodeId> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(session_->InjectMember(1.0, 1e9));
  const NodeId a = session_->InjectMember(2.0, 1e9);
  sim_.RunUntil(50.0);
  // Kill the entire candidate pool: all referees are gone at once.
  for (NodeId p : pool)
    if (session_->tree().Alive(p)) session_->DepartNow(p);
  const long resets_before = rost_->referees().attestation_resets();
  const double age = rost_->referees().VerifiedAge(*session_, a, sim_.now());
  EXPECT_GT(rost_->referees().attestation_resets(), resets_before);
  EXPECT_NEAR(age, 0.0, 1e-9);  // provable age restarted just now
  // Bandwidth re-measurement returns the honest actual value.
  EXPECT_NEAR(rost_->referees().VerifiedBandwidth(*session_, a), 2.0, 1e-12);
}

}  // namespace
}  // namespace omcast::core
