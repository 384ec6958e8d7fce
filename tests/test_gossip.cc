#include "overlay/gossip.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "core/rost/rost.h"
#include "exp/scenario.h"
#include "net/topology.h"
#include "proto/min_depth.h"
#include "sim/simulator.h"
#include "util/hash.h"

namespace omcast::overlay {
namespace {

class GossipTest : public ::testing::Test {
 protected:
  GossipTest() {
    rnd::Rng topo_rng(1);
    topology_ = std::make_unique<net::Topology>(
        net::Topology::Generate(net::TinyTopologyParams(), topo_rng));
    session_ = std::make_unique<Session>(
        sim_, *topology_, std::make_unique<proto::MinDepthProtocol>(),
        SessionParams{}, 7);
    gossip_ = std::make_unique<GossipService>(*session_, GossipParams{}, 7);
    session_->SetMembershipOracle(gossip_.get());
  }

  sim::Simulator sim_;
  std::unique_ptr<net::Topology> topology_;
  std::unique_ptr<Session> session_;
  std::unique_ptr<GossipService> gossip_;
};

TEST_F(GossipTest, BootstrapSeedsViewOnJoin) {
  const NodeId a = session_->InjectMember(3.0, 1e9);
  sim_.RunUntil(0.5);
  const NodeId b = session_->InjectMember(1.0, 1e9);
  sim_.RunUntil(1.0);
  // b contacted members while joining: its view starts non-empty.
  EXPECT_GE(gossip_->ViewSize(b), 1u);
  // a joined an empty overlay; its first re-bootstrap tick fills the view.
  sim_.RunUntil(1.0 + 2 * kGossipPeriodS);
  EXPECT_GE(gossip_->ViewSize(a), 1u);
}

TEST_F(GossipTest, ViewsGrowThroughExchanges) {
  session_->Prepopulate(60);
  sim_.RunUntil(1.0);
  double initial = 0.0;
  for (NodeId id : session_->alive_members())
    initial += static_cast<double>(gossip_->ViewSize(id));
  sim_.RunUntil(300.0);  // ~10 gossip periods
  double later = 0.0;
  for (NodeId id : session_->alive_members())
    later += static_cast<double>(gossip_->ViewSize(id));
  EXPECT_GT(later, initial);
  // Views converge toward the 100-entry cap (60-member overlay: everyone
  // eventually knows almost everyone).
  EXPECT_GT(later / session_->alive_count(), 50.0);
  EXPECT_GT(gossip_->exchanges_performed(), 100);
}

TEST_F(GossipTest, ViewsStayBounded) {
  GossipParams p;
  p.view_size = 20;
  auto gossip = std::make_unique<GossipService>(*session_, p, 9);
  session_->SetMembershipOracle(gossip.get());
  session_->Prepopulate(80);
  sim_.RunUntil(400.0);
  for (NodeId id : session_->alive_members())
    EXPECT_LE(gossip->ViewSize(id), 20u);
}

TEST_F(GossipTest, DeadMembersWashOutOfViews) {
  session_->Prepopulate(70);
  sim_.RunUntil(400.0);
  // Kill a third of the population abruptly.
  std::vector<NodeId> victims;
  const auto alive = session_->alive_members();
  for (std::size_t i = 0; i < alive.size(); i += 3) victims.push_back(alive[i]);
  for (NodeId v : victims) session_->DepartNow(v);
  // After several TTL-lengths of exchanges, the victims must have washed
  // out of (almost) all views.
  sim_.RunUntil(400.0 + 3 * kGossipEntryTtlS);
  const std::set<NodeId> victim_set(victims.begin(), victims.end());
  long victim_entries = 0;
  long total_entries = 0;
  for (NodeId id : session_->alive_members()) {
    for (NodeId k : gossip_->KnownMembers(*session_, id, 1000)) {
      ++total_entries;
      if (victim_set.contains(k)) ++victim_entries;
    }
  }
  ASSERT_GT(total_entries, 100);
  EXPECT_LT(static_cast<double>(victim_entries),
            0.02 * static_cast<double>(total_entries));
}

TEST_F(GossipTest, KnownMembersServesJoinsFromViews) {
  session_->Prepopulate(60);
  sim_.RunUntil(200.0);
  // Churned joins keep working when discovery runs over gossip views.
  session_->StartArrivals(60.0 / rnd::kMeanLifetimeSeconds);
  sim_.RunUntil(1500.0);
  int rooted = 0;
  for (NodeId id : session_->alive_members())
    if (session_->tree().IsRooted(id)) ++rooted;
  EXPECT_GE(rooted, session_->alive_count() * 8 / 10);
  session_->tree().CheckInvariants();
}

TEST_F(GossipTest, DepartedMemberStopsGossiping) {
  for (int i = 0; i < 10; ++i) session_->InjectMember(1.0, 1e9);
  const NodeId a = session_->InjectMember(2.0, 50.0);
  sim_.RunUntil(1.0);
  EXPECT_GE(gossip_->ViewSize(a), 1u);
  sim_.RunUntil(100.0);  // a departed at t=50
  EXPECT_EQ(gossip_->ViewSize(a), 0u);  // view torn down
}

TEST_F(GossipTest, ViewsExcludeSelfAndRoot) {
  session_->Prepopulate(50);
  sim_.RunUntil(300.0);
  for (NodeId id : session_->alive_members()) {
    const auto known = gossip_->KnownMembers(*session_, id, 100);
    for (NodeId k : known) {
      EXPECT_NE(k, id);
      EXPECT_NE(k, kRootId);
    }
  }
}

TEST_F(GossipTest, LongRunViewsHoldDistinctOthers) {
  // Churn plus many periods of merges (bootstraps, push-pull slices): at
  // every check each view must be a set of other members. A duplicate
  // record is pruned once it goes a TTL unrefreshed, so look often. A
  // narrow source makes most parents members, so a joiner's bootstrap
  // batch (its parent, then a sample of members) often names one id twice.
  session_->tree().SetCapacity(kRootId, 4);
  session_->Prepopulate(60);
  session_->StartArrivals(60.0 / rnd::kMeanLifetimeSeconds);
  const int k = GossipParams{}.view_size;  // >= the view: all of it
  for (double t = 10.0; t <= 1500.0; t += 10.0) {
    sim_.RunUntil(t);
    for (NodeId id : session_->alive_members()) {
      const std::vector<NodeId> known =
          gossip_->KnownMembers(*session_, id, k);
      const std::set<NodeId> distinct(known.begin(), known.end());
      ASSERT_EQ(distinct.size(), known.size()) << "member " << id << " t=" << t;
      ASSERT_FALSE(distinct.contains(id)) << "member " << id << " t=" << t;
      ASSERT_FALSE(distinct.contains(kRootId)) << "member " << id << " t=" << t;
    }
  }
}

TEST_F(GossipTest, ViewStorageIsOneViewPerAliveMember) {
  const GossipParams params;
  const auto per_view = static_cast<std::size_t>(params.view_size);
  session_->Prepopulate(60);
  session_->StartArrivals(60.0 / rnd::kMeanLifetimeSeconds);
  sim_.RunUntil(3000.0);
  ASSERT_GT(session_->total_members_created(), 2 * session_->alive_count());
  const std::size_t slots = gossip_->view_slots();
  const auto alive = static_cast<std::size_t>(session_->alive_count());

  // A departing member gives back exactly its view's slots.
  session_->StopArrivals();
  NodeId leaver = kNoNode;
  for (NodeId id : session_->alive_members())
    if (gossip_->ViewSize(id) > 0) leaver = id;
  ASSERT_NE(leaver, kNoNode);
  const std::size_t before = gossip_->view_slots();
  session_->DepartNow(leaver);
  EXPECT_EQ(before - gossip_->view_slots(), per_view);

  // Once everyone has departed, only the merge buffer is left.
  const std::vector<NodeId> rest = session_->alive_members();
  for (NodeId id : rest) session_->DepartNow(id);
  ASSERT_EQ(session_->alive_count(), 0);
  const std::size_t buffer = gossip_->view_slots();
  EXPECT_GT(buffer, 0u);
  EXPECT_LE(buffer,
            per_view + static_cast<std::size_t>(kGossipExchangeSize) + 1);
  EXPECT_LE(slots, alive * per_view + buffer);
}

// Golden replay: the paper's stack at 2k members (ROST on the paper
// topology, prepopulated, with arrivals) discovering peers over gossip for
// 20 periods, twice the entry TTL, so prunes remove records. The digest
// covers every alive member's view size and its whole view as KnownMembers
// returns it (a shuffle, so it sees entry order and the service's draws),
// plus the service's counters. A change that moves a gossip draw or a
// view's contents or order changes the digest, and must record the new
// one deliberately.
TEST(GossipReplay, PaperStackViewsMatchGoldenDigest) {
  rnd::Rng topo_rng(1);
  const net::Topology topology =
      net::Topology::Generate(net::PaperTopologyParams(), topo_rng);
  sim::Simulator sim;
  Session session(sim, topology,
                  exp::MakeProtocol(exp::Algorithm::kRost, core::RostParams{}),
                  SessionParams{}, 21);
  GossipService gossip(session, GossipParams{}, 22);
  session.SetMembershipOracle(&gossip);
  session.Prepopulate(2000);
  session.StartArrivals(exp::ArrivalRate(2000));
  sim.RunUntil(20 * kGossipPeriodS);
  ASSERT_GE(sim.now(), 2 * kGossipEntryTtlS);

  std::vector<NodeId> alive = session.alive_members();
  std::sort(alive.begin(), alive.end());
  util::RollingHash h;
  for (NodeId id : alive) {
    h.MixI64(id);
    h.MixU64(gossip.ViewSize(id));
    for (NodeId known : gossip.KnownMembers(session, id, 1000)) h.MixI64(known);
  }
  h.MixI64(gossip.exchanges_performed());
  h.MixI64(gossip.dead_contacts());
  h.MixI64(gossip.stale_rejections());
  EXPECT_GT(gossip.exchanges_performed(), 20 * 1500);
  EXPECT_GT(gossip.dead_contacts(), 0);
  EXPECT_EQ(h.digest(), 0x68eeb8e5793c3473ULL) << std::hex << h.digest();
}

}  // namespace
}  // namespace omcast::overlay
