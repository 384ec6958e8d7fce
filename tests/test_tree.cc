#include "overlay/tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace omcast::overlay {
namespace {

// A tiny fixture: root (id 0) with generous capacity at host 0.
class TreeTest : public ::testing::Test {
 protected:
  TreeTest() : tree_(0, 100.0) {}

  NodeId Add(double bandwidth, sim::Time join = 0.0, sim::Time life = 1e9) {
    return tree_.CreateMember(static_cast<net::HostId>(next_host_++),
                              bandwidth, join, life);
  }

  // What ForEachDescendant yields for `id`, in order.
  std::vector<NodeId> Walk(NodeId id) const {
    std::vector<NodeId> seen;
    tree_.ForEachDescendant(id, [&](NodeId d) { seen.push_back(d); });
    return seen;
  }

  // The preorder thread from `from` to the end of its fragment.
  std::vector<NodeId> Thread(NodeId from) const {
    std::vector<NodeId> seen;
    for (NodeId v = from; v != kNoNode; v = tree_.PreorderNext(v))
      seen.push_back(v);
    return seen;
  }

  Tree tree_;
  int next_host_ = 1;
};

TEST_F(TreeTest, RootIsAliveAndInTree) {
  EXPECT_TRUE(tree_.Alive(kRootId));
  EXPECT_TRUE(tree_.InTree(kRootId));
  EXPECT_EQ(tree_.Layer(kRootId), 0);
  EXPECT_EQ(tree_.Capacity(kRootId), 100);
  EXPECT_TRUE(tree_.Get(kRootId).IsRoot());
}

TEST_F(TreeTest, CreateMemberStartsDetached) {
  const NodeId a = Add(2.0);
  EXPECT_TRUE(tree_.Alive(a));
  EXPECT_FALSE(tree_.InTree(a));
  EXPECT_EQ(tree_.Parent(a), kNoNode);
  EXPECT_EQ(tree_.Capacity(a), 2);
}

TEST_F(TreeTest, CapacityIsFloorOfBandwidth) {
  EXPECT_EQ(tree_.Capacity(Add(0.5)), 0);   // free-rider
  EXPECT_EQ(tree_.Capacity(Add(1.0)), 1);
  EXPECT_EQ(tree_.Capacity(Add(2.9)), 2);
  EXPECT_EQ(tree_.Capacity(Add(100.0)), 100);
}

TEST_F(TreeTest, AttachSetsLayersAndLinks) {
  const NodeId a = Add(2.0);
  const NodeId b = Add(1.0);
  tree_.Attach(kRootId, a);
  tree_.Attach(a, b);
  EXPECT_EQ(tree_.Layer(a), 1);
  EXPECT_EQ(tree_.Layer(b), 2);
  EXPECT_EQ(tree_.Parent(b), a);
  ASSERT_EQ(tree_.Children(a).size(), 1u);
  tree_.CheckInvariants();
}

TEST_F(TreeTest, AttachFragmentRecomputesSubtreeLayers) {
  const NodeId a = Add(3.0);
  const NodeId b = Add(2.0);
  const NodeId c = Add(1.0);
  tree_.Attach(kRootId, a);
  tree_.Attach(a, b);
  tree_.Attach(b, c);
  tree_.Detach(b);  // fragment {b, c} floats
  const NodeId d = Add(5.0);
  tree_.Attach(kRootId, d);
  tree_.Attach(d, b);  // re-attach the fragment one level deeper
  EXPECT_EQ(tree_.Layer(b), 2);
  EXPECT_EQ(tree_.Layer(c), 3);
  tree_.CheckInvariants();
}

TEST_F(TreeTest, DetachKeepsChildren) {
  const NodeId a = Add(2.0);
  const NodeId b = Add(0.5);
  tree_.Attach(kRootId, a);
  tree_.Attach(a, b);
  tree_.Detach(a);
  EXPECT_EQ(tree_.Parent(a), kNoNode);
  EXPECT_FALSE(tree_.InTree(a));
  EXPECT_EQ(tree_.Parent(b), a);  // subtree intact
  EXPECT_FALSE(tree_.IsRooted(a));
  EXPECT_FALSE(tree_.IsRooted(b));
}

TEST_F(TreeTest, RemoveFromTreeOrphansEachChild) {
  const NodeId a = Add(3.0);
  const NodeId b = Add(1.0);
  const NodeId c = Add(1.0);
  tree_.Attach(kRootId, a);
  tree_.Attach(a, b);
  tree_.Attach(a, c);
  const auto orphans = tree_.RemoveFromTree(a);
  EXPECT_EQ(orphans.size(), 2u);
  EXPECT_EQ(tree_.Parent(b), kNoNode);
  EXPECT_EQ(tree_.Parent(c), kNoNode);
  EXPECT_TRUE(tree_.Children(a).empty());
}

TEST_F(TreeTest, IsInSubtreeOf) {
  const NodeId a = Add(2.0);
  const NodeId b = Add(2.0);
  const NodeId c = Add(2.0);
  tree_.Attach(kRootId, a);
  tree_.Attach(a, b);
  tree_.Attach(b, c);
  EXPECT_TRUE(tree_.IsInSubtreeOf(c, a));
  EXPECT_TRUE(tree_.IsInSubtreeOf(a, a));
  EXPECT_FALSE(tree_.IsInSubtreeOf(a, c));
  EXPECT_TRUE(tree_.IsInSubtreeOf(c, kRootId));
}

TEST_F(TreeTest, ForEachDescendantVisitsWholeSubtreeOnce) {
  const NodeId a = Add(3.0);
  const NodeId b = Add(2.0);
  const NodeId c = Add(2.0);
  const NodeId d = Add(1.0);
  tree_.Attach(kRootId, a);
  tree_.Attach(a, b);
  tree_.Attach(a, c);
  tree_.Attach(b, d);
  // A stack DFS pushing each child list in attach order pops c before b,
  // and replay digests pin that order.
  EXPECT_EQ(Walk(a), (std::vector<NodeId>{c, b, d}));
  EXPECT_TRUE(Walk(d).empty());
  EXPECT_EQ(Thread(kRootId), (std::vector<NodeId>{kRootId, a, c, b, d}));
}

TEST_F(TreeTest, AttachSplicesFragmentBeforeExistingChildren) {
  // a already has children b and c; the fragment f -> {g -> h, i} is built
  // in the rooted tree, split off, then attached under a.
  const NodeId a = Add(3.0);
  const NodeId b = Add(1.0);
  const NodeId c = Add(1.0);
  const NodeId f = Add(2.0);
  const NodeId g = Add(1.0);
  const NodeId h = Add(1.0);
  const NodeId i = Add(1.0);
  tree_.Attach(kRootId, a);
  tree_.Attach(a, b);
  tree_.Attach(a, c);
  tree_.Attach(kRootId, f);
  tree_.Attach(f, g);
  tree_.Attach(f, i);
  tree_.Attach(g, h);
  tree_.Detach(f);
  EXPECT_EQ(Thread(f), (std::vector<NodeId>{f, i, g, h}));
  EXPECT_EQ(Thread(kRootId), (std::vector<NodeId>{kRootId, a, c, b}));
  tree_.CheckInvariants();

  tree_.Attach(a, f);
  EXPECT_EQ(Walk(a), (std::vector<NodeId>{f, i, g, h, c, b}));
  EXPECT_EQ(Walk(f), (std::vector<NodeId>{i, g, h}));
  EXPECT_EQ(Thread(kRootId),
            (std::vector<NodeId>{kRootId, a, f, i, g, h, c, b}));
  EXPECT_EQ(tree_.Layer(h), 4);
  tree_.CheckInvariants();
}

TEST_F(TreeTest, DetachCutsMiddleChildOutOfThread) {
  // a -> {b, c, d} in attach order, each with one child.
  const NodeId a = Add(3.0);
  const NodeId b = Add(1.0);
  const NodeId c = Add(1.0);
  const NodeId d = Add(1.0);
  const NodeId b1 = Add(1.0);
  const NodeId c1 = Add(1.0);
  const NodeId d1 = Add(1.0);
  tree_.Attach(kRootId, a);
  tree_.Attach(a, b);
  tree_.Attach(a, c);
  tree_.Attach(a, d);
  tree_.Attach(b, b1);
  tree_.Attach(c, c1);
  tree_.Attach(d, d1);
  EXPECT_EQ(Walk(a), (std::vector<NodeId>{d, d1, c, c1, b, b1}));

  tree_.Detach(c);
  EXPECT_EQ(Walk(a), (std::vector<NodeId>{d, d1, b, b1}));
  EXPECT_EQ(Thread(kRootId), (std::vector<NodeId>{kRootId, a, d, d1, b, b1}));
  EXPECT_EQ(Thread(c), (std::vector<NodeId>{c, c1}));
  tree_.CheckInvariants();

  tree_.Attach(b1, c);  // the fragment moves to the deepest leaf
  EXPECT_EQ(Walk(a), (std::vector<NodeId>{d, d1, b, b1, c, c1}));
  tree_.CheckInvariants();
}

TEST_F(TreeTest, RemoveFromTreeClosesEachOrphanThread) {
  // x -> {a}; a -> {b, c, d}; b -> b1; c -> c1 -> c2.
  const NodeId x = Add(2.0);
  const NodeId a = Add(3.0);
  const NodeId b = Add(1.0);
  const NodeId c = Add(1.0);
  const NodeId d = Add(1.0);
  const NodeId b1 = Add(1.0);
  const NodeId c1 = Add(1.0);
  const NodeId c2 = Add(1.0);
  tree_.Attach(kRootId, x);
  tree_.Attach(x, a);
  tree_.Attach(a, b);
  tree_.Attach(a, c);
  tree_.Attach(a, d);
  tree_.Attach(b, b1);
  tree_.Attach(c, c1);
  tree_.Attach(c1, c2);

  const auto orphans = tree_.RemoveFromTree(a);
  tree_.MarkDead(a);
  EXPECT_EQ(orphans, (std::vector<NodeId>{b, c, d}));
  EXPECT_EQ(Thread(kRootId), (std::vector<NodeId>{kRootId, x}));
  EXPECT_EQ(Thread(a), (std::vector<NodeId>{a}));
  EXPECT_EQ(Thread(b), (std::vector<NodeId>{b, b1}));
  EXPECT_EQ(Thread(c), (std::vector<NodeId>{c, c1, c2}));
  EXPECT_EQ(Thread(d), (std::vector<NodeId>{d}));
  tree_.CheckInvariants();
}

TEST_F(TreeTest, RemoveFromTreeOfDetachedMemberClosesEachOrphanThread) {
  // a -> {b, c, d}; c -> c1; d -> d1 -> d2, split off before it departs.
  const NodeId a = Add(3.0);
  const NodeId b = Add(1.0);
  const NodeId c = Add(1.0);
  const NodeId d = Add(1.0);
  const NodeId c1 = Add(1.0);
  const NodeId d1 = Add(1.0);
  const NodeId d2 = Add(1.0);
  tree_.Attach(kRootId, a);
  tree_.Attach(a, b);
  tree_.Attach(a, c);
  tree_.Attach(a, d);
  tree_.Attach(c, c1);
  tree_.Attach(d, d1);
  tree_.Attach(d1, d2);
  tree_.Detach(a);
  EXPECT_EQ(Thread(a), (std::vector<NodeId>{a, d, d1, d2, c, c1, b}));
  EXPECT_EQ(Thread(kRootId), (std::vector<NodeId>{kRootId}));

  const auto orphans = tree_.RemoveFromTree(a);
  tree_.MarkDead(a);
  EXPECT_EQ(orphans, (std::vector<NodeId>{b, c, d}));
  EXPECT_EQ(Thread(a), (std::vector<NodeId>{a}));
  EXPECT_EQ(Thread(b), (std::vector<NodeId>{b}));
  EXPECT_EQ(Thread(c), (std::vector<NodeId>{c, c1}));
  EXPECT_EQ(Thread(d), (std::vector<NodeId>{d, d1, d2}));
  tree_.CheckInvariants();

  tree_.Attach(kRootId, d);  // an orphan fragment re-enters whole
  EXPECT_EQ(Thread(kRootId), (std::vector<NodeId>{kRootId, d, d1, d2}));
  tree_.CheckInvariants();
}

// Branch stamps key the relaxed protocols' per-branch summaries: a change to
// the rooted tree gives the one branch (child of the root plus subtree) that
// holds it a fresh stamp, and a change outside the rooted tree stamps
// nothing.
TEST(Tree, BranchStampChangesOnRootedMutationsOnly) {
  Tree tree(0, 100.0);
  int next_host = 1;
  const auto add = [&](double bandwidth) {
    return tree.CreateMember(static_cast<net::HostId>(next_host++), bandwidth,
                             0.0, 1e9);
  };
  // root -> {a, b}; a -> a1 -> a2; b -> b1.
  const NodeId a = add(3.0);
  const NodeId a1 = add(2.0);
  const NodeId a2 = add(2.0);
  const NodeId b = add(2.0);
  const NodeId b1 = add(2.0);
  tree.Attach(kRootId, a);
  tree.Attach(a, a1);
  tree.Attach(a1, a2);
  tree.Attach(kRootId, b);
  tree.Attach(b, b1);

  // The root's children in thread order, each with its stamp.
  const auto branches = [&tree] {
    std::vector<std::pair<NodeId, std::uint64_t>> out;
    for (NodeId c = tree.LastChild(kRootId); c != kNoNode;
         c = tree.PrevSibling(c))
      out.emplace_back(c, tree.BranchStamp(c));
    return out;
  };
  // Runs `mutate` and expects exactly `changed`'s stamp to move (kNoNode:
  // none), over the branches present both before and after.
  const auto expect_restamped = [&](NodeId changed, auto mutate) {
    const auto before = branches();
    mutate();
    for (const auto& [top, stamp] : before) {
      if (tree.Parent(top) != kRootId) continue;
      if (top == changed) {
        EXPECT_NE(tree.BranchStamp(top), stamp) << "branch " << top;
      } else {
        EXPECT_EQ(tree.BranchStamp(top), stamp) << "branch " << top;
      }
    }
  };

  const auto walked = branches();
  ASSERT_EQ(walked.size(), 2u);
  EXPECT_EQ(walked[0].first, b);  // newest child first, as on the thread
  EXPECT_EQ(walked[1].first, a);
  EXPECT_EQ(tree.PreorderNext(kRootId), b);
  EXPECT_NE(walked[0].second, walked[1].second);

  // Rooted mutations: each re-stamps its own branch and no other.
  const NodeId x = add(1.0);
  expect_restamped(a, [&] { tree.Attach(a2, x); });
  expect_restamped(b, [&] { tree.Detach(b1); });
  expect_restamped(a, [&] { tree.RemoveFromTree(a1); });  // orphans a2
  tree.MarkDead(a1);
  expect_restamped(b, [&] { tree.SetCapacity(b, 4); });
  expect_restamped(kNoNode, [&] { tree.SetCapacity(kRootId, 50); });

  // Inside the detached fragment {a2, x} nothing is stamped.
  expect_restamped(kNoNode, [&] { tree.SetCapacity(a2, 3); });
  expect_restamped(kNoNode, [&] { tree.Detach(x); });
  expect_restamped(kNoNode, [&] { tree.RemoveFromTree(a2); });
  tree.MarkDead(a2);

  // A loose member re-entering inside a branch re-stamps that branch only.
  expect_restamped(a, [&] { tree.Attach(a, b1); });

  // A member that leaves the root and comes back, directly or after a spell
  // deeper in the tree, never matches any stamp it had before.
  std::vector<std::uint64_t> seen = {tree.BranchStamp(b)};
  expect_restamped(b, [&] { tree.Detach(b); });
  tree.Attach(kRootId, b);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), tree.BranchStamp(b)), 0);
  seen.push_back(tree.BranchStamp(b));
  tree.Detach(b);
  tree.Attach(b1, b);
  tree.Detach(b);
  tree.Attach(kRootId, b);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), tree.BranchStamp(b)), 0);
  EXPECT_NE(tree.BranchStamp(b), tree.BranchStamp(a));
  tree.CheckInvariants();
}

TEST_F(TreeTest, SharedPathEdgesMatchesLcaDepth) {
  // root -> a; a -> {b, c}; b -> d.
  const NodeId a = Add(3.0);
  const NodeId b = Add(2.0);
  const NodeId c = Add(1.0);
  const NodeId d = Add(1.0);
  tree_.Attach(kRootId, a);
  tree_.Attach(a, b);
  tree_.Attach(a, c);
  tree_.Attach(b, d);
  EXPECT_EQ(tree_.SharedPathEdges(b, c), 1);  // share root->a
  EXPECT_EQ(tree_.SharedPathEdges(d, c), 1);
  EXPECT_EQ(tree_.SharedPathEdges(d, b), 2);  // share root->a->b
  EXPECT_EQ(tree_.SharedPathEdges(a, c), 1);  // a is on c's path
  EXPECT_EQ(tree_.SharedPathEdges(b, b), 2);  // with itself: its whole path
  EXPECT_EQ(tree_.SharedPathEdges(a, kRootId), 0);
}

TEST_F(TreeTest, DepthTracksDeepestRootedMember) {
  EXPECT_EQ(tree_.Depth(), 0);
  const NodeId a = Add(2.0);
  const NodeId b = Add(2.0);
  tree_.Attach(kRootId, a);
  tree_.Attach(a, b);
  EXPECT_EQ(tree_.Depth(), 2);
  tree_.Detach(a);  // fragment no longer counted
  EXPECT_EQ(tree_.Depth(), 0);
}

TEST_F(TreeTest, RootHasSentinelOldAge) {
  // The source must dominate every member under time ordering and BTP.
  EXPECT_LT(tree_.Get(kRootId).join_time, -1e9);
  EXPECT_GT(tree_.Get(kRootId).Btp(0.0), 1e10);
}

TEST_F(TreeTest, BtpIsBandwidthTimesAge) {
  const NodeId a = Add(2.5, /*join=*/100.0);
  EXPECT_DOUBLE_EQ(tree_.Get(a).Btp(160.0), 2.5 * 60.0);
  EXPECT_DOUBLE_EQ(tree_.Get(a).Age(160.0), 60.0);
}

TEST_F(TreeTest, ClaimedBtpUsesReportedValues) {
  const NodeId a = Add(1.0, /*join=*/0.0);
  Member& m = tree_.Get(a);
  m.reported_bandwidth = 50.0;
  m.reported_age_bonus = 1000.0;
  EXPECT_DOUBLE_EQ(m.ClaimedBtp(10.0), 50.0 * 1010.0);
  EXPECT_DOUBLE_EQ(m.Btp(10.0), 1.0 * 10.0);  // actual unaffected
}

TEST_F(TreeTest, AttachRejectsOverCapacity) {
  const NodeId a = Add(1.0);
  const NodeId b = Add(0.5);
  const NodeId c = Add(0.5);
  tree_.Attach(kRootId, a);
  tree_.Attach(a, b);
  EXPECT_DEATH(tree_.Attach(a, c), "out-degree");
}

TEST_F(TreeTest, AttachRejectsCycle) {
  const NodeId a = Add(2.0);
  const NodeId b = Add(2.0);
  tree_.Attach(kRootId, a);
  tree_.Attach(a, b);
  tree_.Detach(a);
  EXPECT_DEATH(tree_.Attach(b, a), "cycle");
}

TEST_F(TreeTest, AttachRejectsUnrootedParent) {
  const NodeId a = Add(2.0);
  const NodeId b = Add(2.0);
  EXPECT_DEATH(tree_.Attach(a, b), "root");
}

TEST_F(TreeTest, AttachRejectsDoubleAttach) {
  const NodeId a = Add(2.0);
  tree_.Attach(kRootId, a);
  EXPECT_DEATH(tree_.Attach(kRootId, a), "already attached");
}

}  // namespace
}  // namespace omcast::overlay
