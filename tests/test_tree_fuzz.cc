// Randomized differential test: drive Tree with random attach/detach/remove
// sequences and check every query against a naive reference model (plain
// parent array + brute-force walks).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "overlay/tree.h"
#include "rand/rng.h"

namespace omcast::overlay {
namespace {

// Naive reference: parent pointers only; everything recomputed on demand.
class ReferenceModel {
 public:
  void Add(NodeId id) { parent_[id] = kNoNode; }

  void Attach(NodeId parent, NodeId child) { parent_[child] = parent; }
  void Detach(NodeId child) { parent_[child] = kNoNode; }
  void Remove(NodeId id) {
    for (auto& [node, p] : parent_)
      if (p == id) p = kNoNode;
    parent_.erase(id);
  }

  bool IsRooted(NodeId id) const {
    NodeId cur = id;
    std::set<NodeId> seen;
    while (cur != kNoNode && cur != kRootId) {
      if (!seen.insert(cur).second) return false;  // cycle (must not happen)
      const auto it = parent_.find(cur);
      cur = it == parent_.end() ? kNoNode : it->second;
    }
    return cur == kRootId;
  }

  std::set<NodeId> Descendants(NodeId id) const {
    std::set<NodeId> out;
    bool grew = true;
    while (grew) {
      grew = false;
      for (const auto& [node, p] : parent_) {
        if (out.contains(node) || node == id) continue;
        if (p == id || out.contains(p)) {
          out.insert(node);
          grew = true;
        }
      }
    }
    return out;
  }

  int Layer(NodeId id) const {
    int depth = 0;
    NodeId cur = id;
    while (cur != kRootId) {
      cur = parent_.at(cur);
      ++depth;
    }
    return depth;
  }

  int SharedPathEdges(NodeId a, NodeId b) const {
    auto path = [&](NodeId n) {
      std::vector<NodeId> p;
      for (NodeId cur = n; cur != kNoNode; cur = [&] {
             const auto it = parent_.find(cur);
             return it == parent_.end() ? kNoNode : it->second;
           }())
        p.push_back(cur);
      return p;
    };
    auto pa = path(a);
    auto pb = path(b);
    int shared = -1;
    auto ia = pa.rbegin();
    auto ib = pb.rbegin();
    while (ia != pa.rend() && ib != pb.rend() && *ia == *ib) {
      ++shared;
      ++ia;
      ++ib;
    }
    return shared;
  }

  const std::map<NodeId, NodeId>& parents() const { return parent_; }

 private:
  std::map<NodeId, NodeId> parent_;  // kNoNode == detached
};

// The order ForEachDescendant must yield `id`'s subtree in: the stack DFS
// over FirstChild/NextSibling that the preorder thread replaced. Replay
// digests depend on this order, not just on the set.
std::vector<NodeId> StackDfsOrder(const Tree& tree, NodeId id) {
  std::vector<NodeId> order;
  std::vector<NodeId> stack;
  for (NodeId c = tree.FirstChild(id); c != kNoNode; c = tree.NextSibling(c))
    stack.push_back(c);
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    order.push_back(cur);
    for (NodeId c = tree.FirstChild(cur); c != kNoNode; c = tree.NextSibling(c))
      stack.push_back(c);
  }
  return order;
}

class TreeFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeFuzzTest, MatchesReferenceModel) {
  rnd::Rng rng(GetParam());
  Tree tree(0, 4.0);  // root capacity 4 to force real depth
  ReferenceModel ref;
  std::vector<NodeId> alive = {kRootId};
  int fragment_roots = 0;    // detached members seen at the checkpoints
  int fragment_members = 0;  // attached members under a detached one

  const int kOps = 600;
  for (int op = 0; op < kOps; ++op) {
    const int dice = rng.UniformInt(0, 99);
    if (dice < 35 || alive.size() < 3) {
      // Create + try to attach under a random rooted member with capacity.
      const NodeId id = tree.CreateMember(
          100 + op, rng.Uniform(0.0, 5.0), 0.0, 1e9);
      ref.Add(id);
      alive.push_back(id);
      for (int attempt = 0; attempt < 8; ++attempt) {
        const NodeId p = alive[rng.UniformIndex(alive.size())];
        if (p == id || !tree.Alive(p)) continue;
        if (tree.SpareCapacity(p) <= 0) continue;
        if (!tree.IsRooted(p)) continue;
        if (tree.IsInSubtreeOf(p, id)) continue;
        tree.Attach(p, id);
        ref.Attach(p, id);
        break;
      }
    } else if (dice < 60) {
      // Detach a random attached non-root member (fragment root).
      const NodeId id = alive[rng.UniformIndex(alive.size())];
      if (id != kRootId && tree.Parent(id) != kNoNode) {
        tree.Detach(id);
        ref.Detach(id);
      }
    } else if (dice < 85) {
      // Re-attach a random detached member somewhere legal.
      const NodeId id = alive[rng.UniformIndex(alive.size())];
      if (id != kRootId && tree.Parent(id) == kNoNode) {
        for (int attempt = 0; attempt < 8; ++attempt) {
          const NodeId p = alive[rng.UniformIndex(alive.size())];
          if (p == id || tree.SpareCapacity(p) <= 0) continue;
          if (!tree.IsRooted(p)) continue;
          if (tree.IsInSubtreeOf(p, id)) continue;
          tree.Attach(p, id);
          ref.Attach(p, id);
          break;
        }
      }
    } else {
      // Remove (depart) a random non-root member.
      const NodeId id = alive[rng.UniformIndex(alive.size())];
      if (id != kRootId && tree.Alive(id)) {
        tree.RemoveFromTree(id);
        tree.MarkDead(id);
        ref.Remove(id);
        std::erase(alive, id);
      }
    }

    // Cross-check the full state every few operations.
    if (op % 20 != 19) continue;
    tree.CheckInvariants();
    for (const auto& [node, parent] : ref.parents()) {
      EXPECT_EQ(tree.Parent(node), parent) << "node " << node;
      EXPECT_EQ(tree.IsRooted(node), ref.IsRooted(node)) << "node " << node;
      if (ref.IsRooted(node)) {
        EXPECT_EQ(tree.Layer(node), ref.Layer(node)) << "node " << node;
      }
      std::vector<NodeId> sequence;
      tree.ForEachDescendant(node, [&](NodeId d) { sequence.push_back(d); });
      EXPECT_EQ(std::set<NodeId>(sequence.begin(), sequence.end()),
                ref.Descendants(node))
          << "node " << node;
      EXPECT_EQ(sequence, StackDfsOrder(tree, node)) << "node " << node;
    }
    // The thread from the root lists exactly the rooted tree, in DFS order.
    std::vector<NodeId> rooted_walk;
    for (NodeId v = tree.PreorderNext(kRootId); v != kNoNode;
         v = tree.PreorderNext(v))
      rooted_walk.push_back(v);
    EXPECT_EQ(rooted_walk, StackDfsOrder(tree, kRootId));
    // Shared-path edges on a few random rooted pairs.
    std::vector<NodeId> rooted;
    for (const auto& [node, parent] : ref.parents())
      if (ref.IsRooted(node)) rooted.push_back(node);
    rooted.push_back(kRootId);
    for (int pair = 0; pair < 5 && rooted.size() >= 2; ++pair) {
      const NodeId a = rooted[rng.UniformIndex(rooted.size())];
      const NodeId b = rooted[rng.UniformIndex(rooted.size())];
      EXPECT_EQ(tree.SharedPathEdges(a, b), ref.SharedPathEdges(a, b))
          << a << " vs " << b;
    }
    // IsRootedOutside is join-candidate filtering's three walks in one, for
    // every (member, exclude) pair: exclude ranges over kNoNode, the root,
    // rooted members, fragment roots and members inside fragments.
    std::vector<NodeId> members = {kRootId};
    for (const auto& [node, parent] : ref.parents()) {
      members.push_back(node);
      if (parent == kNoNode)
        ++fragment_roots;
      else if (!ref.IsRooted(node))
        ++fragment_members;
    }
    for (const NodeId id : members) {
      EXPECT_EQ(tree.IsRootedOutside(id, kNoNode),
                tree.InTree(id) && tree.IsRooted(id))
          << "node " << id;
      for (const NodeId exclude : members)
        EXPECT_EQ(tree.IsRootedOutside(id, exclude),
                  tree.InTree(id) && !tree.IsInSubtreeOf(id, exclude) &&
                      tree.IsRooted(id))
            << "node " << id << " outside " << exclude;
    }
  }
  EXPECT_GT(fragment_roots, 0);
  EXPECT_GT(fragment_members, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace omcast::overlay
