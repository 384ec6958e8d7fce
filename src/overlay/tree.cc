#include "overlay/tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/check.h"

namespace omcast::overlay {
namespace {

int CapacityFor(double bandwidth) {
  // Out-degree constraint: number of full-rate children the access link can
  // feed (stream rate is 1 in bandwidth units).
  return static_cast<int>(std::floor(bandwidth));
}

}  // namespace

Tree::Tree(net::HostId root_host, double root_bandwidth) {
  Member root;
  root.id = kRootId;
  root.host = root_host;
  root.bandwidth = root_bandwidth;
  root.reported_bandwidth = root_bandwidth;
  root.lifetime = std::numeric_limits<double>::infinity();
  // The source is pre-assigned an effectively infinite age so that it is the
  // oldest member under any time-ordering rule and its BTP dominates every
  // member's (Section 3.3: "the multicast source is preassigned an infinite
  // BTP, and always remains at the top of the tree"). A finite sentinel
  // keeps BTP arithmetic free of inf/NaN.
  root.join_time = -4.0e9;
  members_.push_back(root);
  parent_.push_back(kNoNode);
  first_child_.push_back(kNoNode);
  last_child_.push_back(kNoNode);
  prev_sibling_.push_back(kNoNode);
  next_sibling_.push_back(kNoNode);
  preorder_next_.push_back(kNoNode);
  child_count_.push_back(0);
  layer_.push_back(0);
  capacity_.push_back(CapacityFor(root_bandwidth));
  alive_.push_back(1);
  branch_stamp_.push_back(0);
}

NodeId Tree::CreateMember(net::HostId host, double bandwidth,
                          sim::Time join_time, sim::Time lifetime) {
  util::Check(bandwidth >= 0.0, "bandwidth must be non-negative");
  util::Check(lifetime > 0.0, "lifetime must be positive");
  Member m;
  m.id = static_cast<NodeId>(members_.size());
  m.host = host;
  m.bandwidth = bandwidth;
  m.reported_bandwidth = bandwidth;
  m.join_time = join_time;
  m.lifetime = lifetime;
  members_.push_back(m);
  parent_.push_back(kNoNode);
  first_child_.push_back(kNoNode);
  last_child_.push_back(kNoNode);
  prev_sibling_.push_back(kNoNode);
  next_sibling_.push_back(kNoNode);
  preorder_next_.push_back(kNoNode);
  child_count_.push_back(0);
  layer_.push_back(0);
  capacity_.push_back(CapacityFor(bandwidth));
  alive_.push_back(1);
  branch_stamp_.push_back(0);
  return members_.back().id;
}

std::vector<NodeId> Tree::Children(NodeId id) const {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(ChildCount(id)));
  for (NodeId c = FirstChild(id); c != kNoNode;
       c = next_sibling_[static_cast<std::size_t>(c)])
    out.push_back(c);
  return out;
}

void Tree::AppendChild(NodeId parent, NodeId child) {
  const auto p = static_cast<std::size_t>(parent);
  const auto c = static_cast<std::size_t>(child);
  const NodeId tail = last_child_[p];
  prev_sibling_[c] = tail;
  next_sibling_[c] = kNoNode;
  if (tail == kNoNode) {
    first_child_[p] = child;
  } else {
    next_sibling_[static_cast<std::size_t>(tail)] = child;
  }
  last_child_[p] = child;
  ++child_count_[p];
}

void Tree::UnlinkChild(NodeId parent, NodeId child) {
  const auto p = static_cast<std::size_t>(parent);
  const auto c = static_cast<std::size_t>(child);
  const NodeId prev = prev_sibling_[c];
  const NodeId next = next_sibling_[c];
  if (prev == kNoNode) {
    first_child_[p] = next;
  } else {
    next_sibling_[static_cast<std::size_t>(prev)] = next;
  }
  if (next == kNoNode) {
    last_child_[p] = prev;
  } else {
    prev_sibling_[static_cast<std::size_t>(next)] = prev;
  }
  prev_sibling_[c] = kNoNode;
  next_sibling_[c] = kNoNode;
  --child_count_[p];
}

void Tree::Attach(NodeId parent, NodeId child) {
  util::Check(Alive(parent) && Alive(child),
              "attach requires both members alive");
  util::Check(Parent(child) == kNoNode, "child already attached");
  util::Check(SpareCapacity(parent) > 0, "attach would exceed out-degree");
  util::Check(!IsInSubtreeOf(parent, child), "attach would create a cycle");
  const NodeId top = BranchOf(parent);
  util::Check(top != kNoNode, "parent must be connected to the root");
  AppendChild(parent, child);
  parent_[static_cast<std::size_t>(child)] = parent;
  // The newest child is the first of its parent's children on the thread:
  // splice the fragment's whole thread in right after the parent.
  const auto last = static_cast<std::size_t>(SubtreeLast(child));
  preorder_next_[last] = preorder_next_[static_cast<std::size_t>(parent)];
  preorder_next_[static_cast<std::size_t>(parent)] = child;
  RecomputeLayers(child);
  branch_stamp_[static_cast<std::size_t>(top == kRootId ? child : top)] =
      ++last_stamp_;
  if (edge_observer_ != nullptr) edge_observer_->OnEdgeAdded(parent, child);
}

void Tree::Detach(NodeId child) {
  const NodeId parent = Parent(child);
  util::Check(parent != kNoNode, "detach requires an attached member");
  StampBranchOf(child);
  // The block of `child` follows the block of the sibling attached after it,
  // or the parent itself when `child` is the newest; cut it out and close it
  // into a thread of its own.
  const NodeId newer = next_sibling_[static_cast<std::size_t>(child)];
  const auto before =
      static_cast<std::size_t>(newer == kNoNode ? parent : SubtreeLast(newer));
  const auto last = static_cast<std::size_t>(SubtreeLast(child));
  preorder_next_[before] = preorder_next_[last];
  preorder_next_[last] = kNoNode;
  UnlinkChild(parent, child);
  parent_[static_cast<std::size_t>(child)] = kNoNode;
  if (edge_observer_ != nullptr) edge_observer_->OnEdgeRemoved(parent, child);
}

std::vector<NodeId> Tree::RemoveFromTree(NodeId id) {
  if (Parent(id) != kNoNode) Detach(id);
  std::vector<NodeId> orphans = Children(id);
  for (NodeId c : orphans) {
    const auto ci = static_cast<std::size_t>(c);
    preorder_next_[static_cast<std::size_t>(SubtreeLast(c))] = kNoNode;
    parent_[ci] = kNoNode;
    prev_sibling_[ci] = kNoNode;
    next_sibling_[ci] = kNoNode;
  }
  const auto i = static_cast<std::size_t>(id);
  first_child_[i] = kNoNode;
  last_child_[i] = kNoNode;
  preorder_next_[i] = kNoNode;
  child_count_[i] = 0;
  if (edge_observer_ != nullptr)
    for (NodeId c : orphans) edge_observer_->OnEdgeRemoved(id, c);
  return orphans;
}

bool Tree::IsRooted(NodeId id) const {
  NodeId cur = id;
  while (true) {
    if (cur == kRootId) return true;
    const NodeId p = Parent(cur);
    if (p == kNoNode) return false;
    cur = p;
  }
}

NodeId Tree::BranchOf(NodeId id) const {
  if (id == kRootId) return kRootId;
  while (true) {
    const NodeId p = Parent(id);
    if (p == kRootId) return id;
    if (p == kNoNode) return kNoNode;
    id = p;
  }
}

bool Tree::IsInSubtreeOf(NodeId id, NodeId maybe_ancestor) const {
  NodeId cur = id;
  while (cur != kNoNode) {
    if (cur == maybe_ancestor) return true;
    cur = Parent(cur);
  }
  return false;
}

std::vector<NodeId> Tree::PathToRoot(NodeId id) const {
  std::vector<NodeId> path;
  NodeId cur = id;
  while (cur != kNoNode) {
    path.push_back(cur);
    cur = Parent(cur);
  }
  util::Check(path.back() == kRootId, "path must end at the root");
  return path;
}

int Tree::SharedPathEdges(NodeId a, NodeId b) const {
  // The root paths share edges from the root down to the lowest common
  // ancestor: w(a,b) == layer(LCA). Walk both parent chains to the root and
  // count the common prefix (from the root side).
  std::vector<NodeId> pa = PathToRoot(a);
  std::vector<NodeId> pb = PathToRoot(b);
  int shared = 0;
  auto ia = pa.rbegin();
  auto ib = pb.rbegin();
  // Skip the root itself (a shared *node*, not edge), then count matching
  // steps; each matching node beyond the root adds one shared edge.
  while (ia != pa.rend() && ib != pb.rend() && *ia == *ib) {
    ++ia;
    ++ib;
    ++shared;
  }
  return shared - 1;  // nodes-in-common minus one == edges in common
}

int Tree::Depth() const {
  int depth = 0;
  for (std::size_t i = 0; i < members_.size(); ++i)
    if (alive_[i] != 0 && IsRooted(static_cast<NodeId>(i)))
      depth = std::max(depth, static_cast<int>(layer_[i]));
  return depth;
}

void Tree::RecomputeLayers(NodeId fragment_root) {
  const NodeId p = Parent(fragment_root);
  util::Check(p != kNoNode, "fragment root must be attached");
  layer_[static_cast<std::size_t>(fragment_root)] =
      layer_[static_cast<std::size_t>(p)] + 1;
  // Preorder reaches every parent before its children.
  ForEachDescendant(fragment_root, [this](NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    layer_[i] = layer_[static_cast<std::size_t>(parent_[i])] + 1;
  });
}

void Tree::CheckInvariants() const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    if (alive_[i] == 0) {
      util::Check(ChildCount(id) == 0 && Parent(id) == kNoNode,
                  "dead member must be fully detached");
      continue;
    }
    util::Check(ChildCount(id) <= Capacity(id),
                "out-degree constraint violated (node " + std::to_string(id) +
                    ": " + std::to_string(ChildCount(id)) +
                    " children, capacity " + std::to_string(Capacity(id)) +
                    ")");
    int counted = 0;
    NodeId prev = kNoNode;
    for (NodeId c = FirstChild(id); c != kNoNode; c = NextSibling(c)) {
      util::Check(Parent(c) == id, "child->parent link out of sync");
      util::Check(Alive(c), "dead member still attached");
      util::Check(prev_sibling_[static_cast<std::size_t>(c)] == prev,
                  "sibling links out of sync");
      if (IsRooted(id))
        util::Check(Layer(c) == Layer(id) + 1, "layer must be parent's + 1");
      prev = c;
      ++counted;
    }
    util::Check(last_child_[i] == prev, "tail link out of sync");
    util::Check(counted == ChildCount(id), "child count out of sync");
    if (Parent(id) != kNoNode) {
      bool found = false;
      for (NodeId c = FirstChild(Parent(id)); c != kNoNode; c = NextSibling(c))
        if (c == id) {
          found = true;
          break;
        }
      util::Check(found, "parent->child link out of sync");
    }
    if (id == kRootId)
      util::Check(Parent(id) == kNoNode, "root has no parent");
  }

  // The thread of every fragment lists it in the order of a stack DFS that
  // pushes each child list in attach order, and ends with the fragment.
  std::vector<NodeId> stack;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (alive_[i] == 0) {
      util::Check(preorder_next_[i] == kNoNode, "dead member still threaded");
      continue;
    }
    if (parent_[i] != kNoNode) continue;
    NodeId threaded = static_cast<NodeId>(i);
    stack.assign(1, threaded);
    while (!stack.empty()) {
      const NodeId cur = stack.back();
      stack.pop_back();
      if (threaded != cur)
        util::Fail("preorder thread out of DFS order at node " +
                   std::to_string(cur));
      threaded = preorder_next_[static_cast<std::size_t>(cur)];
      for (NodeId c = FirstChild(cur); c != kNoNode; c = NextSibling(c))
        stack.push_back(c);
    }
    util::Check(threaded == kNoNode, "preorder thread runs past its fragment");
  }
}

}  // namespace omcast::overlay
