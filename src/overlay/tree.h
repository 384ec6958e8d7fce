// Multicast tree structure operations over a member store.
//
// The Tree owns the member records (so ids remain valid for metrics after a
// member departs) and maintains the parent/children/layer relations with
// invariant checking: capacity is never exceeded, layers are always
// parent.layer + 1, and attach never creates a cycle.
//
// Storage is struct-of-arrays: the hot per-node fields (parent link, child
// list, layer, liveness, capacity) are flat vectors indexed by
// the dense NodeId, sized for 10^6 members -- the cold Member records sit in
// a parallel vector behind Get(). The child list is an intrusive doubly
// linked list (first/last child + prev/next sibling per node): appends go to
// the tail and unlinks splice neighbors, which reproduces EXACTLY the
// iteration order of the std::vector push_back/erase(find) representation it
// replaced -- replay digests depend on that order, and the determinism tests
// in tests/test_determinism_replay.cc pin it.
//
// Every fragment (the rooted tree, each orphaned fragment, each loose
// member) is also threaded in preorder, one successor link per node: a node
// is followed by its children's subtrees in REVERSE attach order, the order a
// stack DFS pushing each child list in attach order visits them. A subtree is
// thus one contiguous block of its fragment's thread that ends at the leaf of
// its first-child chain, so subtree walks need no stack, and Attach, Detach
// and RemoveFromTree splice the thread in O(subtree height).
#pragma once

#include <cstdint>
#include <vector>

#include "overlay/member.h"
#include "util/check.h"

namespace omcast::overlay {

// Sees every parent-child edge the tree gains or loses, after the change:
// Attach reports the new edge, Detach the cut one, and RemoveFromTree the
// removed member's own edge (through Detach) and then each orphan's edge in
// child order. Observers must not mutate the tree.
class EdgeObserver {
 public:
  virtual void OnEdgeAdded(NodeId parent, NodeId child) = 0;
  virtual void OnEdgeRemoved(NodeId parent, NodeId child) = 0;

 protected:
  ~EdgeObserver() = default;
};

class Tree {
 public:
  // Creates the store with the root (source) member occupying id 0.
  Tree(net::HostId root_host, double root_bandwidth);

  // Adds a member record (not yet in the tree); returns its id.
  NodeId CreateMember(net::HostId host, double bandwidth, sim::Time join_time,
                      sim::Time lifetime);

  // Cold per-member record (identity, bandwidth, BTP inputs, counters).
  Member& Get(NodeId id) {
    CheckId(id);
    return members_[static_cast<std::size_t>(id)];
  }
  const Member& Get(NodeId id) const {
    CheckId(id);
    return members_[static_cast<std::size_t>(id)];
  }
  std::size_t size() const { return members_.size(); }

  // --- hot per-node state (flat arrays) -----------------------------------

  NodeId Parent(NodeId id) const {
    CheckId(id);
    return parent_[static_cast<std::size_t>(id)];
  }
  int Layer(NodeId id) const {
    CheckId(id);
    return layer_[static_cast<std::size_t>(id)];
  }
  bool Alive(NodeId id) const {
    CheckId(id);
    return alive_[static_cast<std::size_t>(id)] != 0;
  }
  // False while the member is (re)joining; an orphaned fragment root keeps
  // its children but has Parent() == kNoNode. The root is always in.
  bool InTree(NodeId id) const {
    return id == kRootId || Parent(id) != kNoNode;
  }
  // Out-degree constraint, floor(bandwidth) at creation.
  int Capacity(NodeId id) const {
    CheckId(id);
    return capacity_[static_cast<std::size_t>(id)];
  }
  int ChildCount(NodeId id) const {
    CheckId(id);
    return child_count_[static_cast<std::size_t>(id)];
  }
  int SpareCapacity(NodeId id) const { return Capacity(id) - ChildCount(id); }
  NodeId FirstChild(NodeId id) const {
    CheckId(id);
    return first_child_[static_cast<std::size_t>(id)];
  }
  NodeId NextSibling(NodeId id) const {
    CheckId(id);
    return next_sibling_[static_cast<std::size_t>(id)];
  }
  // Successor of `id` on its fragment's preorder thread; kNoNode after the
  // fragment's last member. Walking it from kRootId visits the rooted tree.
  NodeId PreorderNext(NodeId id) const {
    CheckId(id);
    return preorder_next_[static_cast<std::size_t>(id)];
  }

  // Lightweight forward range over `id`'s children in attach order; a
  // drop-in for iterating the old child vector. The range walks the LIVE
  // sibling links: do not Attach/Detach/RemoveFromTree under it -- take
  // Children() (a snapshot) when the loop body mutates the tree.
  class ChildRange {
   public:
    class iterator {
     public:
      iterator(NodeId cur, const std::vector<NodeId>* next)
          : cur_(cur), next_(next) {}
      NodeId operator*() const { return cur_; }
      iterator& operator++() {
        cur_ = (*next_)[static_cast<std::size_t>(cur_)];
        return *this;
      }
      friend bool operator!=(const iterator& a, const iterator& b) {
        return a.cur_ != b.cur_;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.cur_ == b.cur_;
      }

     private:
      NodeId cur_ = kNoNode;
      const std::vector<NodeId>* next_ = nullptr;
    };
    iterator begin() const { return iterator(first_, next_); }
    iterator end() const { return iterator(kNoNode, next_); }

   private:
    friend class Tree;
    ChildRange(NodeId first, const std::vector<NodeId>* next)
        : first_(first), next_(next) {}
    NodeId first_ = kNoNode;
    const std::vector<NodeId>* next_ = nullptr;
  };
  ChildRange ChildrenOf(NodeId id) const {
    return ChildRange(FirstChild(id), &next_sibling_);
  }

  // Snapshot of `id`'s children in attach order (safe to hold across tree
  // mutations, to sort, to index).
  std::vector<NodeId> Children(NodeId id) const;

  // --- mutations ----------------------------------------------------------

  // Attaches `child` (possibly the root of an orphaned fragment) under
  // `parent`. Requires spare capacity and that `parent` is rooted and not
  // inside `child`'s fragment. Recomputes layers of the whole fragment.
  void Attach(NodeId parent, NodeId child);

  // Detaches `child` from its parent (keeping its own children): it becomes
  // an orphaned fragment root. No-op layers (fixed on re-attach).
  void Detach(NodeId child);

  // Removes a departing member entirely: detaches it from its parent and
  // orphans each of its children (returned in `orphans`). The member record
  // stays (dead) for metrics.
  std::vector<NodeId> RemoveFromTree(NodeId id);

  // Marks a member dead (the session's departure bookkeeping; structural
  // detachment is RemoveFromTree's job).
  void MarkDead(NodeId id) {
    CheckId(id);
    alive_[static_cast<std::size_t>(id)] = 0;
  }

  // Overrides the out-degree constraint (tests shape small trees with it).
  void SetCapacity(NodeId id, int capacity) {
    CheckId(id);
    capacity_[static_cast<std::size_t>(id)] = capacity;
  }

  // Installs (or clears, with nullptr) the one edge observer; non-owning.
  // Null by default, which leaves each mutation a single branch.
  void SetEdgeObserver(EdgeObserver* observer) {
    util::Check(observer == nullptr || edge_observer_ == nullptr,
                "the tree has one edge observer slot");
    edge_observer_ = observer;
  }

  // --- queries ------------------------------------------------------------

  // True if walking the parent chain from `id` reaches the root.
  bool IsRooted(NodeId id) const;

  // True if `maybe_ancestor` lies on the parent chain of `id` (inclusive of
  // id itself when equal).
  bool IsInSubtreeOf(NodeId id, NodeId maybe_ancestor) const;

  // Applies `fn` to every member of the subtree rooted at `id`, excluding
  // `id` itself, in thread order (children in reverse attach order). No
  // allocation. Like ChildrenOf, the walk follows the LIVE links: `fn` must
  // not Attach/Detach/RemoveFromTree.
  template <typename Fn>
  void ForEachDescendant(NodeId id, Fn&& fn) const {
    const NodeId last = SubtreeLast(id);
    for (NodeId v = id; v != last;) {
      v = preorder_next_[static_cast<std::size_t>(v)];
      fn(v);
    }
  }

  std::size_t CountDescendants(NodeId id) const;

  // Number of tree edges shared by the root paths of a and b -- the loss
  // correlation function w(a, b) of Section 4.1. Both must be rooted.
  int SharedPathEdges(NodeId a, NodeId b) const;

  // Maximum layer among rooted, alive members.
  int Depth() const;

  // Aborts if any structural invariant is violated (O(n); tests and
  // debug-path use).
  void CheckInvariants() const;

 private:
  // Bounds check on the hottest accessors in the simulation (parent-chain
  // walks hit these ~200 times per dispatched event at 10^5 members):
  // deep-tier only, per the check.h policy on hot-path assertions.
  void CheckId(NodeId id) const {
    OMCAST_DCHECK(id >= 0 && static_cast<std::size_t>(id) < members_.size(),
                "node id out of range");
  }
  // Intrusive child-list primitives. Append goes to the tail (== the old
  // vector push_back); unlink splices neighbors (== erase(find)); both keep
  // the attach order of the remaining children intact.
  void AppendChild(NodeId parent, NodeId child);
  void UnlinkChild(NodeId parent, NodeId child);
  // Last node of `id`'s block on the thread: the leaf of its first-child
  // chain (`id` itself when it has no children). O(subtree height).
  NodeId SubtreeLast(NodeId id) const {
    CheckId(id);
    for (NodeId c = first_child_[static_cast<std::size_t>(id)]; c != kNoNode;
         c = first_child_[static_cast<std::size_t>(c)])
      id = c;
    return id;
  }
  void RecomputeLayers(NodeId fragment_root);
  std::vector<NodeId> PathToRoot(NodeId id) const;  // id first, root last

  std::vector<Member> members_;
  // SoA hot state, all indexed by NodeId.
  std::vector<NodeId> parent_;
  std::vector<NodeId> first_child_;
  std::vector<NodeId> last_child_;
  std::vector<NodeId> prev_sibling_;
  std::vector<NodeId> next_sibling_;
  std::vector<NodeId> preorder_next_;
  std::vector<std::int32_t> child_count_;
  std::vector<std::int32_t> layer_;
  std::vector<std::int32_t> capacity_;
  std::vector<std::uint8_t> alive_;
  EdgeObserver* edge_observer_ = nullptr;  // not owned
};

}  // namespace omcast::overlay
