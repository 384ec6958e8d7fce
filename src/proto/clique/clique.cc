#include "proto/clique/clique.h"

#include <algorithm>

#include "obs/registry.h"
#include "obs/trace.h"
#include "proto/selection.h"
#include "util/check.h"

namespace omcast::proto {

using overlay::kNoNode;
using overlay::kRootId;
using overlay::NodeId;
using overlay::Session;
using overlay::Tree;

void ValidateCliqueParams(const CliqueParams& params) {
  util::Check(params.max_cluster_size >= 2,
              "a cluster must hold its delegate plus at least one leaf");
  util::Check(params.min_cluster_size >= 1,
              "the minimum cluster size must be positive");
  util::Check(params.min_cluster_size <= params.max_cluster_size,
              "cluster size bounds must be ordered (min <= max)");
  util::Check(params.election_period_s > 0.0,
              "the election period must be positive (zero would busy-loop "
              "maintenance rounds at one instant)");
  util::Check(params.promotion_timeout_s > 0.0,
              "the promotion timeout must be positive (an instant timeout "
              "would dissolve every cluster before its successor can root)");
  util::Check(params.stability_margin >= 0.0,
              "the stability margin must be non-negative");
}

CliqueProtocol::CliqueProtocol(CliqueParams params) : params_(params) {
  ValidateCliqueParams(params_);
}

int CliqueProtocol::active_clusters() const {
  int n = 0;
  for (const Cluster& c : clusters_)
    if (c.active) ++n;
  return n;
}

int CliqueProtocol::ClusterOf(NodeId id) const {
  const auto slot = static_cast<std::size_t>(id);
  return slot < cluster_of_.size() ? cluster_of_[slot] : -1;
}

NodeId CliqueProtocol::DelegateOf(int cluster) const {
  return clusters_[static_cast<std::size_t>(cluster)].delegate;
}

void CliqueProtocol::EnsureSize(Session& session) {
  if (cluster_of_.size() < session.tree().size())
    cluster_of_.resize(session.tree().size(), -1);
}

void CliqueProtocol::EnsureElectionTimer(Session& session) {
  if (election_timer_started_) return;
  election_timer_started_ = true;
  ScheduleElection(session);
}

void CliqueProtocol::ScheduleElection(Session& session) {
  session.simulator().ScheduleAfter(
      params_.election_period_s,
      [this, &session] {
        RunElection(session);
        ScheduleElection(session);
      },
      "clique.election");
}

bool CliqueProtocol::IsBackboneCandidate(NodeId id) const {
  if (id == kRootId) return true;
  const int cid = ClusterOf(id);
  return cid >= 0 && clusters_[static_cast<std::size_t>(cid)].delegate == id;
}

void CliqueProtocol::SendAdvisory(Session& session, NodeId from, NodeId to) {
  if (fault_plane_ == nullptr || from == to) return;
  const double hop = session.DelayMs(from, to) / 1000.0;
  fault_plane_->Deliver(from, to, hop, [] {});
}

bool CliqueProtocol::TryAttach(Session& session, NodeId id) {
  EnsureSize(session);
  EnsureElectionTimer(session);
  const int cid = ClusterOf(id);
  if (cid >= 0) {
    if (clusters_[static_cast<std::size_t>(cid)].delegate == id)
      return AttachToBackbone(session, id);
    return AttachWithinCluster(session, id);
  }
  return TryFreshAttach(session, id);
}

bool CliqueProtocol::AttachToBackbone(Session& session, NodeId id) {
  const int cid = ClusterOf(id);
  const std::vector<NodeId> pool =
      session.CollectJoinPool(session.params().candidate_sample_size, id);
  std::vector<NodeId> backbone;
  backbone.reserve(pool.size());
  for (NodeId m : pool)
    if (m != id && IsBackboneCandidate(m)) backbone.push_back(m);
  ++backbone_messages_;  // the position claim hits the backbone tier
  const NodeId parent = PickMinDepthParent(session, backbone, id);
  if (parent == kNoNode) {
    // The backbone refused the claim (no interior spare capacity). The
    // session retries with backoff, but the cluster's patience is bounded:
    // if the seat is still off the backbone when the claim timeout fires,
    // the cluster dissolves and its members re-disperse through the fresh
    // path instead of hanging off an unroutable delegate forever.
    ArmSuccessionTimeout(session, cid);
    return false;
  }
  session.tree().Attach(parent, id);
  ++backbone_messages_;  // the accepting backbone node's acknowledgement
  ++backbone_reattaches_;
  SendAdvisory(session, id, parent);
  // The seat is rooted again: retire any pending promotion/claim timeout.
  ++clusters_[static_cast<std::size_t>(cid)].succession_epoch;
  clusters_[static_cast<std::size_t>(cid)].claim_timer_armed = false;
  if (obs::Tracer* tr = session.tracer())
    tr->Emit(session.simulator().now(),
             obs::EventKind::kCliqueBackboneReattach, id, parent, cid);
  return true;
}

bool CliqueProtocol::AttachWithinCluster(Session& session, NodeId id) {
  const int cid = ClusterOf(id);
  Cluster& c = clusters_[static_cast<std::size_t>(cid)];
  const Tree& tree = session.tree();
  // Seat vacancies are filled synchronously by OnDeparture, so a missing or
  // dead seat here means succession already failed -- disband and let the
  // member re-enter through the fresh path.
  if (c.delegate == kNoNode || !tree.Alive(c.delegate)) {
    DissolveCluster(session, cid);
    return TryFreshAttach(session, id);
  }
  std::vector<NodeId> local;
  local.reserve(c.members.size());
  for (NodeId m : c.members) {
    if (m == id) continue;
    if (!tree.Alive(m) || !tree.IsRooted(m)) continue;
    if (tree.IsInSubtreeOf(m, id)) continue;
    local.push_back(m);
  }
  ++local_messages_;  // the intra-clique parent query
  const NodeId parent = PickMinDepthParent(session, local, id);
  if (parent == kNoNode) {
    // A rooted clique with no spare slot is genuinely full: migrate out
    // through the fresh path. An unrooted one (its seat is mid-claim on the
    // backbone) just retries via the session's backoff.
    if (tree.IsRooted(c.delegate)) {
      LeaveCluster(id);
      return TryFreshAttach(session, id);
    }
    return false;
  }
  session.tree().Attach(parent, id);
  ++local_messages_;  // the accepting member's acknowledgement
  ++local_recoveries_;
  if (obs::Tracer* tr = session.tracer())
    tr->Emit(session.simulator().now(), obs::EventKind::kCliqueLocalRecovery,
             id, parent, cid);
  return true;
}

bool CliqueProtocol::TryFreshAttach(Session& session, NodeId id) {
  const std::vector<NodeId> pool =
      session.CollectJoinPool(session.params().candidate_sample_size, id);
  // Prefer boarding an existing clique with room (the root is skipped: its
  // children are delegates only, never leaves).
  std::vector<NodeId> open;
  open.reserve(pool.size());
  for (NodeId m : pool) {
    const int mc = ClusterOf(m);
    if (mc < 0) continue;
    const Cluster& c = clusters_[static_cast<std::size_t>(mc)];
    if (!c.active) continue;
    if (static_cast<int>(c.members.size()) >= params_.max_cluster_size)
      continue;
    open.push_back(m);
  }
  ++local_messages_;  // the boarding query
  NodeId parent = PickMinDepthParent(session, open, id);
  if (parent == kNoNode && !FormCluster(session, id)) {
    // Every open clique is capacity-full and the backbone refused a new
    // delegate seat. Overflow admission: board under ANY non-root member
    // with a spare slot -- a size-capped clique or even a clusterless
    // member parked there by an earlier dissolution. The size cap is an
    // admission preference and clusterless capacity is still capacity;
    // honoring either scruple here would strand the member outright.
    std::vector<NodeId> any;
    any.reserve(pool.size());
    for (NodeId m : pool)
      if (m != kRootId) any.push_back(m);
    ++local_messages_;  // the widened (overflow) boarding query
    parent = PickMinDepthParent(session, any, id);
    if (parent != kNoNode) ++overflow_attaches_;
  }
  if (parent == kNoNode) {
    if (ClusterOf(id) >= 0) return true;  // FormCluster already placed it
    return PreemptAttach(session, pool, id);
  }
  const int mc = ClusterOf(parent);
  session.tree().Attach(parent, id);
  ++local_messages_;
  // Under a clusterless (overflow) parent the joiner stays clusterless too;
  // it re-enters the clique structure through this same path when it is
  // next orphaned.
  if (mc >= 0) {
    cluster_of_[static_cast<std::size_t>(id)] = mc;
    clusters_[static_cast<std::size_t>(mc)].members.push_back(id);
  }
  return true;
}

bool CliqueProtocol::PreemptAttach(Session& session,
                                   const std::vector<NodeId>& pool,
                                   NodeId id) {
  Tree& tree = session.tree();
  // The joiner must be able to host the displaced leaf, and the leaf must
  // be strictly weaker: each splice then grows rooted fan-out, so repeated
  // preemptions terminate with the backlog drained rather than ping-ponging
  // free-riders.
  if (tree.SpareCapacity(id) < 1) return false;
  const double joiner_bw = tree.Get(id).reported_bandwidth;
  NodeId weakest = kNoNode;
  for (NodeId c : pool) {
    if (c == kRootId || IsBackboneCandidate(c)) continue;  // seats stay put
    if (tree.ChildCount(c) != 0) continue;  // only leaves: nobody else moves
    const double bw = tree.Get(c).reported_bandwidth;
    if (bw >= joiner_bw) continue;
    if (weakest == kNoNode || bw < tree.Get(weakest).reported_bandwidth ||
        (bw == tree.Get(weakest).reported_bandwidth && c < weakest))
      weakest = c;
  }
  if (weakest == kNoNode) return false;
  // Splice: the joiner takes the leaf's slot, the leaf becomes its child --
  // an intra-cluster move announced cluster-locally, never to the backbone.
  const NodeId slot_parent = tree.Parent(weakest);
  tree.Detach(weakest);
  tree.Attach(slot_parent, id);
  tree.Attach(id, weakest);
  ++tree.Get(weakest).reconnections;
  ++overflow_attaches_;
  local_messages_ += 2;  // eviction notice + the displaced leaf's reattach
  const int mc = ClusterOf(slot_parent);
  if (mc >= 0) {
    cluster_of_[static_cast<std::size_t>(id)] = mc;
    clusters_[static_cast<std::size_t>(mc)].members.push_back(id);
  }
  return true;
}

bool CliqueProtocol::FormCluster(Session& session, NodeId id) {
  // The founder becomes a delegate: allocate the cluster first so the
  // backbone filter recognizes its claim, then roll back if the backbone
  // refuses (no cluster exists without a rooted delegate).
  const int cid = AllocateCluster();
  Cluster& c = clusters_[static_cast<std::size_t>(cid)];
  c.delegate = id;
  c.members.assign(1, id);
  c.active = true;
  cluster_of_[static_cast<std::size_t>(id)] = cid;
  if (!AttachToBackbone(session, id)) {
    cluster_of_[static_cast<std::size_t>(id)] = -1;
    c.delegate = kNoNode;
    c.members.clear();
    c.active = false;
    ++c.succession_epoch;  // retires the claim timeout the refusal armed
    c.claim_timer_armed = false;
    free_clusters_.push_back(cid);
    return false;
  }
  ++clusters_formed_;
  if (obs::Tracer* tr = session.tracer())
    tr->Emit(session.simulator().now(), obs::EventKind::kCliqueFormed, id,
             session.tree().Parent(id), cid);
  return true;
}

void CliqueProtocol::OnDeparture(Session& session, NodeId id) {
  EnsureSize(session);
  const int cid = ClusterOf(id);
  if (cid < 0) return;
  Cluster& c = clusters_[static_cast<std::size_t>(cid)];
  const bool was_delegate = c.delegate == id;
  LeaveCluster(id);
  if (!was_delegate) return;  // a leaf death is strictly cluster-internal
  c.delegate = kNoNode;
  if (c.members.empty()) {
    DissolveCluster(session, cid);
    return;
  }
  ElectSuccessor(session, cid);
}

void CliqueProtocol::ElectSuccessor(Session& session, int cluster) {
  Cluster& c = clusters_[static_cast<std::size_t>(cluster)];
  const Tree& tree = session.tree();
  // The dead delegate's direct children are now orphaned fragment roots and
  // every surviving member hangs inside one of their fragments. The seat
  // goes to the strongest fragment root -- highest outdegree, ties to the
  // oldest member, then the smallest id -- because a fragment root is the
  // one member whose rejoin can carry the clique back to the backbone.
  NodeId best = kNoNode;
  for (NodeId m : c.members) {
    if (!tree.Alive(m) || tree.Parent(m) != kNoNode) continue;
    if (best == kNoNode) {
      best = m;
      continue;
    }
    const int cb = tree.Capacity(best);
    const int cm = tree.Capacity(m);
    const double jb = tree.Get(best).join_time;
    const double jm = tree.Get(m).join_time;
    if (cm > cb || (cm == cb && (jm < jb || (jm == jb && m < best)))) best = m;
  }
  if (best == kNoNode) {
    // No orphaned fragment root to promote: the clique has no path back to
    // the backbone -- disband it.
    DissolveCluster(session, cluster);
    return;
  }
  c.delegate = best;
  ++promotions_;
  local_messages_ += static_cast<long>(c.members.size());  // claim broadcast
  for (NodeId m : c.members) SendAdvisory(session, best, m);
  ArmSuccessionTimeout(session, cluster);
  if (obs::Tracer* tr = session.tracer())
    tr->Emit(session.simulator().now(),
             obs::EventKind::kCliqueDelegatePromoted, best, kNoNode, cluster);
}

void CliqueProtocol::ArmSuccessionTimeout(Session& session, int cluster) {
  Cluster& arm = clusters_[static_cast<std::size_t>(cluster)];
  // One pending timeout at a time: re-arming on every refused claim would
  // push the deadline out past each retry and the patience would never run
  // out.
  if (arm.claim_timer_armed) return;
  arm.claim_timer_armed = true;
  const int epoch = ++arm.succession_epoch;
  session.simulator().ScheduleAfter(
      params_.promotion_timeout_s,
      [this, &session, cluster, epoch] {
        Cluster& c = clusters_[static_cast<std::size_t>(cluster)];
        if (!c.active || c.succession_epoch != epoch) return;
        c.claim_timer_armed = false;
        const Tree& tree = session.tree();
        if (c.delegate != kNoNode && tree.Alive(c.delegate) &&
            tree.IsRooted(c.delegate))
          return;  // the claim landed
        DissolveCluster(session, cluster);
      },
      "clique.promotion_timeout");
}

void CliqueProtocol::RunElection(Session& session) {
  const Tree& tree = session.tree();
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    const int cid = static_cast<int>(i);
    Cluster& c = clusters_[i];
    if (!c.active) continue;
    ++elections_;
    local_messages_ += static_cast<long>(c.members.size());  // keepalive poll
    // An undersized clique dissolves administratively -- but only when some
    // other active clique has room, so a tiny population cannot livelock
    // forming and disbanding its only cluster.
    if (static_cast<int>(c.members.size()) < params_.min_cluster_size) {
      bool other_has_room = false;
      for (std::size_t j = 0; j < clusters_.size(); ++j) {
        if (j == i || !clusters_[j].active) continue;
        if (static_cast<int>(clusters_[j].members.size()) <
            params_.max_cluster_size) {
          other_has_room = true;
          break;
        }
      }
      if (other_has_room) {
        DissolveCluster(session, cid);
        continue;
      }
    }
    // Stability challenge: a direct in-cluster child whose outdegree beats
    // the incumbent's by the margin (and that has a slot to adopt it into)
    // takes the seat.
    const NodeId seat = c.delegate;
    if (seat != kNoNode && tree.Alive(seat) && tree.IsRooted(seat) &&
        tree.Parent(seat) != kNoNode) {
      NodeId challenger = kNoNode;
      for (NodeId m : tree.ChildrenOf(seat)) {
        if (ClusterOf(m) != cid || m == seat) continue;
        if (!tree.Alive(m)) continue;
        if (tree.SpareCapacity(m) < 1) continue;
        if (static_cast<double>(tree.Capacity(m)) <
            static_cast<double>(tree.Capacity(seat)) + params_.stability_margin)
          continue;
        if (challenger == kNoNode) {
          challenger = m;
          continue;
        }
        const int cc = tree.Capacity(challenger);
        const int cm = tree.Capacity(m);
        const double jc = tree.Get(challenger).join_time;
        const double jm = tree.Get(m).join_time;
        if (cm > cc || (cm == cc && (jm < jc || (jm == jc && m < challenger))))
          challenger = m;
      }
      if (challenger != kNoNode) PromoteDelegate(session, cid, challenger);
    }
    if (obs::Tracer* tr = session.tracer())
      tr->Emit(session.simulator().now(), obs::EventKind::kCliqueElection,
               c.delegate, kNoNode, cid);
  }
}

void CliqueProtocol::PromoteDelegate(Session& session, int cluster,
                                     NodeId challenger) {
  Cluster& c = clusters_[static_cast<std::size_t>(cluster)];
  Tree& tree = session.tree();
  const NodeId incumbent = c.delegate;
  const NodeId grand = tree.Parent(incumbent);
  util::Check(tree.Parent(challenger) == incumbent,
              "promotion swaps a delegate with one of its direct children");
  // Announcement-based atomic swap (the structural half of ROST's
  // PerformSwitch, without the lock-lease handshake): the challenger takes
  // the incumbent's backbone position, the incumbent steps down to be its
  // child, and both keep their remaining children.
  tree.Detach(challenger);
  tree.Detach(incumbent);
  tree.Attach(grand, challenger);
  tree.Attach(challenger, incumbent);
  // Both participants re-announce their position: protocol overhead, same
  // accounting as ROST's switch reconnections.
  ++tree.Get(challenger).reconnections;
  ++tree.Get(incumbent).reconnections;
  c.delegate = challenger;
  ++promotions_;
  backbone_messages_ += 2;  // hand-over notices to the backbone parent
  SendAdvisory(session, challenger, grand);
  local_messages_ += static_cast<long>(c.members.size());  // cluster notice
  for (NodeId m : c.members) SendAdvisory(session, challenger, m);
  if (obs::Tracer* tr = session.tracer())
    tr->Emit(session.simulator().now(),
             obs::EventKind::kCliqueDelegatePromoted, challenger, incumbent,
             cluster);
}

void CliqueProtocol::DissolveCluster(Session& session, int cluster) {
  Cluster& c = clusters_[static_cast<std::size_t>(cluster)];
  if (!c.active) return;
  if (obs::Tracer* tr = session.tracer())
    tr->Emit(session.simulator().now(), obs::EventKind::kCliqueDissolved,
             c.delegate != kNoNode
                 ? c.delegate
                 : (c.members.empty() ? kNoNode : c.members.front()),
             kNoNode, cluster);
  for (NodeId m : c.members) cluster_of_[static_cast<std::size_t>(m)] = -1;
  ++clusters_dissolved_;
  c.delegate = kNoNode;
  c.members.clear();
  c.active = false;
  ++c.succession_epoch;  // retires any in-flight promotion timeout
  c.claim_timer_armed = false;
  free_clusters_.push_back(cluster);
}

void CliqueProtocol::LeaveCluster(NodeId id) {
  const int cid = ClusterOf(id);
  if (cid < 0) return;
  Cluster& c = clusters_[static_cast<std::size_t>(cid)];
  const auto it = std::find(c.members.begin(), c.members.end(), id);
  if (it != c.members.end()) c.members.erase(it);
  cluster_of_[static_cast<std::size_t>(id)] = -1;
}

int CliqueProtocol::AllocateCluster() {
  if (!free_clusters_.empty()) {
    const int cid = free_clusters_.back();
    free_clusters_.pop_back();
    return cid;
  }
  clusters_.emplace_back();
  return static_cast<int>(clusters_.size()) - 1;
}

void CliqueProtocol::ExportCounters(obs::Registry& reg) const {
  reg.Count("clique.clusters_formed", static_cast<double>(clusters_formed_));
  reg.Count("clique.clusters_dissolved",
            static_cast<double>(clusters_dissolved_));
  reg.Count("clique.elections", static_cast<double>(elections_));
  reg.Count("clique.promotions", static_cast<double>(promotions_));
  reg.Count("clique.local_recoveries",
            static_cast<double>(local_recoveries_));
  reg.Count("clique.backbone_reattaches",
            static_cast<double>(backbone_reattaches_));
  reg.Count("clique.backbone_messages",
            static_cast<double>(backbone_messages_));
  reg.Count("clique.local_messages", static_cast<double>(local_messages_));
  reg.Count("clique.overflow_attaches",
            static_cast<double>(overflow_attaches_));
  reg.SetGauge("clique.active_clusters",
               static_cast<double>(active_clusters()));
}

}  // namespace omcast::proto
