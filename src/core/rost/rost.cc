#include "core/rost/rost.h"

#include <algorithm>

#include "obs/registry.h"
#include "obs/trace.h"
#include "proto/selection.h"
#include "util/check.h"

namespace omcast::core {

using overlay::kNoNode;
using overlay::kRootId;
using overlay::NodeId;
using overlay::Session;

RostProtocol::RostProtocol(RostParams params) : params_(params) {
  util::Check(params_.switching_interval_s > 0.0,
              "switching interval must be positive");
}

RostProtocol::NodeState& RostProtocol::StateFor(NodeId id) {
  if (state_.size() <= static_cast<std::size_t>(id))
    state_.resize(static_cast<std::size_t>(id) + 1);
  return state_[static_cast<std::size_t>(id)];
}

bool RostProtocol::TryAttach(Session& session, NodeId id) {
  // Joining is the minimum-depth rule: newcomers start low and earn their
  // way up via BTP (Section 3.3: moving nodes up gradually keeps short-lived
  // clients from climbing on arrival).
  const std::vector<NodeId> candidates =
      session.CollectJoinPool(session.params().candidate_sample_size, id);
  const NodeId parent = proto::PickMinDepthParent(session, candidates, id);
  if (parent != kNoNode) {
    session.tree().Attach(parent, id);
    return true;
  }
  if (proto::PreemptJoin(session.tree(), candidates, id) == kNoNode)
    return false;
  ++preempt_joins_;
  return true;
}

void RostProtocol::OnAttached(Session& session, NodeId id) {
  NodeState& st = StateFor(id);
  st.recovering = false;
  if (params_.use_referees && !referees_.IsEnrolled(id))
    referees_.Enroll(session, id);
  ScheduleCheck(session, id, params_.switching_interval_s);
}

void RostProtocol::OnDeparture(Session& session, NodeId id) {
  NodeState& st = StateFor(id);
  if (st.timer != sim::kInvalidEventId) {
    session.simulator().Cancel(st.timer);
    st.timer = sim::kInvalidEventId;
  }
  if (st.handshake != nullptr) {
    // A dead initiator sends no releases: its own lease and every granted
    // participant lease are left to their expiry events, so the accounting
    // identity granted == released + expired still closes.
    if (st.handshake->timeout != sim::kInvalidEventId)
      session.simulator().Cancel(st.handshake->timeout);
    st.handshake.reset();
  }
}

void RostProtocol::OnOrphaned(Session&, NodeId id) {
  // Mid failure-recovery: the member neither initiates switches nor lets
  // others lock it into one (Section 3.3 lock rule).
  StateFor(id).recovering = true;
}

void RostProtocol::ScheduleCheck(Session& session, NodeId id, double delay_s) {
  NodeState& st = StateFor(id);
  if (st.timer != sim::kInvalidEventId) session.simulator().Cancel(st.timer);
  st.timer = session.simulator().ScheduleAfter(
      delay_s, [this, &session, id] { CheckSwitch(session, id); },
      "rost.check");
}

double RostProtocol::EffectiveBtp(Session& session, NodeId id) {
  const sim::Time now = session.simulator().now();
  if (params_.use_referees && referees_.IsEnrolled(id))
    return referees_.VerifiedBandwidth(session, id) *
           referees_.VerifiedAge(session, id, now);
  return session.tree().Get(id).ClaimedBtp(now);
}

double RostProtocol::EffectiveBandwidth(Session& session, NodeId id) {
  if (params_.use_referees && referees_.IsEnrolled(id))
    return referees_.VerifiedBandwidth(session, id);
  return session.tree().Get(id).reported_bandwidth;
}

double RostProtocol::EffectiveAge(Session& session, NodeId id) {
  const sim::Time now = session.simulator().now();
  if (params_.use_referees && referees_.IsEnrolled(id))
    return referees_.VerifiedAge(session, id, now);
  const overlay::Member& m = session.tree().Get(id);
  return m.Age(now) + m.reported_age_bonus;
}

bool RostProtocol::TryLock(Session& session, const std::vector<NodeId>& set) {
  const sim::Time now = session.simulator().now();
  for (NodeId id : set) {
    const NodeState& st = StateFor(id);
    if (st.locked_until > now || st.recovering) return false;
  }
  for (NodeId id : set) StateFor(id).locked_until = now + kLockHoldS;
  AuditLockSet(session, set);
  return true;
}

void RostProtocol::AuditLockSet(Session& session,
                                const std::vector<NodeId>& set) {
  if constexpr (!util::kDcheckEnabled) {
    (void)session;
    (void)set;
    return;
  }
  const sim::Time now = session.simulator().now();
  for (NodeId id : set) {
    const NodeState& st = StateFor(id);
    OMCAST_DCHECK(st.locked_until > now,
                  "acquired lock set member must hold its lock");
    OMCAST_DCHECK(!st.recovering,
                  "lock must never be granted over a recovering member");
  }
}

void RostProtocol::CheckSwitchNow(Session& session, NodeId id) {
  CheckSwitch(session, id);
}

// --- lease-path handshake ---------------------------------------------------

void RostProtocol::StartHandshake(Session& session, NodeId id, NodeId parent,
                                  std::vector<NodeId> lock_set) {
  NodeState& st = StateFor(id);
  auto hs = std::make_unique<Handshake>();
  hs->serial = ++st.handshake_serial;
  hs->parent = parent;
  for (NodeId n : lock_set)
    if (n != id) hs->participants.push_back(n);
  hs->granted.assign(hs->participants.size(), 0);
  hs->lease_serial.assign(hs->participants.size(), 0);
  // The initiator leases itself locally; messages cover everyone else.
  hs->self_lease_serial = GrantLease(session, id, id);
  const std::uint64_t serial = hs->serial;
  hs->timeout = session.simulator().ScheduleAfter(
      kLockRequestTimeoutS,
      [this, &session, id, serial] { OnLockTimeout(session, id, serial); },
      "rost.lock_timeout");
  StateFor(id).handshake = std::move(hs);
  for (NodeId p : StateFor(id).handshake->participants) {
    const double hop = session.DelayMs(id, p) / 1000.0;
    fault_plane_->Deliver(id, p, hop, [this, &session, p, id, serial] {
      OnLockRequest(session, p, id, serial);
    });
  }
}

void RostProtocol::OnLockRequest(Session& session, NodeId participant,
                                 NodeId holder, std::uint64_t hs_serial) {
  // A dead participant is simply silent; the initiator's timeout covers it.
  if (!session.tree().Alive(participant)) return;
  const sim::Time now = session.simulator().now();
  if (obs::Tracer* tr = session.tracer(); tr != nullptr)
    tr->Emit(now, obs::EventKind::kLockRequest, participant, holder,
             static_cast<std::int64_t>(hs_serial));
  const double hop = session.DelayMs(participant, holder) / 1000.0;
  NodeState& ps = StateFor(participant);
  if (ps.lease_held && ps.lease_holder == holder) {
    // Duplicated request: re-send the grant idempotently (same serial, so
    // the initiator's dedup and the eventual release still line up).
    const std::uint64_t lease = ps.lease_serial;
    fault_plane_->Deliver(
        participant, holder, hop,
        [this, &session, holder, participant, hs_serial, lease] {
          OnLockGrant(session, holder, participant, hs_serial, lease);
        });
    return;
  }
  if (ps.locked_until > now || ps.recovering) {
    fault_plane_->Deliver(participant, holder, hop,
                          [this, &session, holder, hs_serial] {
                            OnLockDeny(session, holder, hs_serial);
                          });
    return;
  }
  const std::uint64_t lease = GrantLease(session, participant, holder);
  fault_plane_->Deliver(
      participant, holder, hop,
      [this, &session, holder, participant, hs_serial, lease] {
        OnLockGrant(session, holder, participant, hs_serial, lease);
      });
}

void RostProtocol::OnLockGrant(Session& session, NodeId holder,
                               NodeId participant, std::uint64_t hs_serial,
                               std::uint64_t lease_serial) {
  NodeState& st = StateFor(holder);
  Handshake* hs = st.handshake.get();
  if (hs == nullptr || hs->serial != hs_serial) {
    // Late grant for an abandoned attempt: free the participant early
    // rather than letting its lease run out (a dead holder stays silent,
    // leaving the lease to expire).
    if (session.tree().Alive(holder))
      SendRelease(session, holder, participant, lease_serial);
    return;
  }
  for (std::size_t i = 0; i < hs->participants.size(); ++i) {
    if (hs->participants[i] != participant) continue;
    if (hs->granted[i]) return;  // duplicated grant message
    hs->granted[i] = 1;
    hs->lease_serial[i] = lease_serial;
    ++hs->grants;
    break;
  }
  if (hs->grants == static_cast<int>(hs->participants.size()))
    CompleteHandshake(session, holder);
}

void RostProtocol::OnLockDeny(Session& session, NodeId holder,
                              std::uint64_t hs_serial) {
  NodeState& st = StateFor(holder);
  if (st.handshake == nullptr || st.handshake->serial != hs_serial) return;
  ++lock_conflicts_;
  if (obs::Tracer* tr = session.tracer(); tr != nullptr)
    tr->Emit(session.simulator().now(), obs::EventKind::kLockDeny, holder,
             kNoNode, static_cast<std::int64_t>(hs_serial));
  FailHandshake(session, holder);
}

void RostProtocol::OnLockTimeout(Session& session, NodeId holder,
                                 std::uint64_t hs_serial) {
  NodeState& st = StateFor(holder);
  if (st.handshake == nullptr || st.handshake->serial != hs_serial) return;
  st.handshake->timeout = sim::kInvalidEventId;  // this event just fired
  ++lock_timeouts_;
  if (obs::Tracer* tr = session.tracer(); tr != nullptr)
    tr->Emit(session.simulator().now(), obs::EventKind::kLockTimeout, holder,
             kNoNode, static_cast<std::int64_t>(hs_serial));
  FailHandshake(session, holder);
}

void RostProtocol::CompleteHandshake(Session& session, NodeId holder) {
  const Handshake& hs = *StateFor(holder).handshake;
  obs::Tracer* const tracer = session.tracer();
  // kSwitchAbort reasons: 1 = neighbourhood drifted while grants were in
  // flight, 2 = the switch condition no longer holds, 3 = infeasible.
  const auto trace_abort = [&](std::int64_t reason) {
    if (tracer != nullptr)
      tracer->Emit(session.simulator().now(), obs::EventKind::kSwitchAbort,
                   holder, hs.parent, reason);
  };
  // Re-validate before swapping: the tree may have drifted while grants
  // were in flight (a neighbour died, a newcomer attached under the parent,
  // the member was re-parented). The leases only cover the neighbourhood
  // captured at initiation; any drift means the swap would rearrange edges
  // nobody locked, so abort and release.
  const overlay::Tree& tree = session.tree();
  bool valid = tree.Alive(holder) && tree.Parent(holder) == hs.parent &&
               tree.IsRooted(holder);
  if (valid) {
    std::vector<NodeId> current = BuildLockSet(session, holder, hs.parent);
    std::vector<NodeId> locked = hs.participants;
    locked.push_back(holder);
    std::sort(current.begin(), current.end());
    std::sort(locked.begin(), locked.end());
    valid = current == locked;
  }
  if (!valid) {
    ++handshake_aborts_;
    trace_abort(1);
    TearDownHandshake(session, holder);
    ScheduleCheck(session, holder, params_.switching_interval_s);
    return;
  }
  if (!SwitchConditionHolds(session, holder, hs.parent)) {
    // The BTPs moved on while the handshake ran; nothing to do after all.
    trace_abort(2);
    TearDownHandshake(session, holder);
    StateFor(holder).failed_attempts = 0;
    ScheduleCheck(session, holder, params_.switching_interval_s);
    return;
  }
  if (!SwitchFeasible(session, holder, hs.parent)) {
    ++infeasible_;
    trace_abort(3);
    TearDownHandshake(session, holder);
    ScheduleCheck(session, holder, params_.switching_interval_s);
    return;
  }
  const NodeId parent = hs.parent;
  PerformSwitch(session, holder, parent);
  // Emitted before the teardown releases the leases, so the commit always
  // falls inside the holder's own lease window (the causality test's
  // invariant).
  if (tracer != nullptr)
    tracer->Emit(session.simulator().now(), obs::EventKind::kSwitchCommit,
                 holder, parent);
  TearDownHandshake(session, holder);
  StateFor(holder).failed_attempts = 0;
  ScheduleCheck(session, holder, params_.switching_interval_s);
}

void RostProtocol::FailHandshake(Session& session, NodeId holder) {
  TearDownHandshake(session, holder);
  RetryAfterFailure(session, holder);
}

void RostProtocol::TearDownHandshake(Session& session, NodeId holder) {
  NodeState& st = StateFor(holder);
  util::Check(st.handshake != nullptr, "no handshake to tear down");
  const Handshake hs = std::move(*st.handshake);
  st.handshake.reset();
  if (hs.timeout != sim::kInvalidEventId)
    session.simulator().Cancel(hs.timeout);
  ReleaseLease(session, holder, holder, hs.self_lease_serial);
  for (std::size_t i = 0; i < hs.participants.size(); ++i)
    if (hs.granted[i])
      SendRelease(session, holder, hs.participants[i], hs.lease_serial[i]);
}

std::uint64_t RostProtocol::GrantLease(Session& session, NodeId node,
                                       NodeId holder) {
  NodeState& st = StateFor(node);
  const sim::Time now = session.simulator().now();
  st.locked_until = now + kLockLeaseS;
  st.lease_held = true;
  st.lease_holder = holder;
  const std::uint64_t serial = ++st.lease_serial;
  ++leases_granted_;
  if (obs::Tracer* tr = session.tracer(); tr != nullptr)
    tr->Emit(now, obs::EventKind::kLockGrant, node, holder,
             static_cast<std::int64_t>(serial));
  // Expiry is unconditional bookkeeping, deliberately independent of the
  // node's liveness: a participant that dies holding a lease is reaped
  // here, which is what makes a wedged lock impossible.
  session.simulator().ScheduleAt(
      st.locked_until,
      [this, &session, node, serial] {
        NodeState& s = StateFor(node);
        if (s.lease_held && s.lease_serial == serial) {
          s.lease_held = false;
          const NodeId was_holder = s.lease_holder;
          s.lease_holder = kNoNode;
          ++leases_expired_;
          if (obs::Tracer* tr = session.tracer(); tr != nullptr)
            tr->Emit(session.simulator().now(), obs::EventKind::kLockExpire,
                     node, was_holder, static_cast<std::int64_t>(serial));
        }
      },
      "rost.lease_expiry");
  return serial;
}

void RostProtocol::ReleaseLease(Session& session, NodeId node, NodeId holder,
                                std::uint64_t lease_serial) {
  NodeState& st = StateFor(node);
  // The serial disambiguates: a delayed release from an old attempt must
  // not free a lease the same holder re-acquired since.
  if (!st.lease_held || st.lease_holder != holder ||
      st.lease_serial != lease_serial)
    return;
  st.lease_held = false;
  st.lease_holder = kNoNode;
  st.locked_until = session.simulator().now();
  ++leases_released_;
  if (obs::Tracer* tr = session.tracer(); tr != nullptr)
    tr->Emit(session.simulator().now(), obs::EventKind::kLockRelease, node,
             holder, static_cast<std::int64_t>(lease_serial));
}

void RostProtocol::SendRelease(Session& session, NodeId holder,
                               NodeId participant, std::uint64_t lease_serial) {
  const double hop = session.DelayMs(holder, participant) / 1000.0;
  fault_plane_->Deliver(holder, participant, hop,
                        [this, &session, participant, holder, lease_serial] {
                          ReleaseLease(session, participant, holder,
                                       lease_serial);
                        });
}

long RostProtocol::WedgedLeases(sim::Time now) const {
  long wedged = 0;
  for (const NodeState& st : state_)
    if (st.lease_held && st.locked_until < now) ++wedged;
  return wedged;
}

void RostProtocol::ExportCounters(obs::Registry& reg) const {
  reg.Count("rost.switches", static_cast<double>(switches_));
  reg.Count("rost.lock_conflicts", static_cast<double>(lock_conflicts_));
  reg.Count("rost.lock_retries", static_cast<double>(lock_retries_));
  reg.Count("rost.lock_timeouts", static_cast<double>(lock_timeouts_));
  reg.Count("rost.handshake_aborts", static_cast<double>(handshake_aborts_));
  reg.Count("rost.infeasible_switches", static_cast<double>(infeasible_));
  reg.Count("rost.preempt_joins", static_cast<double>(preempt_joins_));
}

void RostProtocol::CheckSwitch(Session& session, NodeId id) {
  overlay::Tree& tree = session.tree();
  if (!tree.Alive(id)) return;
  StateFor(id).timer = sim::kInvalidEventId;
  if (StateFor(id).handshake != nullptr) return;  // attempt already in flight

  // While detached (rejoining) or inside an orphaned fragment, just keep
  // the periodic check alive.
  if (tree.Parent(id) == kNoNode || !tree.IsRooted(id)) {
    ScheduleCheck(session, id, params_.switching_interval_s);
    return;
  }
  const NodeId parent = tree.Parent(id);
  if (parent == kRootId) {
    // The source has infinite BTP; nothing to compare against.
    ScheduleCheck(session, id, params_.switching_interval_s);
    return;
  }

  if (!SwitchConditionHolds(session, id, parent)) {
    StateFor(id).failed_attempts = 0;
    ScheduleCheck(session, id, params_.switching_interval_s);
    return;
  }

  obs::Tracer* const tracer = session.tracer();
  if (tracer != nullptr)
    tracer->Emit(session.simulator().now(), obs::EventKind::kSwitchAttempt, id,
                 parent);

  std::vector<NodeId> lock_set = BuildLockSet(session, id, parent);

  if (fault_plane_ != nullptr) {
    // Lease path: the lock set is assembled by messages that can be lost;
    // only the self-lock is local.
    const sim::Time now = session.simulator().now();
    NodeState& st = StateFor(id);
    if (st.locked_until > now || st.recovering) {
      ++lock_conflicts_;
      RetryAfterFailure(session, id);
      return;
    }
    StartHandshake(session, id, parent, std::move(lock_set));
    return;
  }

  if (!TryLock(session, lock_set)) {
    ++lock_conflicts_;
    if (tracer != nullptr)
      tracer->Emit(session.simulator().now(), obs::EventKind::kLockDeny, id,
                   parent);
    ScheduleCheck(session, id, kLockRetryDelayS);
    return;
  }
  if (tracer != nullptr) {
    // Oracle locks carry no lease serial; detail 0 marks them apart from
    // lease-path grants (whose serials start at 1).
    const sim::Time now = session.simulator().now();
    for (NodeId n : lock_set)
      tracer->Emit(now, obs::EventKind::kLockGrant, n, id);
  }

  if (!SwitchFeasible(session, id, parent)) {
    ++infeasible_;
    if (tracer != nullptr)
      tracer->Emit(session.simulator().now(), obs::EventKind::kSwitchAbort, id,
                   parent, 3);
    ScheduleCheck(session, id, params_.switching_interval_s);
    return;
  }

  PerformSwitch(session, id, parent);
  if (tracer != nullptr)
    tracer->Emit(session.simulator().now(), obs::EventKind::kSwitchCommit, id,
                 parent);
  ScheduleCheck(session, id, params_.switching_interval_s);
}

std::vector<NodeId> RostProtocol::BuildLockSet(Session& session, NodeId id,
                                               NodeId parent) const {
  // Lock set: self, parent, grandparent, own children, siblings.
  const overlay::Tree& tree = session.tree();
  std::vector<NodeId> lock_set = {id, parent, tree.Parent(parent)};
  for (NodeId c : tree.ChildrenOf(id)) lock_set.push_back(c);
  for (NodeId s : tree.ChildrenOf(parent))
    if (s != id) lock_set.push_back(s);
  return lock_set;
}

void RostProtocol::RetryAfterFailure(Session& session, NodeId id) {
  NodeState& st = StateFor(id);
  ++st.failed_attempts;
  ++lock_retries_;
  const int shift = std::min(st.failed_attempts - 1, 20);
  const double mult = std::min(static_cast<double>(1L << shift),
                               static_cast<double>(kLockRetryMaxBackoff));
  ScheduleCheck(session, id, kLockRetryDelayS * mult);
}

bool RostProtocol::SwitchConditionHolds(Session& session, NodeId id,
                                        NodeId parent) {
  switch (params_.criterion) {
    case SwitchCriterion::kBtp:
      // The paper's rule: BTP strictly larger AND bandwidth no smaller
      // (the bandwidth guard avoids switches the parent would undo by
      // out-earning the child later, Section 3.3).
      return EffectiveBtp(session, id) > EffectiveBtp(session, parent) &&
             EffectiveBandwidth(session, id) >=
                 EffectiveBandwidth(session, parent);
    case SwitchCriterion::kBandwidthOnly:
      return EffectiveBandwidth(session, id) >
             EffectiveBandwidth(session, parent);
    case SwitchCriterion::kAgeOnly:
      return EffectiveAge(session, id) > EffectiveAge(session, parent);
  }
  return false;
}

bool RostProtocol::SwitchFeasible(Session& session, NodeId id,
                                  NodeId parent) const {
  // Structural feasibility against *actual* capacities: the switch
  // handshake itself reveals an out-degree shortage (e.g. a bandwidth
  // cheater) and the swap aborts.
  const overlay::Tree& tree = session.tree();
  const int siblings = tree.ChildCount(parent) - 1;
  const int former = tree.ChildCount(id);
  const int overflow = std::max(0, former - tree.Capacity(parent));
  return tree.Capacity(id) >= 1 + siblings + overflow;
}

void RostProtocol::OnPrepopulated(Session& session, NodeId id) {
  // Replay the member's historical switching: one opportunity per elapsed
  // switching interval of its age, each climbing at most one level.
  overlay::Tree& tree = session.tree();
  const double age = tree.Get(id).Age(session.simulator().now());
  long opportunities =
      static_cast<long>(age / params_.switching_interval_s);
  opportunities = std::min(opportunities, 256L);
  while (opportunities-- > 0) {
    const NodeId parent = tree.Parent(id);
    if (parent == kNoNode || parent == kRootId) break;
    if (!SwitchConditionHolds(session, id, parent)) break;
    if (!SwitchFeasible(session, id, parent)) break;
    PerformSwitch(session, id, parent);
  }
}

void RostProtocol::PerformSwitch(Session& session, NodeId child,
                                 NodeId parent) {
  overlay::Tree& tree = session.tree();
  const NodeId grand = tree.Parent(parent);
  util::Check(grand != kNoNode, "switch requires a grandparent");

  std::vector<NodeId> siblings;
  for (NodeId s : tree.ChildrenOf(parent))
    if (s != child) siblings.push_back(s);
  std::vector<NodeId> former = tree.Children(child);
  // Members whose edges the swap rearranges; AuditSwitch checks none are
  // lost or duplicated once the neighbourhood is reassembled.
  const std::size_t neighbourhood_size = 2 + siblings.size() + former.size();

  // Disassemble the neighbourhood.
  for (NodeId s : siblings) tree.Detach(s);
  for (NodeId k : former) tree.Detach(k);
  tree.Detach(child);
  tree.Detach(parent);

  // Promote the child into the parent's position.
  tree.Attach(grand, child);
  tree.Attach(child, parent);
  for (NodeId s : siblings) {
    tree.Attach(child, s);
    ++tree.Get(s).reconnections;
  }

  // The demoted parent adopts the child's former children up to capacity;
  // the largest-BTP overflow stays with the promoted node (Fig. 2's f).
  const sim::Time now = session.simulator().now();
  std::sort(former.begin(), former.end(), [&](NodeId a, NodeId b) {
    return tree.Get(a).Btp(now) > tree.Get(b).Btp(now);
  });
  const int overflow =
      std::max(0, static_cast<int>(former.size()) - tree.Capacity(parent));
  for (std::size_t i = 0; i < former.size(); ++i) {
    if (static_cast<int>(i) < overflow) {
      // Stays with its old parent (the promoted node): no reconnection.
      tree.Attach(child, former[i]);
    } else {
      tree.Attach(parent, former[i]);
      ++tree.Get(former[i]).reconnections;
    }
  }
  ++tree.Get(child).reconnections;
  ++tree.Get(parent).reconnections;
  ++switches_;
  AuditSwitch(session, child, parent, grand, neighbourhood_size);
}

void RostProtocol::AuditSwitch(Session& session, NodeId child, NodeId parent,
                               NodeId grand,
                               std::size_t neighbourhood_size) const {
  if constexpr (!util::kDcheckEnabled) {
    (void)session;
    (void)child;
    (void)parent;
    (void)grand;
    (void)neighbourhood_size;
    return;
  }
  const overlay::Tree& tree = session.tree();

  // Positions after the swap (Fig. 2): child under the grandparent, parent
  // under the child, layers shifted accordingly.
  OMCAST_DCHECK(tree.Parent(child) == grand,
                "switch: promoted child must sit under the grandparent");
  OMCAST_DCHECK(tree.Parent(parent) == child,
                "switch: demoted parent must sit under the promoted child");
  OMCAST_DCHECK(tree.Layer(child) + 1 == tree.Layer(parent),
                "switch: demoted parent must be one layer below");

  // Conservation: the reassembled neighbourhood (promoted node, its new
  // children, the demoted parent's adopted children) is exactly the set of
  // members the swap disassembled -- nobody dropped, nobody double-attached.
  OMCAST_DCHECK(1 + static_cast<std::size_t>(tree.ChildCount(child)) +
                        static_cast<std::size_t>(tree.ChildCount(parent)) ==
                    neighbourhood_size,
                "switch: neighbourhood member count must be conserved");
  OMCAST_DCHECK(tree.ChildCount(parent) <= tree.Capacity(parent),
                "switch: demoted parent must respect its capacity");

  // Every rearranged member is rooted again: the swap must never strand a
  // fragment (orphans would silently stop receiving the stream).
  OMCAST_DCHECK(tree.IsRooted(child),
                "switch: promoted child must be rooted");
  for (NodeId c : tree.ChildrenOf(child))
    OMCAST_DCHECK(tree.IsRooted(c), "switch: promoted node's children rooted");
  for (NodeId c : tree.ChildrenOf(parent))
    OMCAST_DCHECK(tree.IsRooted(c), "switch: demoted node's children rooted");

  // Full structural audit (O(n)): capacity, layer, parent/child symmetry and
  // acyclicity over the whole tree.
  tree.CheckInvariants();
}

}  // namespace omcast::core
