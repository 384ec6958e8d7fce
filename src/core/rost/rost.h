// The Reliability-Oriented Switching Tree (ROST) algorithm -- the paper's
// primary proactive contribution (Section 3).
//
// Members join like the minimum-depth algorithm (sample ~100 members, pick
// the highest spare-capacity parent, ties by network delay), which places
// newcomers at the leaves. Every switching interval a member compares its
// bandwidth-time product (BTP = outbound bandwidth x age) with its parent's;
// if its BTP is larger *and* its bandwidth is no less than the parent's, the
// two swap positions:
//
//   * the child takes the parent's place under the grandparent,
//   * the old parent and the child's former siblings become children of the
//     promoted node,
//   * the demoted parent adopts the promoted node's former children up to
//     its capacity; the largest-BTP overflow children simply stay with the
//     promoted node (Fig. 2's node f).
//
// The swap first locks the child, parent, grandparent, children and
// siblings; if any is mid-switch or mid-failure-recovery the attempt is
// retried after kLockRetryDelayS (the paper's "say, 15 seconds").
//
// Locking has two implementations:
//
//   * the oracle path (no FaultPlane installed): the lock set is acquired
//     and the swap performed atomically in one event, exactly the paper's
//     idealized description;
//   * the lease path (SetFaultPlane): the handshake is real messages --
//     request -> grant/deny -> release -- each of which can be lost,
//     duplicated, reordered or delayed. A grant is a *lease* that
//     self-expires after kLockLeaseS, so a lost release or a lock holder
//     that dies mid-handshake can never wedge its participants; an
//     initiator that cannot assemble all grants within
//     kLockRequestTimeoutS releases what it got and retries with bounded
//     exponential backoff. Because the tree can change while messages are
//     in flight, a completed handshake re-validates the whole neighbourhood
//     before swapping and aborts (releasing every lease) on any mismatch.
//
// With referees enabled (Section 3.4), switching decisions use
// referee-attested bandwidth/age rather than the member's own claims, which
// neutralizes cheating (see RefereeService).
//
// Thread-compatibility: all lock-lease bookkeeping (NodeState, Handshake,
// the lease counters) is *simulated* protocol state driven by one
// sim::Simulator event loop, so a RostProtocol is confined to the runner
// cell that owns its Session -- host-side locking would be wrong, not just
// unnecessary. Nothing in this class may grow process-shared mutable state:
// cells share only immutable inputs and RunGrid's atomics, and omcast-lint's
// raw-mutex rule keeps src/ free of locks. Its rost-event-emit rule
// separately pins every one of these transition functions to its
// obs::EventKind trace emission.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rost/referee.h"
#include "overlay/session.h"
#include "sim/fault_plane.h"

namespace omcast::core {

// What drives the periodic switch decision. The paper's ROST uses the BTP
// (bandwidth x age) with a bandwidth guard; the other two isolate each
// factor for the ablation bench (a pure-bandwidth switcher approximates the
// BO idea, a pure-age switcher the TO idea, both restricted to ROST's
// child-parent swap mechanics).
enum class SwitchCriterion { kBtp, kBandwidthOnly, kAgeOnly };

// Wait before re-checking when the lock set could not be acquired (the
// paper's "say, 15 seconds").
inline constexpr double kLockRetryDelayS = 15.0;
// How long a switch holds its locks (the handshake + state update time).
inline constexpr double kLockHoldS = 2.0;
// --- lease path (active only when a FaultPlane is installed) --------------
// Lifetime of a granted lock lease.
inline constexpr double kLockLeaseS = 10.0;
// How long the initiator waits to assemble the full grant set before
// releasing what it got and retrying.
inline constexpr double kLockRequestTimeoutS = 2.0;
// Failed lock attempts retry after kLockRetryDelayS * 2^(attempts-1),
// capped at this multiplier.
inline constexpr int kLockRetryMaxBackoff = 8;
static_assert(kLockLeaseS > kLockRequestTimeoutS,
              "a lease must outlive the grant-collection window, so a grant "
              "that reaches the initiator just before its deadline still "
              "covers the swap itself");

struct RostParams {
  // Paper Section 5: default switching interval 360 s (Fig. 11 sweeps
  // 480-1800 s).
  double switching_interval_s = 360.0;
  SwitchCriterion criterion = SwitchCriterion::kBtp;
  // Use referee-attested values for switching decisions.
  bool use_referees = false;
};

class RostProtocol final : public overlay::Protocol {
 public:
  explicit RostProtocol(RostParams params = {});

  std::string name() const override { return "rost"; }
  // Min-depth join; when the rooted tree has no open slot, a joiner with
  // spare capacity displaces the weakest rooted leaf and adopts it (see
  // proto::PreemptJoin), so a correlated failure that strands the overlay's
  // fan-out capacity inside detached fragments cannot deadlock rejoins.
  bool TryAttach(overlay::Session& session, overlay::NodeId id) override;
  void OnAttached(overlay::Session& session, overlay::NodeId id) override;
  void OnDeparture(overlay::Session& session, overlay::NodeId id) override;
  void OnOrphaned(overlay::Session& session, overlay::NodeId id) override;
  // Fast-forwards the BTP switches the member would have performed during
  // its pre-t0 life (one opportunity per elapsed switching interval), so
  // equilibrium pre-population yields ROST's own steady-state tree.
  void OnPrepopulated(overlay::Session& session, overlay::NodeId id) override;

  const RostParams& params() const { return params_; }

  // Routes the lock handshake over real (lossy) messages and switches the
  // locking discipline from the atomic oracle to leases. The plane must
  // outlive the run. Pass nullptr to restore the oracle path.
  void SetFaultPlane(sim::FaultPlane* fault_plane) override {
    fault_plane_ = fault_plane;
  }

  // "rost.*" message-cost counters (the Fig. 10 protocol overhead export).
  void ExportCounters(obs::Registry& reg) const override;

  // The BTP/bandwidth the switching logic believes for `id`: the member's
  // claim, or the referee-attested value when referees are enabled.
  double EffectiveBtp(overlay::Session& session, overlay::NodeId id);
  double EffectiveBandwidth(overlay::Session& session, overlay::NodeId id);
  double EffectiveAge(overlay::Session& session, overlay::NodeId id);

  // Statistics for tests and the protocol-cost experiments.
  long switches_performed() const { return switches_; }
  long lock_conflicts() const { return lock_conflicts_; }
  long infeasible_switches() const { return infeasible_; }
  // Joins that only succeeded by displacing a weaker leaf (saturated tree).
  long preempt_joins() const { return preempt_joins_; }
  RefereeService& referees() { return referees_; }

  // --- lease-path statistics (all zero on the oracle path) ----------------
  long leases_granted() const { return leases_granted_; }
  long leases_released() const { return leases_released_; }
  long leases_expired() const { return leases_expired_; }
  long lock_timeouts() const { return lock_timeouts_; }
  long lock_retries() const { return lock_retries_; }
  // Handshakes that assembled every grant but found the neighbourhood
  // changed underneath them and aborted instead of swapping.
  long handshake_aborts() const { return handshake_aborts_; }
  // Leases currently held (granted - released - expired). After a drain of
  // at least kLockLeaseS with no new switch attempts this must be zero --
  // the "no wedged locks" acceptance check.
  long leases_outstanding() const {
    return leases_granted_ - leases_released_ - leases_expired_;
  }
  // A wedged lease is one still marked held after its expiry time, i.e. the
  // expiry event failed to reap it. Always zero unless the protocol is
  // buggy; chaos runs assert on it.
  long WedgedLeases(sim::Time now) const override;

  // Immediately evaluates `id`'s switching condition (tests drive this
  // directly; production path uses the periodic timer).
  void CheckSwitchNow(overlay::Session& session, overlay::NodeId id);

 private:
  // In-flight lease handshake, owned by the initiator. Participants are the
  // lock set minus the initiator itself (which leases locally).
  struct Handshake {
    std::uint64_t serial = 0;          // matches NodeState::handshake_serial
    overlay::NodeId parent = overlay::kNoNode;  // parent at initiation time
    std::vector<overlay::NodeId> participants;
    std::vector<char> granted;              // parallel to participants
    std::vector<std::uint64_t> lease_serial;  // participant lease serials
    int grants = 0;
    std::uint64_t self_lease_serial = 0;
    sim::EventId timeout = sim::kInvalidEventId;
  };

  struct NodeState {
    sim::EventId timer = sim::kInvalidEventId;
    sim::Time locked_until = 0.0;
    bool recovering = false;  // orphaned, mid failure-recovery
    // --- lease path ---------------------------------------------------------
    bool lease_held = false;
    overlay::NodeId lease_holder = overlay::kNoNode;
    std::uint64_t lease_serial = 0;  // bumps per grant; tags release/expiry
    std::uint64_t handshake_serial = 0;  // bumps per handshake (initiator)
    int failed_attempts = 0;             // consecutive failures, for backoff
    std::unique_ptr<Handshake> handshake;
  };

  NodeState& StateFor(overlay::NodeId id);
  // The paper's switching predicate for `id` against its current parent.
  bool SwitchConditionHolds(overlay::Session& session, overlay::NodeId id,
                            overlay::NodeId parent);
  // Structural feasibility of the swap against actual capacities.
  bool SwitchFeasible(overlay::Session& session, overlay::NodeId id,
                      overlay::NodeId parent) const;
  void ScheduleCheck(overlay::Session& session, overlay::NodeId id,
                     double delay_s);
  void CheckSwitch(overlay::Session& session, overlay::NodeId id);
  bool TryLock(overlay::Session& session, const std::vector<overlay::NodeId>& set);
  // --- lease-path handshake (FaultPlane installed) -------------------------
  // Computes {id, parent, grandparent, children, siblings}.
  std::vector<overlay::NodeId> BuildLockSet(overlay::Session& session,
                                            overlay::NodeId id,
                                            overlay::NodeId parent) const;
  void StartHandshake(overlay::Session& session, overlay::NodeId id,
                      overlay::NodeId parent,
                      std::vector<overlay::NodeId> lock_set);
  void OnLockRequest(overlay::Session& session, overlay::NodeId participant,
                     overlay::NodeId holder, std::uint64_t hs_serial);
  void OnLockGrant(overlay::Session& session, overlay::NodeId holder,
                   overlay::NodeId participant, std::uint64_t hs_serial,
                   std::uint64_t lease_serial);
  void OnLockDeny(overlay::Session& session, overlay::NodeId holder,
                  std::uint64_t hs_serial);
  void OnLockTimeout(overlay::Session& session, overlay::NodeId holder,
                     std::uint64_t hs_serial);
  void CompleteHandshake(overlay::Session& session, overlay::NodeId holder);
  // Failed attempt: release everything granted, back off, retry.
  void FailHandshake(overlay::Session& session, overlay::NodeId holder);
  // Schedules the next attempt with bounded exponential backoff.
  void RetryAfterFailure(overlay::Session& session, overlay::NodeId id);
  // Grants `node`'s lease to `holder`, schedules its expiry; returns the
  // lease serial the eventual release must carry.
  std::uint64_t GrantLease(overlay::Session& session, overlay::NodeId node,
                           overlay::NodeId holder);
  // Local-side release (the participant processing a release message).
  void ReleaseLease(overlay::Session& session, overlay::NodeId node,
                    overlay::NodeId holder, std::uint64_t lease_serial);
  // Sends a release message holder -> participant over the FaultPlane.
  void SendRelease(overlay::Session& session, overlay::NodeId holder,
                   overlay::NodeId participant, std::uint64_t lease_serial);
  // Releases every lease the handshake acquired (self + granted
  // participants) and tears the handshake down.
  void TearDownHandshake(overlay::Session& session, overlay::NodeId holder);
  void PerformSwitch(overlay::Session& session, overlay::NodeId child,
                     overlay::NodeId parent);
  // Deep-tier (OMCAST_DCHECK) full-tree audit of a completed child-parent
  // swap: promoted/demoted positions, conservation of the neighbourhood,
  // and Tree::CheckInvariants() over the whole tree. No-op in Release.
  void AuditSwitch(overlay::Session& session, overlay::NodeId child,
                   overlay::NodeId parent, overlay::NodeId grand,
                   std::size_t neighbourhood_size) const;
  // Deep-tier audit that every member of an acquired lock set is actually
  // held (locked_until in the future) and lockable (not recovering).
  void AuditLockSet(overlay::Session& session,
                    const std::vector<overlay::NodeId>& set);

  RostParams params_;
  std::vector<NodeState> state_;
  RefereeService referees_;
  sim::FaultPlane* fault_plane_ = nullptr;  // nullptr: oracle lock path
  long switches_ = 0;
  long preempt_joins_ = 0;
  long lock_conflicts_ = 0;
  long infeasible_ = 0;
  long leases_granted_ = 0;
  long leases_released_ = 0;
  long leases_expired_ = 0;
  long lock_timeouts_ = 0;
  long lock_retries_ = 0;
  long handshake_aborts_ = 0;
};

}  // namespace omcast::core
