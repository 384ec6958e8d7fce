// A multicast session ties together the simulation engine, the underlying
// network topology, the multicast tree, a tree-construction protocol, and
// the churn workload of paper Section 5:
//
//   * Poisson arrivals with rate lambda = M / 1809 (Little's law),
//   * lifetimes ~ Lognormal(5.5, 2.0), abrupt (unannounced) departures,
//   * bandwidths ~ BoundedPareto(1.2, 0.5, 100),
//   * every departure disrupts all descendants; orphaned children rejoin
//     through the protocol under test.
//
// Steady state is reached by *equilibrium pre-population*: the session can
// start with M members whose (age, residual lifetime) pairs are drawn from
// the stationary renewal distribution (length-biased lifetime L~, age U*L~),
// so population and age mix are immediately stationary instead of needing
// ~100k simulated seconds for the heavy-tailed lifetime mix to converge.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/topology.h"
#include "overlay/tree.h"
#include "rand/distributions.h"
#include "rand/rng.h"
#include "sim/simulator.h"

namespace omcast::obs {
class Registry;
class Tracer;
}  // namespace omcast::obs

namespace omcast::sim {
class FaultPlane;
}  // namespace omcast::sim

namespace omcast::overlay {

class Session;

// How members discover other members. The default oracle models a
// well-mixed gossip substrate by sampling uniformly from the live
// population; GossipService (overlay/gossip.h) implements the real thing
// with bounded per-member views and periodic push-pull exchanges. Returned
// ids may be stale (dead / detached); the Session filters them.
class MembershipOracle {
 public:
  virtual ~MembershipOracle() = default;
  virtual std::vector<NodeId> KnownMembers(Session& session, NodeId requester,
                                           int k) = 0;
};

// Tree-construction protocol under test (min-depth, longest-first, relaxed
// BO/TO, ROST). Implementations attach members, possibly restructure the
// tree (evictions, switches), and may keep per-node state via the hooks.
class Protocol {
 public:
  virtual ~Protocol() = default;
  virtual std::string name() const = 0;

  // Attempts to place `id` (a fresh member or an orphaned fragment root)
  // into the tree; returns true when attached. On false the session retries
  // after params().join_retry_delay_s.
  virtual bool TryAttach(Session& session, NodeId id) = 0;

  // Called after `id` was successfully attached (fresh join, rejoin, or
  // eviction-triggered rejoin).
  virtual void OnAttached(Session& session, NodeId id);

  // Called when `id` departs (cleanup of per-node protocol state).
  virtual void OnDeparture(Session& session, NodeId id);

  // Called when `id` becomes an orphaned fragment root (its parent failed
  // or it was evicted) and is about to re-enter the join path.
  virtual void OnOrphaned(Session& session, NodeId id);

  // Called once per member during equilibrium pre-population, after it
  // attached. Protocols with periodic restructuring replay here the
  // operations the member would already have performed during its pre-t0
  // life (e.g. ROST fast-forwards its BTP switches), so the t=0 tree is the
  // protocol's own steady-state shape rather than a freshly-joined one.
  virtual void OnPrepopulated(Session& session, NodeId id);

  // --- chaos/observability seams (protocol-agnostic driver contract) -------
  // The scenario and chaos runners talk to every protocol through these
  // three hooks instead of downcasting, so a new protocol plugs into the
  // harness by overriding what applies and ignoring the rest.

  // Routes the protocol's own control traffic over real (lossy) messages.
  // The plane must outlive the run; nullptr restores the oracle path.
  // Default: ignored (the protocol has no separately-modeled control plane).
  virtual void SetFaultPlane(sim::FaultPlane* fault_plane);

  // End-of-run protocol counter snapshot (the per-protocol message costs
  // behind Fig. 10), namespaced by the protocol ("rost.*", "clique.*").
  // Default: exports nothing.
  virtual void ExportCounters(obs::Registry& reg) const;

  // Locks/leases still marked held past their expiry at time `now` -- the
  // chaos harness's "no wedged locks" health gate. Protocols without a
  // locking discipline are trivially healthy (default 0).
  virtual long WedgedLeases(sim::Time now) const;
};

struct SessionParams {
  double root_bandwidth = 100.0;  // in units of the stream rate
  // How many members a (re)joining node discovers via gossip (Section 3.3
  // uses "say, 100").
  int candidate_sample_size = 100;
  double join_retry_delay_s = 1.0;
  // Time between a parent failure and the orphan's first join attempt
  // (failure detection + parent re-finding). The structural experiments use
  // 0 (instant rejoin, as in the paper's tree-level study); the
  // packet-level simulator sets the paper's 15 s so the data-plane hole is
  // physically present in the tree.
  double rejoin_delay_s = 0.0;
  // How long the broadcast has been running before t=0. Pre-populated ages
  // are drawn from the stationary renewal distribution *truncated* at this
  // horizon: a live-streaming session is hours old, not infinitely old, and
  // with the heavy-tailed lifetime distribution an untruncated stationary
  // state is dominated by members aged 10^5..10^6 s, which collapses any
  // bandwidth-time trade-off into pure time ordering. Six hours matches the
  // horizon of the paper's own experiments (Figs. 6/9 span 300+ minutes of
  // steady state). Set to 0 for the unbounded stationary state.
  double prepopulate_age_horizon_s = 21600.0;
  // When true, the session does not schedule orphan rejoins itself: an
  // external failure detector (overlay/heartbeat.h) observes the silence,
  // declares the parent dead, and calls RejoinOrphan(). Replaces the fixed
  // rejoin_delay_s oracle with real detection latency under message loss.
  bool external_failure_detection = false;
  // Re-entry (ScheduleReentry) retries a returning member's join at most
  // this many times before abandoning it: unlike a fresh join, a returning
  // viewer gives up and leaves for good when the overlay repeatedly refuses
  // it. Retries back off exponentially (base join_retry_delay_s) up to
  // reentry_backoff_cap times the base delay.
  int reentry_max_attempts = 6;
  int reentry_backoff_cap = 16;
};

// Every member's bandwidth and lifetime come from the paper's workload
// distributions (Section 5).
inline const rnd::BoundedPareto kMemberBandwidthDist =
    rnd::PaperBandwidthDist();
inline const rnd::LognormalDist kMemberLifetimeDist = rnd::PaperLifetimeDist();

// Aborts unless the parameter combination is self-consistent (a root that
// can feed at least one child, positive delays, sane retry/backoff
// bounds). Called by the Session constructor; exposed for tests.
void ValidateSessionParams(const SessionParams& params);

// Observation points for metrics collectors and the streaming layer.
// Multiple observers may register for each event; they fire in
// registration order.
class SessionHooks {
 public:
  // An alive member departed (fired before the tree is modified, so
  // observers can still inspect the failed node's subtree).
  void AddOnDeparture(std::function<void(NodeId departed)> fn);
  // `affected` suffers a streaming disruption because ancestor `failed`
  // departed abruptly.
  void AddOnDisruption(std::function<void(NodeId affected, NodeId failed)> fn);
  // `id` (re)attached to the tree under `parent`.
  void AddOnAttached(std::function<void(NodeId id, NodeId parent)> fn);
  // Departed member's final record (metrics accumulation point).
  void AddOnMemberDeparted(std::function<void(const Member&)> fn);

  void FireDeparture(NodeId departed) const;
  void FireDisruption(NodeId affected, NodeId failed) const;
  void FireAttached(NodeId id, NodeId parent) const;
  void FireMemberDeparted(const Member& member) const;

 private:
  std::vector<std::function<void(NodeId)>> on_departure_;
  std::vector<std::function<void(NodeId, NodeId)>> on_disruption_;
  std::vector<std::function<void(NodeId, NodeId)>> on_attached_;
  std::vector<std::function<void(const Member&)>> on_member_departed_;
};

class Session {
 public:
  Session(sim::Simulator& simulator, const net::Topology& topology,
          std::unique_ptr<Protocol> protocol, SessionParams params,
          std::uint64_t seed);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- workload driving ----------------------------------------------------

  // Instantly creates `count` members with stationary (age, residual
  // lifetime) pairs and joins them in random order. Call at time 0.
  void Prepopulate(int count);

  // Starts Poisson arrivals at `rate_per_s`; runs until StopArrivals().
  void StartArrivals(double rate_per_s);
  void StopArrivals();

  // Creates and joins one member with explicit properties (used to plant
  // the "typical member" of Figs 6 and 9 and for tests). Lifetime counts
  // from now.
  NodeId InjectMember(double bandwidth, double lifetime_s);

  // --- accessors -----------------------------------------------------------
  sim::Simulator& simulator() { return sim_; }
  const net::Topology& topology() const { return topology_; }
  Tree& tree() { return tree_; }
  const Tree& tree() const { return tree_; }
  rnd::Rng& rng() { return rng_; }
  const SessionParams& params() const { return params_; }
  Protocol& protocol() { return *protocol_; }
  SessionHooks& hooks() { return hooks_; }

  int alive_count() const { return static_cast<int>(alive_.size()); }
  // Alive members (excluding the root), unspecified order.
  const std::vector<NodeId>& alive_members() const { return alive_; }

  // Up to `k` alive members that are attached through to the root and are
  // outside the fragment of `exclude` (pass kNoNode for fresh joins),
  // discovered through the membership oracle (uniform sampling by default).
  std::vector<NodeId> SampleCandidates(int k, NodeId exclude);

  // Replaces the default (uniform) membership discovery; non-owning, the
  // oracle must outlive the session's run. Pass nullptr to restore the
  // default.
  void SetMembershipOracle(MembershipOracle* oracle) { oracle_ = oracle; }

  // Attaches a protocol trace bus (obs/trace.h); non-owning, must outlive
  // the run. The session emits membership events and every protocol
  // component (ROST, heartbeat, gossip, the packet stream) emits through
  // this same pointer, so one SetTracer call instruments the whole stack.
  // Null (the default) keeps every emission site at a single branch.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() { return tracer_; }

  // Discovery pool for joining: the union of a gossip sample (deep slots)
  // and the first `k` members in BFS order from the root (the "search from
  // the tree root downward" of the minimum-depth algorithm -- reachable in
  // practice because every member's gossip record carries its full ancestor
  // chain). Members of `exclude`'s fragment never appear.
  std::vector<NodeId> CollectJoinPool(int k, NodeId exclude);

  // --- delay oracle --------------------------------------------------------
  double DelayMs(NodeId a, NodeId b) const;
  // Sum of per-hop delays along the overlay path root -> id (ms).
  double OverlayDelayMs(NodeId id) const;
  // Direct unicast delay root -> id (ms).
  double UnicastDelayMs(NodeId id) const;
  // OverlayDelayMs / UnicastDelayMs (the paper's stretch).
  double Stretch(NodeId id) const;

  // --- operations for protocols -------------------------------------------

  // Re-enqueues an evicted member for joining and charges it one
  // reconnection (protocol-overhead accounting). The caller must already
  // have detached it (it is a fragment root).
  void ForceRejoin(NodeId id);

  // Charges one streaming disruption to `member` and every member of its
  // current subtree. Eviction-based protocols call this for the evicted
  // node: unlike ROST's locked parent-child swap (whose participants stay
  // fed through the grandparent during the handshake), an evicted member
  // loses its upstream feed until its rejoin completes, and the children it
  // keeps lose theirs with it.
  void ChargeDisruption(NodeId member);

  // Total members that ever existed (including departed; excludes root).
  int total_members_created() const { return total_created_; }
  // Arrivals dropped because every stub host was occupied.
  int dropped_arrivals() const { return dropped_arrivals_; }
  // Join attempts that found no available parent (retried later).
  long failed_join_attempts() const { return failed_join_attempts_; }

  // Forces `id` to depart now (tests / adversarial scenarios).
  void DepartNow(NodeId id);

  // Re-enters the join path for an orphaned fragment root whose parent
  // failure an external detector has just observed (requires
  // params().external_failure_detection; no-op if the member died or
  // already reattached in the meantime).
  void RejoinOrphan(NodeId id);

  // --- reconnect / re-entry ------------------------------------------------
  // Models a departed-then-returning viewer: after `downtime_s`, a successor
  // member re-enters with `departed`'s bandwidth (the same household, a new
  // session) and lifetime `lifetime_s`, joining through the BOUNDED-retry
  // re-entry path -- at most params().reentry_max_attempts tries with
  // exponential backoff, then the member abandons and departs. The trace bus
  // sees kReconnectStart at re-entry, then kReconnectAttached or
  // kReconnectAbandoned (detail = attempts used). `departed` may still be
  // alive at call time (e.g. scheduling a return around a planned kill); the
  // successor is created only when the downtime elapses.
  void ScheduleReentry(NodeId departed, double downtime_s, double lifetime_s);

  // Predecessor of a re-entered member; kNoNode for ordinary members.
  NodeId ReentryPredecessor(NodeId id) const;

  long reentries_scheduled() const { return reentries_scheduled_; }
  long reentries_attached() const { return reentries_attached_; }
  long reentries_abandoned() const { return reentries_abandoned_; }
  // Re-entries still in downtime or mid-retry. Zero after a run settles:
  // every scheduled re-entry must resolve to attached or abandoned.
  long reentries_pending() const {
    return reentries_scheduled_ - reentries_attached_ - reentries_abandoned_;
  }

 private:
  void ScheduleNextArrival();
  void Arrive();
  NodeId CreateMemberRecord(double bandwidth, double lifetime_s,
                            sim::Time join_time);
  void ScheduleDeparture(NodeId id);
  void HandleDeparture(NodeId id);
  void TryJoin(NodeId id);
  // Creates the successor member once a re-entry's downtime has elapsed and
  // starts its bounded-retry join.
  void BeginReentry(NodeId predecessor, double lifetime_s);
  // One bounded-retry join attempt of a re-entered member; terminal states
  // are attached (kReconnectAttached) and abandoned (kReconnectAbandoned).
  void ReentryAttempt(NodeId id, NodeId predecessor);
  // Emits kJoin (first attach) or kRejoin on the trace bus and marks the
  // member as ever-attached. Call right after a successful attach.
  void TraceAttached(NodeId id);
  net::HostId AllocateHost();
  void ReleaseHost(net::HostId host);
  void RemoveFromAlive(NodeId id);

  sim::Simulator& sim_;
  const net::Topology& topology_;
  Tree tree_;
  std::unique_ptr<Protocol> protocol_;
  SessionParams params_;
  rnd::Rng rng_;
  SessionHooks hooks_;
  MembershipOracle* oracle_ = nullptr;  // nullptr: uniform sampling
  obs::Tracer* tracer_ = nullptr;       // nullptr: tracing off

  std::vector<NodeId> alive_;           // alive members, root excluded
  std::vector<int> alive_index_;        // NodeId -> index in alive_ (-1 if not)
  std::vector<net::HostId> free_hosts_; // stack of unoccupied stub hosts
  std::vector<sim::EventId> departure_event_;  // NodeId -> departure timer
  std::vector<int> join_attempts_;  // consecutive failed attempts per member
  // NodeId -> has this member ever been attached (distinguishes the kJoin
  // trace event from kRejoin; Member.reconnections only counts evictions).
  std::vector<char> ever_attached_;
  // NodeId -> predecessor for re-entered members (kNoNode otherwise).
  std::vector<NodeId> reentry_predecessor_;
  // Epoch-stamped dedup scratch for CollectJoinPool: a slot counts as "seen"
  // when its stamp equals the current epoch, so marking the whole set clean
  // is a counter bump, not an O(members) clear per join.
  std::vector<int> seen_stamp_;
  int seen_epoch_ = 0;

  bool arrivals_on_ = false;
  double arrival_rate_ = 0.0;
  int total_created_ = 0;
  int dropped_arrivals_ = 0;
  long failed_join_attempts_ = 0;
  long reentries_scheduled_ = 0;
  long reentries_attached_ = 0;
  long reentries_abandoned_ = 0;
};

}  // namespace omcast::overlay
