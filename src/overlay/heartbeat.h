// Heartbeat-based failure detection.
//
// The structural experiments use an oracle: an orphan learns of its
// parent's death exactly rejoin_delay_s after it happens. This service
// replaces the oracle with the mechanism a deployment would run: every
// member sends a heartbeat to each of its current children every period;
// a child that goes kMissThreshold + 1 periods without hearing from its
// current parent declares the parent dead and re-enters the join path.
//
// Heartbeats travel through a sim::FaultPlane when one is installed, so
// message loss produces the two real failure modes the oracle hides:
//
//   * detection latency is a random variable (lost heartbeats stretch it
//     beyond the no-loss bound of (kMissThreshold + 1) * period_s);
//   * false suspicion: enough consecutive losses convince a child its
//     *live* parent died; it detaches and rejoins (counted, and charged as
//     a reconnection, i.e. protocol overhead -- the stream did not stop).
//
// Use with SessionParams::external_failure_detection = true, which makes
// the session defer orphan rejoins to this detector (Session::RejoinOrphan).
//
// Both paths share the schedule. A member draws a random phase when it
// first attaches (the source at construction) and beats at first-attach +
// phase, then every period_s, by repeated addition. A free rider (zero
// capacity) can never be a parent -- Tree::Attach checks spare capacity --
// so it never beats; it still draws its phase, which keeps the service's
// RNG stream in step with a member that does. The decision is made once:
// Tree::SetCapacity, which only tests call, does not revisit it. A beat
// sent at s to child c lands at s + hop and counts only if c's parent is
// still the sender then; it moves c's deadline to landing +
// SuspicionTimeout(), as an attach does. A child suspects when its
// deadline passes.
//
// Whether a fault plane is installed picks how that runs:
//
//   * with a plane, every beat is a message: a periodic send event per
//     beating member, one delivery per child and beat (the plane draws
//     loss, duplication and jitter for each), and one monitor event per
//     child that re-arms at the deadline until a fire finds it passed;
//   * without one, every beat arrives, draws nothing and emits nothing, so
//     the service computes the deadlines in closed form and schedules no
//     send or delivery. It follows the tree through its edge observer:
//     each child keeps a window on its current parent's send schedule
//     (the same repeated additions, one lazily advanced cursor per sender),
//     and beats still in flight when an edge is cut, which count if the
//     child is back under that sender when they land. Each attach keeps
//     its one monitor at attach + SuspicionTimeout(); it suspects if no
//     beat landed since, and otherwise retires (re-arming only if the
//     silence is already certain). A further monitor is scheduled only
//     where the edges guarantee silence -- the parent left, a detach was
//     not followed by a re-attach, or a new parent's first beat lands at
//     or after the deadline -- and re-planned on each later edge change.
//     heartbeats_sent() counts cut edges' beats as they are cut and open
//     edges' beats on query.
//
// Same-instant suspicions at an attach deadline fire in attach order on
// both paths, through the attach's monitor: every member prepopulated at
// t = 0 whose parent leaves before its first beat lands suspects at t =
// SuspicionTimeout(). Every other deadline is a continuous random phase
// plus a link delay between distinct hosts (hosts are unique per alive
// member), so two such deadlines meet with probability zero;
// tests/test_heartbeat.cc checks that none do on its seeds.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "overlay/session.h"
#include "rand/rng.h"
#include "sim/fault_plane.h"
#include "util/stats.h"

namespace omcast::overlay {

// A child suspects its parent after this many *consecutive* heartbeats fail
// to arrive (deadline: (kMissThreshold + 1) * period_s of silence).
inline constexpr int kMissThreshold = 3;
static_assert(kMissThreshold >= 1,
              "suspicion needs at least one missed heartbeat");

struct HeartbeatParams {
  double period_s = 1.0;  // heartbeat send period, per parent
};

class HeartbeatService : private EdgeObserver {
 public:
  // Installs hooks on `session` (and, without a fault plane, the tree's
  // edge observer); construct before driving the session. `fault_plane`
  // may be nullptr (reliable delivery); it must outlive the run when
  // provided.
  HeartbeatService(Session& session, HeartbeatParams params,
                   std::uint64_t seed, sim::FaultPlane* fault_plane = nullptr);
  ~HeartbeatService();
  HeartbeatService(const HeartbeatService&) = delete;
  HeartbeatService& operator=(const HeartbeatService&) = delete;

  // Silence length that triggers suspicion.
  double SuspicionTimeout() const {
    return params_.period_s * (kMissThreshold + 1);
  }

  // When `child` suspects its parent unless another beat lands first: its
  // last attach or accepted beat (up to now) plus SuspicionTimeout().
  // Requires that `child` attached at least once. Test-facing.
  sim::Time SuspicionDeadline(NodeId child);

  // --- introspection (tests / chaos metrics) -------------------------------
  // Beats sent up to now, one per child per send.
  long heartbeats_sent() const;
  long detections() const { return detections_; }
  long false_suspicions() const { return false_suspicions_; }
  // Seconds from a parent's actual death to the child declaring it.
  const util::RunningStat& detection_latency() const { return latency_; }

 private:
  // Closed form: a beating member's next send and how many it sent before
  // (none ever, for a member that does not beat).
  struct Sender {
    sim::Time next_send = std::numeric_limits<sim::Time>::infinity();
    long next_index = 0;
  };
  // Closed form, per child: the window on its current parent's schedule.
  struct Window {
    long first_index = 0;  // parent's first send inside the window
    // Earliest window send not landed yet; infinite when loose or when the
    // parent does not beat.
    sim::Time unlanded = std::numeric_limits<sim::Time>::infinity();
    double hop_s = 0.0;      // parent -> child delay
    std::int32_t flights = -1;  // head of its in-flight list in flights_
    char monitored = 0;  // deadline enforced: attached, or a beat landed,
                         // since the last suspicion
    char kept = 0;       // monitor_ is the attach-time monitor
  };
  // Closed form: beats of a cut edge still in flight, `count` sends from
  // `first_send` on, one period apart.
  struct Flight {
    NodeId from = kNoNode;
    std::int32_t next = -1;
    sim::Time first_send = 0.0;
    double hop_s = 0.0;
    long count = 0;
  };

  // Grows the per-node arrays to cover `id`.
  void EnsureState(NodeId id);
  void StartSender(NodeId id);
  void SendBeats(NodeId id);
  void OnHeartbeat(NodeId child, NodeId from);
  // Attach-time arming: cancels the pending monitor and schedules a fresh
  // one at the new deadline.
  void ArmMonitor(NodeId child);
  void ScheduleMonitor(NodeId child);
  void OnMonitor(NodeId child);
  void Suspect(NodeId child);
  void StopAll(NodeId id);

  // --- closed form (no fault plane) ----------------------------------------
  void OnEdgeAdded(NodeId parent, NodeId child) override;
  void OnEdgeRemoved(NodeId parent, NodeId child) override;
  // Moves `id`'s send cursor past every send at or before `t`.
  void AdvanceSender(NodeId id, sim::Time t) const;
  // Folds every beat landing on `child` up to `t` into its deadline; those
  // from `parent`, its parent since its last edge change, count.
  void Materialize(NodeId child, NodeId parent, sim::Time t);
  void Accept(NodeId child, sim::Time landed);
  // When the current edges leave `child` silent for good: its deadline as
  // of the first beat that would land at or after it, or kNever.
  sim::Time SilentFrom(NodeId child) const;
  // Re-plans `child`'s monitor after an edge change (the attach-time
  // monitor, while pending, re-plans itself when it fires).
  void Replan(NodeId child);
  void AppendFlight(NodeId child, const Flight& flight);
  // Returns `slot` to the pool; yields the slot it linked to.
  std::int32_t ReleaseFlight(std::int32_t slot);
  void FreeFlights(NodeId child);

  Session& session_;
  HeartbeatParams params_;
  rnd::Rng rng_;
  sim::FaultPlane* fault_plane_;  // nullptr: reliable delivery
  // Per-node bookkeeping of both paths, indexed by NodeId.
  // Set once the member's phase was drawn: a free rider never beats, so
  // nothing else tells that it already started.
  std::vector<char> started_;
  std::vector<sim::EventId> monitor_;  // child-side suspicion monitor
  std::vector<sim::Time> deadline_;    // silence deadline the monitor enforces
  // When the member's parent actually departed (for the latency metric);
  // negative while the parent is alive.
  std::vector<sim::Time> parent_died_at_;
  // Fault-plane path: the periodic send timer.
  std::vector<sim::EventId> sender_;
  // Closed form. Cursors advance lazily, also from const queries.
  mutable std::vector<Sender> senders_;
  std::vector<Window> windows_;
  std::vector<Flight> flights_;      // pool, linked per child
  std::int32_t free_flight_ = -1;    // head of the pool's free list
  NodeId departing_ = kNoNode;       // member mid-departure
  // Every send to a child, on the closed form up to the last cut edge.
  long sent_ = 0;
  long detections_ = 0;
  long false_suspicions_ = 0;
  util::RunningStat latency_;
};

}  // namespace omcast::overlay
