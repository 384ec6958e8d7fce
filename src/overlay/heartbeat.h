// Heartbeat-based failure detection.
//
// The structural experiments use an oracle: an orphan learns of its
// parent's death exactly rejoin_delay_s after it happens. This service
// replaces the oracle with the mechanism a deployment would run: every
// member sends a heartbeat to each of its current children every period;
// a child that goes miss_threshold + 1 periods without hearing from its
// current parent declares the parent dead and re-enters the join path.
//
// Heartbeats travel through a sim::FaultPlane when one is installed, so
// message loss produces the two real failure modes the oracle hides:
//
//   * detection latency is a random variable (lost heartbeats stretch it
//     beyond the no-loss bound of (miss_threshold + 1) * period_s);
//   * false suspicion: enough consecutive losses convince a child its
//     *live* parent died; it detaches and rejoins (counted, and charged as
//     a reconnection, i.e. protocol overhead -- the stream did not stop).
//
// Use with SessionParams::external_failure_detection = true, which makes
// the session defer orphan rejoins to this detector (Session::RejoinOrphan).
//
// Timers do only work that changes an outcome:
//
//   * a member with zero capacity (a free rider) can never be a parent --
//     Tree::Attach checks spare capacity -- so it never arms a send timer.
//     It still draws its phase at first attach, which keeps the service's
//     RNG stream in step with a member that does beat. The decision is made
//     once, when the member first attaches (at construction for the
//     source): Tree::SetCapacity, which only tests call, does not revisit
//     it;
//   * a delivered beat only moves the child's suspicion deadline. Each
//     child keeps one monitor event; a monitor that fires before the
//     deadline re-arms at the deadline, and only a fire at the deadline
//     suspects, exactly SuspicionTimeout() after the last attach or
//     delivered beat. Attaching cancels and re-schedules the monitor.
#pragma once

#include <vector>

#include "overlay/session.h"
#include "rand/rng.h"
#include "sim/fault_plane.h"
#include "util/stats.h"

namespace omcast::overlay {

struct HeartbeatParams {
  double period_s = 1.0;  // heartbeat send period, per parent
  // A child suspects its parent after this many *consecutive* heartbeats
  // fail to arrive (deadline: (miss_threshold + 1) * period_s of silence).
  int miss_threshold = 3;
};

class HeartbeatService {
 public:
  // Installs hooks on `session`; construct before driving the session.
  // `fault_plane` may be nullptr (reliable delivery); it must outlive the
  // run when provided.
  HeartbeatService(Session& session, HeartbeatParams params,
                   std::uint64_t seed, sim::FaultPlane* fault_plane = nullptr);
  HeartbeatService(const HeartbeatService&) = delete;
  HeartbeatService& operator=(const HeartbeatService&) = delete;

  // Silence length that triggers suspicion.
  double SuspicionTimeout() const {
    return params_.period_s * (params_.miss_threshold + 1);
  }

  // When `child` suspects its parent unless another beat lands first: its
  // last attach or delivered beat plus SuspicionTimeout(). Requires that
  // `child` attached at least once. Test-facing.
  sim::Time SuspicionDeadline(NodeId child) const {
    return deadline_[static_cast<std::size_t>(child)];
  }

  // --- introspection (tests / chaos metrics) -------------------------------
  long heartbeats_sent() const { return sent_; }
  long detections() const { return detections_; }
  long false_suspicions() const { return false_suspicions_; }
  // Seconds from a parent's actual death to the child declaring it.
  const util::RunningStat& detection_latency() const { return latency_; }

 private:
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

  Session& session_;
  HeartbeatParams params_;
  rnd::Rng rng_;
  sim::FaultPlane* fault_plane_;  // nullptr: reliable delivery
  // Per-node bookkeeping, struct-of-arrays indexed by NodeId (every
  // delivered heartbeat -- the hottest callback in the simulation -- writes
  // one deadline, so the fields live in separate flat vectors rather than
  // one padded record).
  std::vector<sim::EventId> sender_;   // periodic send timer
  // Set once the member's phase was drawn: a free rider has no send timer
  // to tell that it already started.
  std::vector<char> started_;
  std::vector<sim::EventId> monitor_;  // child-side suspicion monitor
  std::vector<sim::Time> deadline_;    // silence deadline the monitor enforces
  // When the member's parent actually departed (for the latency metric);
  // negative while the parent is alive.
  std::vector<sim::Time> parent_died_at_;
  long sent_ = 0;
  long detections_ = 0;
  long false_suspicions_ = 0;
  util::RunningStat latency_;
};

}  // namespace omcast::overlay
