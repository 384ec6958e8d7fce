#include "overlay/heartbeat.h"

#include "obs/trace.h"
#include "util/check.h"

namespace omcast::overlay {

HeartbeatService::HeartbeatService(Session& session, HeartbeatParams params,
                                   std::uint64_t seed,
                                   sim::FaultPlane* fault_plane)
    : session_(session),
      params_(params),
      rng_(seed),
      fault_plane_(fault_plane) {
  util::Check(params_.period_s > 0.0, "heartbeat period must be positive");
  util::Check(params_.miss_threshold >= 1,
              "suspicion needs at least one missed heartbeat");
  session_.hooks().AddOnAttached([this](NodeId id, NodeId) {
    StartSender(id);
    parent_died_at_[static_cast<std::size_t>(id)] = -1.0;
    ArmMonitor(id);
  });
  session_.hooks().AddOnDeparture([this](NodeId departed) {
    // Stamp the actual death time on each soon-to-be orphan for the
    // detection-latency metric (fires before the tree is modified).
    const sim::Time now = session_.simulator().now();
    for (NodeId c : session_.tree().ChildrenOf(departed)) {
      EnsureState(c);
      parent_died_at_[static_cast<std::size_t>(c)] = now;
    }
  });
  session_.hooks().AddOnMemberDeparted(
      [this](const Member& m) { StopAll(m.id); });
  // The source never joins, so no OnAttached fires for it; it heartbeats
  // its children from the start.
  StartSender(kRootId);
}

void HeartbeatService::EnsureState(NodeId id) {
  const auto need = static_cast<std::size_t>(id) + 1;
  if (sender_.size() >= need) return;
  sender_.resize(need, sim::kInvalidEventId);
  started_.resize(need, 0);
  monitor_.resize(need, sim::kInvalidEventId);
  deadline_.resize(need, 0.0);
  parent_died_at_.resize(need, -1.0);
}

void HeartbeatService::StartSender(NodeId id) {
  EnsureState(id);
  const auto i = static_cast<std::size_t>(id);
  if (started_[i] != 0) return;  // already beating, or a free rider
  started_[i] = 1;
  // Random phase: deployments do not fire their timers in lockstep.
  const double phase = rng_.Uniform(0.0, params_.period_s);
  // A free rider never has a child to beat. The draw above still happens,
  // so no other member's phase depends on whether this one beats.
  if (session_.tree().Capacity(id) == 0) return;
  sender_[i] = session_.simulator().ScheduleAfter(
      phase, [this, id] { SendBeats(id); }, "heartbeat.send");
}

void HeartbeatService::SendBeats(NodeId id) {
  sender_[static_cast<std::size_t>(id)] = sim::kInvalidEventId;
  const Tree& tree = session_.tree();
  if (!tree.Alive(id)) return;
  for (NodeId c : tree.ChildrenOf(id)) {
    ++sent_;
    const double hop = session_.DelayMs(id, c) / 1000.0;
    if (fault_plane_ != nullptr) {
      fault_plane_->Deliver(id, c, hop,
                            [this, c, id] { OnHeartbeat(c, id); });
    } else {
      session_.simulator().ScheduleAfter(
          hop, [this, c, id] { OnHeartbeat(c, id); }, "heartbeat.deliver");
    }
  }
  sender_[static_cast<std::size_t>(id)] = session_.simulator().ScheduleAfter(
      params_.period_s, [this, id] { SendBeats(id); }, "heartbeat.send");
}

void HeartbeatService::OnHeartbeat(NodeId child, NodeId from) {
  const Tree& tree = session_.tree();
  if (!tree.Alive(child)) return;
  // A beat from anyone but the *current* parent is stale news (the sender
  // was demoted, or the child was re-parented while the beat was in
  // flight); it must not keep a dead parent's ghost alive.
  if (tree.Parent(child) != from) return;
  EnsureState(child);
  const auto i = static_cast<std::size_t>(child);
  parent_died_at_[i] = -1.0;
  // The pending monitor picks the new deadline up when it fires.
  deadline_[i] = session_.simulator().now() + SuspicionTimeout();
  if (monitor_[i] == sim::kInvalidEventId) ScheduleMonitor(child);
}

void HeartbeatService::ArmMonitor(NodeId child) {
  if (child == kRootId) return;  // the source has no parent to monitor
  EnsureState(child);
  const auto i = static_cast<std::size_t>(child);
  if (monitor_[i] != sim::kInvalidEventId)
    session_.simulator().Cancel(monitor_[i]);
  deadline_[i] = session_.simulator().now() + SuspicionTimeout();
  ScheduleMonitor(child);
}

void HeartbeatService::ScheduleMonitor(NodeId child) {
  const auto i = static_cast<std::size_t>(child);
  monitor_[i] = session_.simulator().ScheduleAt(
      deadline_[i], [this, child] { OnMonitor(child); }, "heartbeat.monitor");
}

void HeartbeatService::OnMonitor(NodeId child) {
  const auto i = static_cast<std::size_t>(child);
  monitor_[i] = sim::kInvalidEventId;
  // A beat landed since this monitor was scheduled: wait out the silence
  // from that beat instead.
  if (session_.simulator().now() < deadline_[i]) {
    ScheduleMonitor(child);
    return;
  }
  Suspect(child);
}

void HeartbeatService::Suspect(NodeId child) {
  const Tree& tree = session_.tree();
  if (!tree.Alive(child)) return;
  const NodeId parent = tree.Parent(child);
  obs::Tracer* tracer = session_.tracer();
  if (tracer != nullptr) {
    const sim::Time now = session_.simulator().now();
    tracer->Emit(now, obs::EventKind::kHeartbeatMiss, child, parent);
    tracer->Emit(now,
                 parent == kNoNode ? obs::EventKind::kSuspicion
                                   : obs::EventKind::kFalseSuspicion,
                 child, parent);
  }

  if (parent == kNoNode) {
    // The parent really did die (the session orphaned this member when it
    // happened); the silence is how the member finds out.
    ++detections_;
    sim::Time& died_at = parent_died_at_[static_cast<std::size_t>(child)];
    if (died_at >= 0.0)
      latency_.Add(session_.simulator().now() - died_at);
    died_at = -1.0;
    session_.RejoinOrphan(child);
    return;
  }

  // The parent is attached and alive -- every heartbeat of the window was
  // lost. The child cannot tell this apart from a real death: it detaches
  // and rejoins (a disruption-free reconnection, charged as overhead).
  ++false_suspicions_;
  session_.tree().Detach(child);
  session_.ForceRejoin(child);
}

void HeartbeatService::StopAll(NodeId id) {
  EnsureState(id);
  const auto i = static_cast<std::size_t>(id);
  if (sender_[i] != sim::kInvalidEventId) {
    session_.simulator().Cancel(sender_[i]);
    sender_[i] = sim::kInvalidEventId;
  }
  if (monitor_[i] != sim::kInvalidEventId) {
    session_.simulator().Cancel(monitor_[i]);
    monitor_[i] = sim::kInvalidEventId;
  }
  parent_died_at_[i] = -1.0;
}

}  // namespace omcast::overlay
