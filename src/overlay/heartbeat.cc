#include "overlay/heartbeat.h"

#include <algorithm>
#include <limits>

#include "obs/trace.h"
#include "util/check.h"

namespace omcast::overlay {
namespace {

// A send that never comes, or a silence that never falls.
constexpr sim::Time kNever = std::numeric_limits<sim::Time>::infinity();

}  // namespace

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
  if (fault_plane_ == nullptr) session_.tree().SetEdgeObserver(this);
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
      // Beats that landed before the death are older than the stamp.
      if (fault_plane_ == nullptr) Materialize(c, departed, now);
      parent_died_at_[static_cast<std::size_t>(c)] = now;
    }
    departing_ = departed;
  });
  session_.hooks().AddOnMemberDeparted(
      [this](const Member& m) { StopAll(m.id); });
  // The source never joins, so no OnAttached fires for it; it heartbeats
  // its children from the start.
  StartSender(kRootId);
}

HeartbeatService::~HeartbeatService() {
  if (fault_plane_ == nullptr) session_.tree().SetEdgeObserver(nullptr);
}

void HeartbeatService::EnsureState(NodeId id) {
  const auto need = static_cast<std::size_t>(id) + 1;
  if (started_.size() >= need) return;
  started_.resize(need, 0);
  monitor_.resize(need, sim::kInvalidEventId);
  deadline_.resize(need, 0.0);
  parent_died_at_.resize(need, -1.0);
  if (fault_plane_ != nullptr) {
    sender_.resize(need, sim::kInvalidEventId);
  } else {
    senders_.resize(need);
    windows_.resize(need);
  }
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
  if (fault_plane_ != nullptr) {
    sender_[i] = session_.simulator().ScheduleAfter(
        phase, [this, id] { SendBeats(id); }, "heartbeat.send");
    return;
  }
  // The sum ScheduleAfter would form. Children that came under `id` before
  // this first attach (at the same instant) hear its first beat; their
  // windows already start at send index 0.
  const sim::Time first = session_.simulator().now() + phase;
  senders_[i].next_send = first;
  for (NodeId c : session_.tree().ChildrenOf(id)) {
    windows_[static_cast<std::size_t>(c)].unlanded = first;
    Replan(c);
  }
}

void HeartbeatService::SendBeats(NodeId id) {
  sender_[static_cast<std::size_t>(id)] = sim::kInvalidEventId;
  const Tree& tree = session_.tree();
  if (!tree.Alive(id)) return;
  for (NodeId c : tree.ChildrenOf(id)) {
    ++sent_;
    const double hop = session_.DelayMs(id, c) / 1000.0;
    fault_plane_->Deliver(id, c, hop, [this, c, id] { OnHeartbeat(c, id); });
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
  const sim::Time now = session_.simulator().now();
  if (fault_plane_ == nullptr) {
    // Beats that landed up to this attach no longer set the deadline.
    Materialize(child, session_.tree().Parent(child), now);
    windows_[i].monitored = 1;
    windows_[i].kept = 1;
  }
  if (monitor_[i] != sim::kInvalidEventId)
    session_.simulator().Cancel(monitor_[i]);
  deadline_[i] = now + SuspicionTimeout();
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
  const sim::Time now = session_.simulator().now();
  if (fault_plane_ == nullptr) {
    windows_[i].kept = 0;
    Materialize(child, session_.tree().Parent(child), now);
    OMCAST_DCHECK(windows_[i].monitored != 0,
                  "a monitor fired for a child with no deadline");
  }
  // A beat landed since this monitor was scheduled: wait out the silence
  // from that beat instead -- on the closed form, only if no later beat
  // breaks it.
  if (now < deadline_[i]) {
    if (fault_plane_ != nullptr) {
      ScheduleMonitor(child);
    } else {
      Replan(child);
    }
    return;
  }
  Suspect(child);
}

void HeartbeatService::Suspect(NodeId child) {
  const Tree& tree = session_.tree();
  if (!tree.Alive(child)) return;
  // Nothing is enforced again until the next attach or landed beat.
  if (fault_plane_ == nullptr)
    windows_[static_cast<std::size_t>(child)].monitored = 0;
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
  if (fault_plane_ != nullptr && sender_[i] != sim::kInvalidEventId) {
    session_.simulator().Cancel(sender_[i]);
    sender_[i] = sim::kInvalidEventId;
  }
  if (monitor_[i] != sim::kInvalidEventId) {
    session_.simulator().Cancel(monitor_[i]);
    monitor_[i] = sim::kInvalidEventId;
  }
  parent_died_at_[i] = -1.0;
  if (fault_plane_ == nullptr) {
    windows_[i].monitored = 0;
    windows_[i].kept = 0;
    FreeFlights(id);
  }
  departing_ = kNoNode;
}

sim::Time HeartbeatService::SuspicionDeadline(NodeId child) {
  if (fault_plane_ == nullptr)
    Materialize(child, session_.tree().Parent(child),
                session_.simulator().now());
  return deadline_[static_cast<std::size_t>(child)];
}

long HeartbeatService::heartbeats_sent() const {
  if (fault_plane_ != nullptr) return sent_;
  // Cut edges are in sent_; add every open edge's sends up to now.
  const Tree& tree = session_.tree();
  const sim::Time now = session_.simulator().now();
  long sent = sent_;
  for (NodeId c : session_.alive_members()) {
    const NodeId parent = tree.Parent(c);
    if (parent == kNoNode) continue;
    AdvanceSender(parent, now);
    sent += senders_[static_cast<std::size_t>(parent)].next_index -
            windows_[static_cast<std::size_t>(c)].first_index;
  }
  return sent;
}

// --- closed form -------------------------------------------------------------

void HeartbeatService::OnEdgeAdded(NodeId parent, NodeId child) {
  EnsureState(std::max(parent, child));
  const sim::Time now = session_.simulator().now();
  // Loose since its last cut: whatever landed meanwhile was stale.
  Materialize(child, kNoNode, now);
  AdvanceSender(parent, now);
  const Sender& s = senders_[static_cast<std::size_t>(parent)];
  Window& w = windows_[static_cast<std::size_t>(child)];
  w.first_index = s.next_index;
  w.unlanded = s.next_send;
  w.hop_s = session_.DelayMs(parent, child) / 1000.0;
  Replan(child);
}

void HeartbeatService::OnEdgeRemoved(NodeId parent, NodeId child) {
  EnsureState(std::max(parent, child));
  const sim::Time now = session_.simulator().now();
  Materialize(child, parent, now);
  AdvanceSender(parent, now);
  Window& w = windows_[static_cast<std::size_t>(child)];
  sent_ += senders_[static_cast<std::size_t>(parent)].next_index -
           w.first_index;
  // Beats sent but not landed yet count if the child is back under
  // `parent` when they land; a departing member's never are.
  long count = 0;
  if (parent != departing_ && child != departing_)
    for (sim::Time s = w.unlanded; s <= now; s += params_.period_s) ++count;
  if (count > 0)
    AppendFlight(child, Flight{parent, -1, w.unlanded, w.hop_s, count});
  w.unlanded = kNever;
  if (child != departing_) Replan(child);
}

void HeartbeatService::AdvanceSender(NodeId id, sim::Time t) const {
  Sender& s = senders_[static_cast<std::size_t>(id)];
  for (; s.next_send <= t; s.next_send += params_.period_s) ++s.next_index;
}

void HeartbeatService::Materialize(NodeId child, NodeId parent, sim::Time t) {
  const double period = params_.period_s;
  Window& w = windows_[static_cast<std::size_t>(child)];
  for (std::int32_t* link = &w.flights; *link >= 0;) {
    const std::int32_t slot = *link;
    Flight& f = flights_[static_cast<std::size_t>(slot)];
    for (; f.count > 0 && f.first_send + f.hop_s <= t;
         --f.count, f.first_send += period)
      if (f.from == parent) Accept(child, f.first_send + f.hop_s);
    if (f.count > 0) {
      link = &f.next;
    } else {
      *link = ReleaseFlight(slot);
    }
  }
  if (parent == kNoNode) return;
  for (; w.unlanded + w.hop_s <= t; w.unlanded += period)
    Accept(child, w.unlanded + w.hop_s);
}

void HeartbeatService::Accept(NodeId child, sim::Time landed) {
  const auto i = static_cast<std::size_t>(child);
  windows_[i].monitored = 1;
  parent_died_at_[i] = -1.0;
  deadline_[i] = landed + SuspicionTimeout();
}

sim::Time HeartbeatService::SilentFrom(NodeId child) const {
  const auto i = static_cast<std::size_t>(child);
  const Window& w = windows_[i];
  bool monitored = w.monitored != 0;
  sim::Time deadline = deadline_[i];
  const NodeId parent = session_.tree().Parent(child);
  if (parent != kNoNode) {
    // The parent's flights were sent before the window opened, so they land
    // first; the window's own beats follow, a period apart for good.
    for (std::int32_t slot = w.flights; slot >= 0;
         slot = flights_[static_cast<std::size_t>(slot)].next) {
      const Flight& f = flights_[static_cast<std::size_t>(slot)];
      if (f.from != parent) continue;
      sim::Time send = f.first_send;
      for (long k = 0; k < f.count; ++k, send += params_.period_s) {
        const sim::Time landing = send + f.hop_s;
        if (monitored && !(landing < deadline)) return deadline;
        monitored = true;
        deadline = landing + SuspicionTimeout();
      }
    }
    if (w.unlanded < kNever) {
      const sim::Time landing = w.unlanded + w.hop_s;
      return monitored && !(landing < deadline) ? deadline : kNever;
    }
  }
  return monitored ? deadline : kNever;
}

void HeartbeatService::Replan(NodeId child) {
  const auto i = static_cast<std::size_t>(child);
  if (windows_[i].kept != 0) return;
  sim::Simulator& sim = session_.simulator();
  if (monitor_[i] != sim::kInvalidEventId) {
    sim.Cancel(monitor_[i]);
    monitor_[i] = sim::kInvalidEventId;
  }
  const sim::Time silent = SilentFrom(child);
  if (silent < kNever)
    monitor_[i] = sim.ScheduleAt(
        silent, [this, child] { OnMonitor(child); }, "heartbeat.monitor");
}

void HeartbeatService::AppendFlight(NodeId child, const Flight& flight) {
  std::int32_t slot = free_flight_;
  if (slot >= 0) {
    free_flight_ = flights_[static_cast<std::size_t>(slot)].next;
    flights_[static_cast<std::size_t>(slot)] = flight;
  } else {
    slot = static_cast<std::int32_t>(flights_.size());
    flights_.push_back(flight);
  }
  // At the tail, so a child's flights stay in send order.
  std::int32_t* link = &windows_[static_cast<std::size_t>(child)].flights;
  while (*link >= 0) link = &flights_[static_cast<std::size_t>(*link)].next;
  *link = slot;
}

std::int32_t HeartbeatService::ReleaseFlight(std::int32_t slot) {
  Flight& f = flights_[static_cast<std::size_t>(slot)];
  const std::int32_t next = f.next;
  f.next = free_flight_;
  free_flight_ = slot;
  return next;
}

void HeartbeatService::FreeFlights(NodeId id) {
  std::int32_t& head = windows_[static_cast<std::size_t>(id)].flights;
  while (head >= 0) head = ReleaseFlight(head);
}

}  // namespace omcast::overlay
