#include "stream/packet_sim.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "util/check.h"

namespace omcast::stream {

using overlay::kRootId;
using overlay::Member;
using overlay::NodeId;
using overlay::Session;

static_assert(kRegimeWindowS > 0.0, "regime judgment window must be positive");
static_assert(kDegradedExit >= 0.0 && kDegradedExit < kDegradedEnter,
              "degraded hysteresis needs 0 <= exit < enter");
static_assert(kDegradedEnter <= kStalledEnter && kStalledEnter <= 1.0,
              "stalled threshold must dominate the degraded one");
static_assert(kStalledExit >= kDegradedExit && kStalledExit < kStalledEnter,
              "stalled hysteresis needs degraded exit <= exit < enter");

void ValidatePacketSimParams(const PacketSimParams& params) {
  util::Check(params.packet_rate > 0.0, "packet rate must be positive");
  util::Check(params.buffer_s > 0.0, "playback buffer must be positive");
  util::Check(params.detect_s >= 0.0, "detection time cannot be negative");
  util::Check(params.recovery_group_size >= 1,
              "recovery group needs at least one member");
  util::Check(params.residual_lo_pkts >= 0.0,
              "residual bandwidth cannot be negative");
  util::Check(params.residual_hi_pkts >= params.residual_lo_pkts,
              "residual bandwidth range must be ordered");
  util::Check(params.gop_size >= 2,
              "a GOP needs a reference and at least one dependent frame");
  util::Check(params.warmup_absorb_s >= 0.0,
              "warmup absorb window cannot be negative");
}

PacketLevelStream::PacketLevelStream(Session& session, PacketSimParams params,
                                     std::uint64_t seed)
    : session_(session), params_(params), rng_(seed) {
  ValidatePacketSimParams(params_);
  util::Check(session_.params().rejoin_delay_s >= params_.detect_s,
              "rejoin_delay_s must cover the detection time");
  session_.hooks().AddOnDeparture([this](NodeId failed) { OnDeparture(failed); });
  session_.hooks().AddOnMemberDeparted([this](const Member& m) {
    FinalizeMember(m, session_.simulator().now());
  });
}

double PacketLevelStream::ResidualFraction(NodeId id) {
  if (residual_fraction_.size() <= static_cast<std::size_t>(id))
    residual_fraction_.resize(static_cast<std::size_t>(id) + 1, -1.0);
  double& f = residual_fraction_[static_cast<std::size_t>(id)];
  if (f < 0.0)
    f = rng_.Uniform(params_.residual_lo_pkts, params_.residual_hi_pkts) /
        params_.packet_rate;
  return f;
}

void PacketLevelStream::Start(double duration_s) {
  util::Check(!started_, "packet stream already started");
  started_ = true;
  const double now = session_.simulator().now();
  stream_start_ = now;
  stream_end_ = now + duration_s;
  last_seq_ = static_cast<std::int64_t>(duration_s * params_.packet_rate) - 1;
  session_.simulator().ScheduleAt(now, [this] { Emit(0); }, "stream.emit");
}

void PacketLevelStream::Emit(std::int64_t seq) {
  ++emitted_;
  // The source holds the packet; push it to the root's current children.
  for (NodeId c : session_.tree().ChildrenOf(kRootId)) {
    const double hop = session_.DelayMs(kRootId, c) / 1000.0;
    session_.simulator().ScheduleAfter(
        hop, [this, c, seq] { Deliver(c, seq, session_.simulator().now()); },
        "stream.deliver");
  }
  if (seq < last_seq_)
    session_.simulator().ScheduleAfter(
        1.0 / params_.packet_rate, [this, seq] { Emit(seq + 1); },
        "stream.emit");
}

PacketLevelStream::Reception& PacketLevelStream::ReceptionFor(NodeId member,
                                                              double now) {
  auto it = rx_.find(member);
  if (it == rx_.end()) {
    Reception r;
    const Member& m = session_.tree().Get(member);
    const double start = std::max(stream_start_, m.join_time);
    r.first_seq = static_cast<std::int64_t>(
        std::ceil((start - stream_start_) * params_.packet_rate - 1e-9));
    r.started_at = now;
    if (params_.frame_playback) {
      r.playback.next_judge = r.first_seq;
      r.playback.regime_since = now;
      r.playback.tick = session_.simulator().ScheduleAfter(
          kRegimeWindowS, [this, member] { JudgeWindow(member); },
          "stream.playback");
    }
    it = rx_.emplace(member, std::move(r)).first;
  }
  return it->second;
}

void PacketLevelStream::SetRegime(NodeId member, int regime) {
  Playback& pb = rx_.find(member)->second.playback;
  const double now = session_.simulator().now();
  if (pb.regime >= 1) pb.degraded_accum += now - pb.regime_since;
  if (pb.regime == 0 && regime >= 1) {
    pb.degraded_since = now;
    ++degraded_receivers_;
  }
  if (pb.regime >= 1 && regime == 0) --degraded_receivers_;
  if (regime == 0 && pb.degraded_since >= 0.0) {
    recovery_latency_stat_.Add(now - pb.degraded_since);
    pb.degraded_since = -1.0;
  }
  pb.regime = regime;
  pb.regime_since = now;
  ++regime_transitions_;
  if (obs::Tracer* tr = session_.tracer(); tr != nullptr)
    tr->Emit(now, obs::EventKind::kPlaybackRegime, member, overlay::kNoNode,
             regime);
}

void PacketLevelStream::JudgeWindow(NodeId member) {
  const auto it = rx_.find(member);
  if (it == rx_.end()) return;
  Reception& rx = it->second;
  Playback& pb = rx.playback;
  pb.tick = sim::kInvalidEventId;
  const double now = session_.simulator().now();
  const std::int64_t gop = params_.gop_size;
  long judged = 0;
  long bad = 0;
  long stalls = 0;
  while (pb.next_judge <= last_seq_) {
    const std::int64_t seq = pb.next_judge;
    const double deadline = stream_start_ +
                            static_cast<double>(seq) / params_.packet_rate +
                            params_.buffer_s;
    if (deadline > now) break;  // still playable; judge next window
    ++pb.next_judge;
    double arrival = -1.0;
    if (seq >= rx.first_seq) {
      const auto idx = static_cast<std::size_t>(seq - rx.first_seq);
      if (idx < rx.arrival.size()) arrival = rx.arrival[idx];
    }
    const bool on_time = arrival >= 0.0 && arrival <= deadline;
    bool played = on_time;
    if (seq % gop == 0) {  // reference frame: independent
      pb.last_ref_gop = seq / gop;
      pb.last_ref_played = on_time;
      if (on_time && !pb.synced) {
        pb.synced = true;
        // A member that started mid-GOP (or lost its first references) has
        // been decoding nothing until now: this reference resynchronizes
        // its dependency state.
        if (pb.desync_judged > 0) {
          ++dependency_resyncs_;
          if (obs::Tracer* tr = session_.tracer(); tr != nullptr)
            tr->Emit(now, obs::EventKind::kDependencyResync, member,
                     overlay::kNoNode, pb.stalls_before_sync);
        }
      }
    } else {  // dependent frame: needs its GOP's reference played
      const bool ref_ok = seq / gop == pb.last_ref_gop && pb.last_ref_played;
      played = on_time && ref_ok;
      if (!pb.synced) ++pb.desync_judged;
      if (on_time && !ref_ok) {
        // Decode stall: the bytes are here, the reference is not.
        if (!pb.synced) ++pb.stalls_before_sync;
        if (deadline <= rx.started_at + params_.warmup_absorb_s)
          continue;  // startup grace: absorbed, not judged
        ++stalls;
        ++decode_stalls_;
      }
    }
    ++judged;
    if (!played) {
      ++bad;
      ++frames_late_;
    }
  }
  if (stalls > 0) {
    if (obs::Tracer* tr = session_.tracer(); tr != nullptr)
      tr->Emit(now, obs::EventKind::kDecodeStall, member, overlay::kNoNode,
               stalls);
  }
  if (judged > 0) {
    const double frac = static_cast<double>(bad) / static_cast<double>(judged);
    int target = pb.regime;
    if (pb.regime == 2) {
      target = frac >= kStalledExit   ? 2
               : frac > kDegradedExit ? 1
                                      : 0;
    } else if (pb.regime == 1) {
      target = frac >= kStalledEnter  ? 2
               : frac > kDegradedExit ? 1
                                      : 0;
    } else {
      target = frac >= kStalledEnter    ? 2
               : frac >= kDegradedEnter ? 1
                                        : 0;
    }
    if (target != pb.regime) SetRegime(member, target);
  }
  // The chain ends once every sequence has been judged (the last deadline
  // is stream_end_ + buffer_s); otherwise tick again one window later.
  if (pb.next_judge <= last_seq_)
    pb.tick = session_.simulator().ScheduleAfter(
        kRegimeWindowS, [this, member] { JudgeWindow(member); },
        "stream.playback");
}

void PacketLevelStream::FinalizePlayback(const Member& m, Reception& rx,
                                         double end_time) {
  Playback& pb = rx.playback;
  if (pb.tick != sim::kInvalidEventId) {
    session_.simulator().Cancel(pb.tick);
    pb.tick = sim::kInvalidEventId;
  }
  // The member leaves the tracked set here (FinalizeMember erases its
  // reception entry), so a non-nominal straggler must release its slot in
  // the degraded-receiver gauge.
  if (pb.regime >= 1) --degraded_receivers_;
  if (m.join_time < 0.0 || finalized_.contains(m.id)) return;
  double accum = pb.degraded_accum;
  if (pb.regime >= 1) accum += std::max(0.0, end_time - pb.regime_since);
  const double elapsed = end_time - rx.started_at;
  if (elapsed > 0.0)
    degraded_fraction_stat_.Add(std::min(1.0, accum / elapsed));
  // Stalled at stream end (not a mid-run departure): the session never
  // recovered its cadence.
  if (pb.regime == 2 && end_time >= stream_end_) ++permanently_stalled_;
}

int PacketLevelStream::PlaybackRegimeOf(NodeId member) const {
  const auto it = rx_.find(member);
  return it == rx_.end() ? -1 : it->second.playback.regime;
}

void PacketLevelStream::Deliver(NodeId member, std::int64_t seq, double now) {
  if (!session_.tree().Alive(member)) return;
  Reception& rx = ReceptionFor(member, now);
  if (seq >= rx.first_seq) {
    const auto idx = static_cast<std::size_t>(seq - rx.first_seq);
    if (rx.arrival.size() <= idx) rx.arrival.resize(idx + 1, -1.0);
    if (rx.arrival[idx] >= 0.0) return;  // duplicate
    rx.arrival[idx] = now;
  }
  ++deliveries_;
  // ELN origination: a jump past the next expected sequence means the
  // member itself detected losses; it notifies its children so they wait
  // for upstream repair instead of rejoining (Section 4.2).
  if (seq >= rx.first_seq) {
    rx.tracker.OnData(seq - rx.first_seq);
    if (rx.max_seen >= rx.first_seq - 1 && seq > rx.max_seen + 1) {
      std::vector<std::int64_t> holes;
      for (std::int64_t h = std::max(rx.max_seen + 1, rx.first_seq); h < seq; ++h) {
        const auto idx = static_cast<std::size_t>(h - rx.first_seq);
        if (idx >= rx.arrival.size() || rx.arrival[idx] < 0.0) holes.push_back(h);
      }
      NotifyChildren(member, holes);
    }
    rx.max_seen = std::max(rx.max_seen, seq);
  }
  // Forward to current children, one hop each.
  for (NodeId c : session_.tree().ChildrenOf(member)) {
    const double hop = session_.DelayMs(member, c) / 1000.0;
    session_.simulator().ScheduleAfter(
        hop, [this, c, seq] { Deliver(c, seq, session_.simulator().now()); },
        "stream.deliver");
  }
}

void PacketLevelStream::NotifyChildren(NodeId member,
                                       const std::vector<std::int64_t>& seqs) {
  if (seqs.empty()) return;
  const overlay::Tree& tree = session_.tree();
  if (obs::Tracer* tr = session_.tracer();
      tr != nullptr && tree.ChildCount(member) != 0)
    tr->Emit(session_.simulator().now(), obs::EventKind::kEln, member,
             overlay::kNoNode, static_cast<std::int64_t>(seqs.size()));
  for (NodeId c : tree.ChildrenOf(member)) {
    const double hop = session_.DelayMs(member, c) / 1000.0;
    for (std::int64_t seq : seqs) {
      ++eln_sent_;
      // ELNs are control messages: under chaos they can be lost, in which
      // case the child misclassifies the outage (and may rejoin for an
      // upstream loss it should have waited out) -- exactly the failure
      // mode the paper's Section 4.2 mechanism is sensitive to.
      if (fault_plane_ != nullptr) {
        fault_plane_->Deliver(member, c, hop,
                              [this, c, seq] { DeliverEln(c, seq); });
      } else {
        session_.simulator().ScheduleAfter(
            hop, [this, c, seq] { DeliverEln(c, seq); }, "stream.eln");
      }
    }
  }
}

void PacketLevelStream::DeliverEln(NodeId member, std::int64_t seq) {
  if (!session_.tree().Alive(member)) return;
  Reception& rx = ReceptionFor(member, session_.simulator().now());
  if (seq < rx.first_seq) return;
  rx.tracker.OnEln(seq - rx.first_seq);
  // Propagate only the notifications this member had not seen before.
  std::vector<std::int64_t> fresh;
  for (const std::int64_t rel : rx.tracker.TakeForwardNotifications())
    fresh.push_back(rel + rx.first_seq);
  NotifyChildren(member, fresh);
}

std::vector<NodeId> PacketLevelStream::ActiveRepairServers() const {
  std::vector<NodeId> servers;
  for (const RepairStripe& s : repair_stripes_) {
    if (s.dead || (s.in_flight < 0 && s.cursor > s.hole_end)) continue;
    if (std::find(servers.begin(), servers.end(), s.server) == servers.end())
      servers.push_back(s.server);
  }
  return servers;
}

core::ElnTracker::Status PacketLevelStream::ElnStatusOf(NodeId member) const {
  const auto it = rx_.find(member);
  if (it == rx_.end()) return core::ElnTracker::Status::kHealthy;
  return it->second.tracker.status();
}

void PacketLevelStream::OnDeparture(NodeId failed) {
  if (!started_) return;
  overlay::Tree& tree = session_.tree();
  const double now = session_.simulator().now();
  const double rejoin_at = now + session_.params().rejoin_delay_s;

  // Mid-repair failover: stripes the failed member was serving hand their
  // remaining ranges to a surviving group member; stripes repairing the
  // failed member's own hole simply end.
  for (std::size_t i = 0; i < repair_stripes_.size(); ++i) {
    RepairStripe& s = repair_stripes_[i];
    if (s.dead) continue;
    if (s.orphan == failed) {
      s.dead = true;
      continue;
    }
    if (s.server != failed) continue;
    s.dead = true;
    if (s.in_flight >= 0 || s.cursor <= s.hole_end) FailoverStripe(i);
  }

  for (const NodeId orphan : tree.ChildrenOf(failed)) {
    // The hole this orphan must repair: packets emitted while it is
    // detached.
    const auto hole_begin = static_cast<std::int64_t>(std::ceil(
        (now - stream_start_) * params_.packet_rate - 1e-9));
    const auto hole_end =
        std::min(last_seq_, static_cast<std::int64_t>(
                                (rejoin_at - stream_start_) * params_.packet_rate));
    if (hole_begin > hole_end) continue;

    std::vector<NodeId> group = core::SelectRecoveryGroup(
        session_, orphan, params_.recovery_group_size, params_.selection);

    // Build the usable stripe set exactly as the repair protocol does.
    std::vector<RepairStripe> built;
    double latency = 0.0;
    double covered = 0.0;
    NodeId prev = orphan;
    const long gid = ++next_group_id_;
    for (NodeId g : group) {
      latency += session_.DelayMs(prev, g) / 1000.0;
      prev = g;
      const bool usable = tree.Alive(g) &&
                          !tree.IsInSubtreeOf(g, failed) && tree.IsRooted(g);
      if (!usable) continue;
      const double rate = ResidualFraction(g);
      if (rate <= 0.0) continue;
      RepairStripe s;
      s.server = g;
      s.orphan = orphan;
      s.group_id = gid;
      s.rate = rate;
      s.start = now + params_.detect_s + latency;
      s.next_free = s.start;
      s.mod_lo = 100.0 * std::min(covered, 1.0);
      covered += rate;
      s.mod_hi = 100.0 * std::min(covered, 1.0);
      s.cursor = hole_begin;
      s.hole_end = hole_end;
      built.push_back(s);
      if (params_.mode == core::RecoveryMode::kSingleSource) break;
      if (covered >= 1.0) break;
    }
    if (built.empty()) continue;
    if (obs::Tracer* tr = session_.tracer(); tr != nullptr)
      tr->Emit(now, obs::EventKind::kCerGroupFormed, orphan, failed, gid);
    if (params_.mode == core::RecoveryMode::kSingleSource) {
      built.front().mod_lo = 0.0;
      built.front().mod_hi = 100.0;
    } else if (covered < 1.0) {
      // Chain exhausted below full rate: the last stripe takes the rest of
      // the sequence space at its own (insufficient) rate.
      built.back().mod_hi = 100.0;
    }
    if (params_.mode == core::RecoveryMode::kCooperative &&
        static_cast<int>(built.size()) < params_.recovery_group_size)
      ++short_group_fallbacks_;

    // Start each stripe's serving chain. A stripe serves its share of the
    // hole in sequence order at its residual rate, one packet at a time;
    // packets that cannot make their playback deadline are not sent
    // ("meaningless"). The chain, not a pre-scheduled batch, is what lets a
    // server death mid-repair hand the remaining range to a survivor.
    for (const RepairStripe& s : built) {
      if (obs::Tracer* tr = session_.tracer(); tr != nullptr)
        tr->Emit(now, obs::EventKind::kRepairStart, s.server, s.orphan,
                 s.group_id);
      repair_stripes_.push_back(s);
      ServeNext(repair_stripes_.size() - 1);
    }
  }
}

void PacketLevelStream::ServeNext(std::size_t index) {
  RepairStripe& s = repair_stripes_[index];
  if (s.dead) return;
  s.in_flight = -1;
  while (s.cursor <= s.hole_end) {
    const std::int64_t seq = s.cursor++;
    const double mod = static_cast<double>(seq % 100);
    if (mod < s.mod_lo || mod >= s.mod_hi) continue;  // another stripe's share
    const double emit_time =
        stream_start_ + static_cast<double>(seq) / params_.packet_rate;
    const double deadline = emit_time + params_.buffer_s;
    const double begin =
        std::max(s.next_free, std::max(emit_time, s.start));
    const double done = begin + 1.0 / (s.rate * params_.packet_rate);
    if (done > deadline) continue;  // expired; skip without serving
    s.next_free = done;
    s.in_flight = seq;
    ++repairs_;
    session_.simulator().ScheduleAt(
        done, [this, index, seq] { OnRepairServed(index, seq); },
        "stream.repair");
    return;
  }
  // Fell through: the stripe's share of the hole is exhausted (served or
  // expired); the chain ends here.
  if (obs::Tracer* tr = session_.tracer(); tr != nullptr)
    tr->Emit(session_.simulator().now(), obs::EventKind::kRepairFinish,
             s.server, s.orphan, s.group_id);
}

void PacketLevelStream::OnRepairServed(std::size_t index, std::int64_t seq) {
  {
    RepairStripe& s = repair_stripes_[index];
    if (s.dead) return;  // the server died before finishing this packet
    s.in_flight = -1;
    Deliver(s.orphan, seq, session_.simulator().now());
  }  // Deliver may grow repair_stripes_; the reference must not outlive it.
  ServeNext(index);
}

void PacketLevelStream::FailoverStripe(std::size_t index) {
  // Pick the survivor: the live stripe of the same repair with the highest
  // residual rate, ties to the lowest index. Copy the dead stripe first --
  // the push_back below may reallocate the vector.
  const RepairStripe dead = repair_stripes_[index];
  std::size_t best = repair_stripes_.size();
  for (std::size_t i = 0; i < repair_stripes_.size(); ++i) {
    if (i == index) continue;
    const RepairStripe& c = repair_stripes_[i];
    if (c.group_id != dead.group_id || c.dead) continue;
    // Never the dead stripe's own server: OnDeparture's failover sweep runs
    // while the departing member is still marked alive, and a server that
    // earlier took over a sibling stripe serves two stripes of one group.
    // Inheriting the range back onto the dying server would mint a fresh
    // server==failed stripe for the sweep to kill -- and the takeover it
    // minted in turn -- growing repair_stripes_ without bound.
    if (c.server == dead.server) continue;
    if (!session_.tree().Alive(c.server)) continue;
    if (best == repair_stripes_.size() || c.rate > repair_stripes_[best].rate)
      best = i;
  }
  if (best == repair_stripes_.size()) return;  // no survivor: range is lost

  RepairStripe takeover;
  takeover.server = repair_stripes_[best].server;
  takeover.orphan = dead.orphan;
  takeover.group_id = dead.group_id;
  takeover.rate = repair_stripes_[best].rate;
  // The survivor learns of the server's death the way the orphan learned of
  // its parent's: detect_s later. Its takeover queue is independent of its
  // own stripe's queue (the residual-rate model is per offered stripe).
  takeover.start = session_.simulator().now() + params_.detect_s;
  takeover.next_free = takeover.start;
  takeover.mod_lo = dead.mod_lo;
  takeover.mod_hi = dead.mod_hi;
  // Resume from the packet the dead server was mid-serving, if any.
  takeover.cursor = dead.in_flight >= 0 ? dead.in_flight : dead.cursor;
  takeover.hole_end = dead.hole_end;
  ++stripe_failovers_;
  if (obs::Tracer* tr = session_.tracer(); tr != nullptr)
    tr->Emit(session_.simulator().now(), obs::EventKind::kRepairFailover,
             takeover.server, dead.server, takeover.group_id);
  repair_stripes_.push_back(takeover);
  ServeNext(repair_stripes_.size() - 1);
}

void PacketLevelStream::FinalizeMember(const Member& m, double end_time) {
  const auto it = rx_.find(m.id);
  if (it != rx_.end() && params_.frame_playback)
    FinalizePlayback(m, it->second, end_time);
  if (m.join_time < 0.0 || finalized_.contains(m.id)) {
    if (it != rx_.end()) rx_.erase(it);
    return;  // pre-populated member, or already accounted
  }
  finalized_.insert(m.id);
  // Expected packets: from the member's first sequence to the last emitted
  // before it left (or the stream ended). Packets whose playback deadline
  // has not passed yet are not judged (they may still arrive in time).
  const double horizon = std::min(end_time, stream_end_);
  const auto first = static_cast<std::int64_t>(std::ceil(
      (std::max(m.join_time, stream_start_) - stream_start_) *
          params_.packet_rate -
      1e-9));
  const auto deadline_cap = static_cast<std::int64_t>(
      (end_time - params_.buffer_s - stream_start_) * params_.packet_rate);
  const auto last = std::min(
      {last_seq_,
       static_cast<std::int64_t>((horizon - stream_start_) * params_.packet_rate) -
           1,
       deadline_cap});
  if (last < first) {
    if (it != rx_.end()) rx_.erase(it);
    return;
  }
  std::int64_t missed = 0;
  for (std::int64_t seq = first; seq <= last; ++seq) {
    const double deadline = stream_start_ +
                            static_cast<double>(seq) / params_.packet_rate +
                            params_.buffer_s;
    double arrival = -1.0;
    if (it != rx_.end() && seq >= it->second.first_seq) {
      const auto idx = static_cast<std::size_t>(seq - it->second.first_seq);
      if (idx < it->second.arrival.size()) arrival = it->second.arrival[idx];
    }
    if (arrival < 0.0 || arrival > deadline) ++missed;
  }
  const double view_time =
      static_cast<double>(last - first + 1) / params_.packet_rate;
  ratio_stat_.Add(static_cast<double>(missed) / params_.packet_rate / view_time);
  if (it != rx_.end()) rx_.erase(it);
}

void PacketLevelStream::FinalizeAliveMembers() {
  const double now = session_.simulator().now();
  for (NodeId id : session_.alive_members())
    FinalizeMember(session_.tree().Get(id), now);
}

}  // namespace omcast::stream
