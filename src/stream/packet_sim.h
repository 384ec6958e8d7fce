// Event-driven per-packet streaming simulator.
//
// The figure benches use StreamingLayer's per-outage accounting, which
// applies the CER rules to sequence ranges analytically. This module is the
// ground truth it is validated against: every packet is a simulator event
// that travels edge by edge down the overlay.
//
//   * the source emits packet n at t = n / packet_rate;
//   * a member receiving a packet forwards it to its *current* children,
//     one event per edge, delayed by the underlying network path;
//   * a failed member stops forwarding; its orphaned children re-attach
//     only after the session's rejoin_delay_s (set it to the paper's 15 s),
//     so the data-plane hole physically exists in the tree;
//   * each orphan runs the CER repair: stripe the hole across its recovery
//     group by (n mod 100), each stripe serving at its residual rate, and
//     repaired packets are forwarded downstream like normal traffic (the
//     ELN rule: descendants wait for upstream recovery);
//   * playback: packet n must arrive by emit(n) + buffer_s; every miss
//     costs 1/packet_rate seconds of stall;
//   * (optional) frame-dependency playback: packets form GOPs (reference +
//     dependents); a dependent frame that arrives on time without its
//     reference is a DECODE STALL, and each receiver's playback regime
//     (nominal / degraded / stalled) is tracked online with hysteresis
//     (PacketSimParams.frame_playback -- off by default, adds no RNG draws).
//
// Cost is O(members x packets), so use it for validation-scale overlays
// (hundreds of members, minutes of stream), not for the 14k-member sweeps.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/cer/eln.h"
#include "core/cer/group.h"
#include "core/cer/recovery.h"
#include "overlay/session.h"
#include "rand/rng.h"
#include "sim/fault_plane.h"
#include "util/stats.h"

namespace omcast::stream {

struct PacketSimParams {
  double packet_rate = core::kPaperPacketRate;
  double buffer_s = 5.0;
  // Failure-detection time: recovery starts this long after the parent
  // died. The total outage (detection + rejoin) is the session's
  // rejoin_delay_s, which must be >= detect_s.
  double detect_s = core::kPaperDetectS;
  int recovery_group_size = 3;
  core::GroupSelection selection = core::GroupSelection::kMlc;
  core::RecoveryMode mode = core::RecoveryMode::kCooperative;
  double residual_lo_pkts = core::kPaperResidualLoPkts;
  double residual_hi_pkts = core::kPaperResidualHiPkts;

  // --- frame-dependency playback (degraded-regime model) -------------------
  // When on, packets form GOPs: seq % gop_size == 0 is a reference frame,
  // the rest of the GOP depends on it. A dependent frame that arrives by
  // its deadline but whose reference did not is a DECODE STALL -- distinct
  // from packet loss, and exactly what a rejoining member landing mid-GOP
  // suffers until the next reference. Each receiver's playback is judged in
  // kRegimeWindowS windows and tracked through a nominal/degraded/stalled
  // regime machine with hysteresis. Enabling this adds NO RNG draws, so
  // fault schedules and protocol digests are unchanged when it is off.
  bool frame_playback = false;
  int gop_size = 10;
  // Startup grace: decode stalls whose deadline falls within this many
  // seconds of the member's first reception are absorbed (not counted, not
  // traced) -- a joiner is expected to stall until its first reference.
  double warmup_absorb_s = 2.0;
};

// Frame-playback judgment window length (also the tick period of the
// per-member chain).
inline constexpr double kRegimeWindowS = 1.0;
// Hysteresis thresholds on the window's bad-frame fraction (losses plus
// unabsorbed decode stalls). enter > exit keeps the regime from flickering
// at a threshold.
inline constexpr double kDegradedEnter = 0.25;
inline constexpr double kDegradedExit = 0.10;
inline constexpr double kStalledEnter = 0.75;
inline constexpr double kStalledExit = 0.40;

// Aborts (util::Check) on nonsensical parameters: non-positive rates or
// buffer, negative detection time, empty recovery group, inverted residual
// range. Called by PacketLevelStream's constructor.
void ValidatePacketSimParams(const PacketSimParams& params);

class PacketLevelStream {
 public:
  // Installs hooks; construct before the measured phase.
  PacketLevelStream(overlay::Session& session, PacketSimParams params,
                    std::uint64_t seed);

  // Routes ELN control messages through a lossy plane (data packets keep
  // their reliable per-edge model; the chaos harness attacks the control
  // plane). The plane must outlive the run; nullptr restores reliability.
  void SetFaultPlane(sim::FaultPlane* fault_plane) {
    fault_plane_ = fault_plane;
  }

  // Begins emitting packets now, for `duration_s` of stream.
  void Start(double duration_s);

  // Computes starving ratios for members still alive (call after the run;
  // departures are finalized automatically).
  void FinalizeAliveMembers();

  // Starving-time ratio over finalized members that joined at/after t=0.
  const util::RunningStat& ratio_stat() const { return ratio_stat_; }

  long packets_emitted() const { return emitted_; }
  long deliveries() const { return deliveries_; }
  long repairs_scheduled() const { return repairs_; }
  long eln_notifications_sent() const { return eln_sent_; }
  // Times a recovery-group member died mid-repair and its remaining stripe
  // range was reassigned to a surviving member.
  long stripe_failovers() const { return stripe_failovers_; }
  // Repairs that started with fewer usable stripes than the configured
  // recovery_group_size (the group shrank; the stripes renormalize over the
  // survivors, possibly below full rate).
  long short_group_fallbacks() const { return short_group_fallbacks_; }

  // Distinct servers of repair stripes that still have work remaining, in
  // stripe-creation order (tests and the chaos harness use this to aim a
  // mid-repair kill).
  std::vector<overlay::NodeId> ActiveRepairServers() const;

  // The member's current ELN classification (Section 4.2): healthy,
  // upstream loss (wait for upstream repair) or parent failure (rejoin).
  // Members that have not received anything yet read as healthy.
  core::ElnTracker::Status ElnStatusOf(overlay::NodeId member) const;

  // --- frame-playback QoE (all zero unless params.frame_playback) ----------
  // Fraction of each finalized member's viewing time spent in a non-nominal
  // regime (degraded or stalled).
  const util::RunningStat& degraded_fraction_stat() const {
    return degraded_fraction_stat_;
  }
  // Latency of each completed degraded episode: time from leaving nominal
  // to returning to it (recovery-to-cadence).
  const util::RunningStat& recovery_latency_stat() const {
    return recovery_latency_stat_;
  }
  long decode_stalls() const { return decode_stalls_; }
  long regime_transitions() const { return regime_transitions_; }
  // Frames judged past their playback deadline that did not play (lost,
  // late, or decode-stalled): the numerator of the chaos harness's
  // late-frame rate time-series.
  long frames_late() const { return frames_late_; }
  // Members currently tracked in a non-nominal (degraded or stalled)
  // playback regime; the chaos harness samples it as a recovery-curve gauge.
  int degraded_receivers() const { return degraded_receivers_; }
  long dependency_resyncs() const { return dependency_resyncs_; }
  // Finalized-at-stream-end members still in the stalled regime: sessions
  // that never recovered. The reconnect-storm invariant pins this to zero.
  int permanently_stalled() const { return permanently_stalled_; }
  // Current regime of a tracked member (0 nominal / 1 degraded / 2
  // stalled); -1 when the member has no reception state.
  int PlaybackRegimeOf(overlay::NodeId member) const;

 private:
  // Online per-receiver playback state; judged window by window from a
  // self-perpetuating tick chain so regime transitions are traced at the
  // sim time they happen (historical timestamps would break the trace
  // validator's monotonicity invariant).
  struct Playback {
    int regime = 0;                  // 0 nominal, 1 degraded, 2 stalled
    double regime_since = 0.0;       // when the current regime was entered
    double degraded_since = -1.0;    // left nominal at; -1 when nominal
    double degraded_accum = 0.0;     // total non-nominal seconds so far
    bool synced = false;             // decoded an on-time reference yet
    bool last_ref_played = false;    // did the current GOP's reference play
    std::int64_t last_ref_gop = -1;  // GOP index of the last judged reference
    std::int64_t next_judge = 0;     // next sequence whose deadline to judge
    long desync_judged = 0;          // dependent frames judged while desynced
    long stalls_before_sync = 0;     // decode stalls absorbed before sync
    sim::EventId tick = sim::kInvalidEventId;
  };

  struct Reception {
    std::int64_t first_seq = 0;        // first packet this member expects
    std::vector<double> arrival;       // arrival[i]: seq first_seq+i; <0 none
    double started_at = 0.0;
    std::int64_t max_seen = -1;        // highest data sequence received
    core::ElnTracker tracker;          // loss classification (Section 4.2)
    Playback playback;                 // frame-dependency regime state
  };

  // One stripe of one repair: a recovery-group member serving the share of
  // the orphan's hole whose (seq mod 100) falls in [mod_lo, mod_hi). Each
  // stripe is a self-perpetuating event chain (ServeNext), serving one
  // packet at a time through its queue; killing the server mid-chain marks
  // the stripe dead and fails its remaining range over to a survivor.
  struct RepairStripe {
    overlay::NodeId server = overlay::kNoNode;
    overlay::NodeId orphan = overlay::kNoNode;
    long group_id = 0;          // repairs spawned together share an id
    double rate = 0.0;          // fraction of full stream rate
    double start = 0.0;         // when the server starts serving
    double next_free = 0.0;     // its serving queue
    double mod_lo = 0.0, mod_hi = 0.0;  // (seq mod 100) in [mod_lo, mod_hi)
    std::int64_t cursor = 0;    // next sequence to consider
    std::int64_t hole_end = 0;  // last sequence of the hole (inclusive)
    std::int64_t in_flight = -1;  // sequence being served; -1 when idle
    bool dead = false;          // server failed; range handed to a survivor
  };

  void Emit(std::int64_t seq);
  void Deliver(overlay::NodeId member, std::int64_t seq, double now);
  // An ELN for `seq` reaches `member` from its parent; classified and
  // propagated downstream.
  void DeliverEln(overlay::NodeId member, std::int64_t seq);
  // Sends freshly discovered hole notifications to the member's children.
  void NotifyChildren(overlay::NodeId member,
                      const std::vector<std::int64_t>& seqs);
  void OnDeparture(overlay::NodeId failed);
  // Advances stripe `index`'s chain: schedules the service of its next
  // in-deadline packet, or lets the chain end.
  void ServeNext(std::size_t index);
  void OnRepairServed(std::size_t index, std::int64_t seq);
  // The server of stripe `index` died with work remaining: reassign the
  // rest of its range to the surviving group stripe with the highest
  // residual rate (ties to the lowest index).
  void FailoverStripe(std::size_t index);
  void FinalizeMember(const overlay::Member& m, double end_time);
  Reception& ReceptionFor(overlay::NodeId member, double now);
  double ResidualFraction(overlay::NodeId id);
  // Judges every sequence whose playback deadline has passed since the
  // member's last window: on-time, lost, or decode-stalled (on time but
  // reference missed). Emits kDecodeStall / kDependencyResync and advances
  // the regime machine; reschedules itself one window later.
  void JudgeWindow(overlay::NodeId member);
  // Regime transition (with kPlaybackRegime emission) plus degraded-time
  // and recovery-latency accounting.
  void SetRegime(overlay::NodeId member, int regime);
  // Cancels the member's tick chain and folds its playback state into the
  // QoE aggregates (skipped for pre-populated / already-finalized members).
  void FinalizePlayback(const overlay::Member& m, Reception& rx,
                        double end_time);

  overlay::Session& session_;
  PacketSimParams params_;
  rnd::Rng rng_;
  // Point lookups keyed by member id; per-member finalization iterates the
  // session's alive list (a deterministic vector), never these tables.
  // omcast-lint: allow(unordered-iter)
  std::unordered_map<overlay::NodeId, Reception> rx_;
  // omcast-lint: allow(unordered-iter)
  std::unordered_set<overlay::NodeId> finalized_;
  std::vector<double> residual_fraction_;
  // Grows only (indices are captured by in-flight events); stripes whose
  // chains ended stay as inert records.
  std::vector<RepairStripe> repair_stripes_;
  util::RunningStat ratio_stat_;
  util::RunningStat degraded_fraction_stat_;
  util::RunningStat recovery_latency_stat_;
  sim::FaultPlane* fault_plane_ = nullptr;  // nullptr: reliable ELN delivery
  double stream_start_ = 0.0;
  double stream_end_ = 0.0;
  std::int64_t last_seq_ = 0;
  long emitted_ = 0;
  long deliveries_ = 0;
  long repairs_ = 0;
  long eln_sent_ = 0;
  long stripe_failovers_ = 0;
  long short_group_fallbacks_ = 0;
  long next_group_id_ = 0;
  long decode_stalls_ = 0;
  long regime_transitions_ = 0;
  long frames_late_ = 0;
  int degraded_receivers_ = 0;
  long dependency_resyncs_ = 0;
  int permanently_stalled_ = 0;
  bool started_ = false;
};

}  // namespace omcast::stream
