// Incident flight recorder: stitches the live trace stream into
// per-disruption recovery lifecycles.
//
// A disruption *incident* opens when a member involuntarily loses its
// upstream feed (kOrphaned: parent death, eviction/false-suspicion detach,
// fragment dissolve) or re-enters after downtime (kReconnectStart), and
// then walks the phases the paper's transient claims are about:
//
//   failure -> suspicion (kHeartbeatMiss) -> detection (kSuspicion)
//           -> reattached (kJoin/kRejoin/kReconnectAttached/
//              kCliqueLocalRecovery/kCliqueBackboneReattach)
//           -> stream-recovered (kPlaybackRegime back to nominal, when the
//              member's playback left nominal cadence at all)
//
// with per-phase latencies recorded only between observed endpoints (an
// oracle-detection run has no suspicion events; a run without frame
// playback has no regime events -- those phases simply stay empty).
// Orthogonal lifecycles tracked alongside: ROST switch handshakes
// (kSwitchAttempt -> first kLockGrant -> kSwitchCommit/kSwitchAbort) and
// clique delegate successions (kLeave of the old delegate ->
// kCliqueDelegatePromoted).
//
// Robustness contract (pinned by test_incidents.cc on synthetic traces): a
// re-orphaning while an incident is open supersedes it and opens a fresh
// one; a departure or abandoned re-entry closes it terminally; terminal
// reconnect events with no matching open incident are tallied as orphan
// events, never crash; Finalize() closes the stragglers as open-at-end.
//
// Determinism: an IncidentLog consumes only replay-deterministic trace
// content and keeps exact latency lists (sorted copies for percentiles),
// so FlatStats() is byte-identical across equal-seed runs under any thread
// count or delay model. Cell-confined and unsynchronized, like every obs
// collector.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "obs/trace.h"

namespace omcast::obs {

class IncidentLog : public TraceSink {
 public:
  enum class Cause : int {
    kParentDeath = 0,  // kOrphaned detail 0
    kEviction = 1,     // kOrphaned detail 1 (eviction / false suspicion)
    kDissolve = 2,     // kOrphaned detail 2 (fragment dissolve)
    kReconnect = 3,    // kReconnectStart
  };

  enum class Close : int {
    kRecovered = 0,   // reattached with nominal playback (immediately, or
                      // after regaining cadence)
    kAbandoned = 1,   // bounded-retry re-entry gave up
    kDeparted = 2,    // the member left while the incident was open
    kSuperseded = 3,  // re-orphaned before this incident resolved
    kOpenAtEnd = 4,   // still unresolved at Finalize()
  };

  struct Incident {
    std::int64_t subject = -1;
    Cause cause = Cause::kParentDeath;
    double t_open = 0.0;
    double t_suspect = -1.0;   // first heartbeat miss after open
    double t_detect = -1.0;    // real-death suspicion
    double t_reattach = -1.0;  // first reattach edge
    double t_close = -1.0;
    Close close = Close::kOpenAtEnd;
  };

  // Feed: either register as a sink on the run's Tracer (live), or replay
  // Tracer::Events() through it after the fact -- both see the same stream.
  void OnEvent(const TraceEvent& ev) override;

  // Closes every still-open incident as kOpenAtEnd at time `t` and drops
  // unfinished switch handshakes. Call once, after the run.
  void Finalize(double t);

  // All closed incidents, in close order (Finalize closes the remainder in
  // subject order).
  const std::vector<Incident>& incidents() const { return closed_; }

  // Flat deterministic name -> value stats: lifecycle counts (always
  // present, zero included) plus, for each phase with observations,
  // `incident.phase.<name>.count/.mean_s/.p50_s/.p99_s/.max_s` with exact
  // (sorted, nearest-rank) percentiles. This is the per-cell `incidents`
  // block of results schema v3.
  std::map<std::string, double> FlatStats() const;

  // Exports the same lifecycle counts as registry counters and each phase's
  // latencies into fixed-bound registry histograms ("incident.phase.*_s"),
  // so cross-cell aggregation can MergeFrom them.
  void ExportTo(Registry& reg) const;

 private:
  struct OpenSwitch {
    double t_attempt = 0.0;
    double t_lock = -1.0;  // first lease granted to the initiator
  };

  void OpenIncident(std::int64_t subject, Cause cause, double t);
  void CloseIncident(std::int64_t subject, Close close, double t);
  void Reattached(std::int64_t subject, double t);
  int RegimeOf(std::int64_t subject) const;

  std::map<std::int64_t, Incident> open_;
  std::vector<Incident> closed_;
  std::map<std::int64_t, OpenSwitch> open_switches_;
  std::map<std::int64_t, int> regime_;     // last kPlaybackRegime detail
  std::map<std::int64_t, double> left_at_; // last kLeave time per node

  // Lifecycle tallies.
  long opened_ = 0;
  long cause_counts_[4] = {0, 0, 0, 0};
  long reattached_ = 0;
  long close_counts_[5] = {0, 0, 0, 0, 0};
  long orphan_events_ = 0;  // terminal reconnect events with nothing open
  long switch_attempts_ = 0;
  long switch_commits_ = 0;
  long switch_aborts_ = 0;
  long promotions_ = 0;

  // Exact per-phase latency lists (seconds).
  std::vector<double> suspect_s_;
  std::vector<double> detect_s_;
  std::vector<double> reattach_s_;
  std::vector<double> recover_s_;
  std::vector<double> total_s_;
  std::vector<double> switch_lock_s_;
  std::vector<double> switch_commit_s_;
  std::vector<double> promotion_s_;
};

}  // namespace omcast::obs
