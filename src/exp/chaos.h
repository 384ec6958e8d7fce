// Chaos harness: runs a streaming session with every control path routed
// through a lossy FaultPlane while injecting correlated failures, then
// checks the hardening held up.
//
// The fault model attacks exactly the assumptions the oracle experiments
// make for free:
//
//   * heartbeat detection replaces the fixed detect/rejoin oracle, so
//     orphans discover parent deaths through (lossy) silence;
//   * ROST's lock handshake runs over messages with leases and timeouts,
//     so lost releases or dead holders cannot wedge the tree;
//   * ELN notifications can be lost or delayed;
//   * injectable failure patterns: one correlated stub-domain kill (every
//     member hosted in the domain dies at once), a flash crowd of
//     simultaneous random departures, and a recovery-group member killed
//     mid-repair while it is serving CER stripes;
//   * degraded-regime scenario family: a flash-crowd JOIN storm, an
//     ISP-level episodic-loss outage over one stub domain's links, and a
//     reconnect storm (members depart and re-enter through the session's
//     bounded-retry re-entry path), scored by the frame-playback QoE
//     metrics (degraded-time fraction, recovery-to-cadence latency, decode
//     stalls).
//
// Everything is seeded: the same config produces bit-identical runs (the
// chaos regression tests replay schedules and compare rolling-hash traces).
#pragma once

#include <map>
#include <string>

#include "exp/scenario.h"
#include "overlay/heartbeat.h"
#include "sim/fault_plane.h"
#include "stream/packet_sim.h"

namespace omcast::exp {

// Churn never stops, so a member whose parent died seconds before the drain
// ends is legitimately (still) unrooted. Members found unrooted at drain end
// get this long -- detection plus rejoin retries -- to recover; only the
// ones still adrift afterwards count as failures.
inline constexpr double kChaosSettleS = 30.0;

struct ChaosConfig {
  int population = 200;       // steady-state size
  double warmup_s = 600.0;    // equilibration before the stream starts
  double stream_s = 120.0;    // packet-level stream length
  // Settling time after the stream: in-flight leases expire or release,
  // orphans finish rejoining. Should exceed core::kLockLeaseS and the
  // heartbeat suspicion timeout.
  double drain_s = 120.0;
  std::uint64_t seed = 1;
  Algorithm algorithm = Algorithm::kRost;

  sim::FaultPlaneParams fault;  // loss/dup/jitter for every control message

  overlay::HeartbeatParams heartbeat;  // detection instead of the oracle

  // --- failure injection (times relative to stream start; <0 disables) ----
  // Correlated kill: every member hosted in stub domain `domain_kill_index`
  // departs simultaneously at domain_kill_at_s.
  double domain_kill_at_s = -1.0;
  int domain_kill_index = 0;
  // Flash departure: `flash_departures` random members die at flash_at_s.
  double flash_at_s = -1.0;
  int flash_departures = 0;
  // Mid-repair kill: at mid_repair_kill_at_s a parent with children is
  // killed to start a CER repair; once its stripes are serving, the first
  // active recovery-group server is killed too, forcing a stripe failover.
  double mid_repair_kill_at_s = -1.0;
  // Flash-crowd join storm: `join_storm_count` members inject
  // simultaneously at join_storm_at_s (bandwidths/lifetimes drawn from the
  // session's distributions via the chaos RNG), stressing the join path
  // while the stream is live.
  double join_storm_at_s = -1.0;
  int join_storm_count = 0;
  // ISP-level correlated loss: at episodic_at_s every member hosted in stub
  // domain `episodic_domain_index` (and the root, if co-located) joins a
  // fault-plane link group whose episodic on/off loss process starts
  // immediately (sim::EpisodicLossParams).
  double episodic_at_s = -1.0;
  int episodic_domain_index = 0;
  sim::EpisodicLossParams episodic;
  // When >= 0 the episode ends (StopEpisodicLoss) at this offset; the drain
  // then measures recovery from the incident. Negative: the on/off process
  // outlasts the run, so members in the lossy domain stay semi-partitioned
  // through the drain and the settle window.
  double episodic_end_s = -1.0;
  // Rejoin-under-load storm: at reconnect_storm_at_s a
  // `reconnect_storm_fraction` sample of the alive membership departs
  // abruptly and re-enters through the session's bounded-retry re-entry
  // path after per-member exponential downtimes (mean
  // reconnect_downtime_mean_s).
  double reconnect_storm_at_s = -1.0;
  double reconnect_storm_fraction = 0.0;
  double reconnect_downtime_mean_s = 5.0;

  core::RostParams rost;            // algorithm == kRost
  proto::CliqueParams clique;       // algorithm == kClique
  overlay::SessionParams session;   // external_failure_detection is set
                                    // by the runner
  stream::PacketSimParams packet;

  // --- observability (obs/) -- all non-owning, null = off, each must
  // outlive the run. See ScenarioConfig for semantics; the chaos runner
  // records every series and end-of-run counter straight into `registry`
  // (pass an empty one: nothing is reset), and into a run-local registry
  // when it is null.
  obs::Tracer* tracer = nullptr;
  obs::Registry* registry = nullptr;
  obs::SimProfiler* profiler = nullptr;

  // Recovery-curve sampling: when > 0, the run records deterministic
  // sim-time-windowed series (obs::TimeSeries, this window width) into the
  // result registry under "recovery.*" -- unrooted members, pending
  // re-entries, wedged leases, repair backlog, degraded-receiver fraction,
  // and the late-frame rate -- sampled from stream start through the end of
  // the settle window.
  double timeseries_window_s = 0.0;
  // Stitch the live trace stream into per-disruption recovery lifecycles
  // (obs::IncidentLog): phase latencies land in the registry and
  // ChaosResult::incidents. Uses `tracer` when set; otherwise a minimal
  // run-local tracer feeds the analysis (its ring contents are discarded).
  bool incident_analysis = false;
};

struct ChaosResult {
  // End-of-run registry snapshot, flattened (obs::Registry::Flatten()): the
  // "chaos.*" control-plane counters plus the "qoe.*", "reconnect.*" and
  // protocol counters. The runner writes it into its per-cell JSON.
  std::map<std::string, double> registry;
  // Per-disruption lifecycle stats (obs::IncidentLog::FlatStats): counts
  // and per-phase latency percentiles. Empty unless
  // ChaosConfig::incident_analysis.
  std::map<std::string, double> incidents;

  // Starving-time ratio over finalized members (as RunStreamScenario, but
  // from the packet-level ground truth).
  double avg_starving_ratio = 0.0;
  double ci95 = 0.0;
  int members = 0;

  // What the injections actually hit.
  int domain_members_killed = 0;
  int flash_members_killed = 0;
  bool mid_repair_kill_fired = false;
  int join_storm_injected = 0;
  long episodes_started = 0;
  int reconnect_storm_killed = 0;

  // --- degraded-regime QoE (zero unless packet.frame_playback) -------------
  // Mean fraction of finalized members' viewing time spent degraded or
  // stalled; the scenario family's headline metric.
  double degraded_time_fraction = 0.0;
  // Mean completed-episode latency from leaving nominal cadence to
  // regaining it.
  double mean_recovery_to_cadence_s = 0.0;
  long decode_stalls = 0;
  long regime_transitions = 0;
  long dependency_resyncs = 0;
  int permanently_stalled = 0;

  // --- re-entry state machine ----------------------------------------------
  long reentries_scheduled = 0;
  long reentries_attached = 0;
  long reentries_abandoned = 0;
  // Must be zero after the settle window: every re-entry resolved.
  long reentries_pending = 0;

  // --- post-drain health ---------------------------------------------------
  // No lease is held past its expiry (a wedged lock would deadlock
  // switching forever). Must always be true.
  bool zero_wedged_locks = false;
  // Members unrooted at drain end that were still alive, unrooted after the
  // settle window, AND refused by the final placement audit while the
  // rooted tree had spare capacity: orphans the protocol failed to
  // reattach. Stranded-orphan health gates run on this field.
  int unrooted_members = 0;
  // Members the audit could not place because the rooted tree had zero
  // spare slots: with a heavy-tailed capacity mix the overlay can be
  // genuinely full after correlated departures, and no protocol can attach
  // a member to a tree with no open slot. Workload infeasibility, not a
  // protocol failure -- reported, never gated.
  int capacity_starved = 0;
  long final_population = 0;
};

ChaosResult RunChaosScenario(const net::Topology& topology,
                             const ChaosConfig& config);

}  // namespace omcast::exp
