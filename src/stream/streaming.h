// Packet-sequence-level streaming model (paper Section 6, Figs. 12-14).
//
// The source streams at packet_rate (10 pkt/s); every member plays back
// buffer_s behind delivery. When a non-leaf member fails abruptly, each of
// its (now orphaned) children spends detect_s noticing and rejoin_s
// re-finding a parent; during that hole it pulls repairs from its recovery
// group (CER with MLC selection and striped cooperative bandwidth, or the
// single-source baseline). Descendants deeper in the failed subtree learn
// via ELN that the loss is upstream: they do not rejoin and do not issue
// duplicate repairs -- they receive whatever their orphaned ancestor
// recovers, so they inherit its starving time (propagation is milliseconds
// against multi-second stalls).
//
// Each member's starving time ratio is (total playback stall) / (total view
// time since playback began); the figures report the average over members.
//
// Modelling notes (documented substitutions):
//   * only failure-induced losses are modelled, as in the paper;
//   * a recovery node's residual bandwidth (uniform 0-9 pkt/s) is not
//     contended across concurrent outages;
//   * an outage's stall is capped by the member's remaining lifetime.
#pragma once

#include <vector>

#include "core/cer/group.h"
#include "core/cer/recovery.h"
#include "overlay/session.h"
#include "rand/rng.h"
#include "util/stats.h"

namespace omcast::stream {

// The stream rate, detection and rejoin times and the residual bandwidth
// range are the paper's (core::kPaperPacketRate and its neighbours).
struct StreamParams {
  double buffer_s = 5.0;  // playback buffer (50 packets at the paper's rate)
  int recovery_group_size = 3;
  core::GroupSelection selection = core::GroupSelection::kMlc;
  core::RecoveryMode mode = core::RecoveryMode::kCooperative;
};

class StreamingLayer {
 public:
  // Installs hooks on `session`; must be constructed before the run starts
  // and outlive it.
  StreamingLayer(overlay::Session& session, StreamParams params,
                 std::uint64_t seed);

  // Members qualify for the starving-ratio average when they joined at/after
  // `begin` - 0 and departed within [begin, end].
  void SetMeasurementWindow(double begin_s, double end_s);

  // Average starving time ratio (0..1) over qualifying members.
  const util::RunningStat& ratio_stat() const { return ratio_stat_; }
  const std::vector<double>& ratio_samples() const { return ratio_samples_; }

  long outages_simulated() const { return outages_; }
  long repairs_fully_recovered() const { return fully_recovered_; }
  const util::RunningStat& aggregate_rate_stat() const { return rate_stat_; }
  // Per-outage playback stall of the orphan (before lifetime capping).
  const util::RunningStat& outage_starving_stat() const {
    return outage_starving_stat_;
  }

 private:
  void OnDeparture(overlay::NodeId failed);
  void OnMemberDeparted(const overlay::Member& m);
  double ResidualFraction(overlay::NodeId id);
  void AddStarving(overlay::NodeId id, double stall_s);

  overlay::Session& session_;
  StreamParams params_;
  rnd::Rng rng_;
  std::vector<double> residual_fraction_;  // per node; -1 == not drawn yet
  std::vector<double> starving_s_;         // per node accumulated stall
  util::RunningStat ratio_stat_;
  util::RunningStat rate_stat_;
  util::RunningStat outage_starving_stat_;
  std::vector<double> ratio_samples_;
  double window_begin_ = 0.0;
  double window_end_ = 0.0;
  bool window_set_ = false;
  long outages_ = 0;
  long fully_recovered_ = 0;
};

}  // namespace omcast::stream
