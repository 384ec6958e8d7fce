// The CER loss-repair protocol and its per-outage packet model
// (paper Sections 4.2 and 6).
//
// When a member's parent fails, the member needs detect_s to notice and
// rejoin_s to re-find a parent (5 s + 10 s in the paper); packets generated
// during that hole only reach it through recovery nodes. The member sends a
// full-rate repair request to the first (nearest) recovery node; a node with
// residual bandwidth e1 < 1 serves the sequence stripe (n mod 100) < 100*e1
// and forwards the request to the next node, which serves the next stripe,
// until the stripes cover the full rate or the chain is exhausted. Dead or
// same-failure-affected nodes NACK and forward. Under single-source
// recovery (the baseline of Fig. 14) only the first usable node serves, so
// the repair rate is its residual bandwidth alone.
//
// SimulateOutage() evaluates one such outage at packet granularity: hole
// packets are served in sequence order at the aggregate stripe rate, each
// packet available to the recovery overlay no earlier than its generation
// time, and each counting as starving if it misses its playback deadline
// (generation time + buffer). This is exact for the protocol above while
// costing O(hole packets) instead of simulating every streamed packet.
#pragma once

#include <vector>

namespace omcast::core {

// The paper's stream and outage numbers (Section 6): a 10 pkt/s stream, 5 s
// to detect a parent failure and 10 s to find a new parent, and a residual
// (helping) bandwidth uniform in [0, 9] pkt/s per member. The analytic model
// (SimulateOutage, stream::StreamingLayer) and its per-packet ground truth
// (stream::PacketLevelStream) take them from here.
inline constexpr double kPaperPacketRate = 10.0;
inline constexpr double kPaperDetectS = 5.0;
inline constexpr double kPaperRejoinS = 10.0;
inline constexpr double kPaperResidualLoPkts = 0.0;
inline constexpr double kPaperResidualHiPkts = 9.0;

// How the repair chain uses the recovery nodes' residual bandwidths.
enum class RecoveryMode {
  kCooperative,   // CER: stripes aggregate until they cover the full rate
  kSingleSource,  // baseline: first usable node's residual bandwidth only
};

// One entry of the (network-distance-ordered) recovery chain.
struct RecoverySource {
  // False when the node is dead or disrupted by the same upstream failure:
  // it NACKs and forwards the request.
  bool usable = false;
  // Residual bandwidth as a fraction of the full stream rate (paper:
  // uniform 0-9 pkt/s against a 10 pkt/s stream => 0.0-0.9).
  double rate_fraction = 0.0;
  // One-way latency from the previous chain hop, seconds (milliseconds in
  // practice; kept for fidelity of the service start time).
  double hop_latency_s = 0.0;
};

struct OutageSpec {
  double detect_s = kPaperDetectS;
  double rejoin_s = kPaperRejoinS;
  double buffer_s = 5.0;       // playback buffer == deadline slack
  double packet_rate = kPaperPacketRate;  // packets per second
  RecoveryMode mode = RecoveryMode::kCooperative;
  std::vector<RecoverySource> chain;
};

struct OutageResult {
  double starving_s = 0.0;      // total playback stall caused by this outage
  double aggregate_rate = 0.0;  // repair rate actually assembled (<= 1)
  int packets_total = 0;
  int packets_recovered = 0;
  int packets_lost = 0;
  double service_start_s = 0.0;  // when the first stripe began serving
};

OutageResult SimulateOutage(const OutageSpec& spec);

}  // namespace omcast::core
