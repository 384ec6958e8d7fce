// Aggregated resilience counters for chaos runs.
//
// The chaos harness (exp/chaos.h) wires a FaultPlane through every control
// path -- heartbeats, ROST lock leases, gossip slices, ELN notifications --
// and each component keeps its own counters. The primary snapshot is an
// obs::Registry (CollectChaosRegistry), the unified metrics path that also
// feeds the runner's per-cell JSON export; the ChaosCounters struct is kept
// as a thin typed view over that registry (CountersFromRegistry) so
// existing call sites and tests keep their field-level assertions.
#pragma once

#include <string>

#include "core/rost/rost.h"
#include "obs/registry.h"
#include "overlay/gossip.h"
#include "overlay/heartbeat.h"
#include "sim/fault_plane.h"
#include "stream/packet_sim.h"

namespace omcast::metrics {

struct ChaosCounters {
  // sim::FaultPlane -- what the control plane actually did to messages.
  long messages_sent = 0;
  long messages_dropped = 0;
  long messages_duplicated = 0;
  long messages_delivered = 0;

  // overlay::HeartbeatService -- failure detection under loss.
  long heartbeats_sent = 0;
  long detections = 0;
  long false_suspicions = 0;
  double mean_detection_latency_s = 0.0;

  // core::RostProtocol lease path -- locking under loss. The identity
  // granted == released + expired + outstanding always holds; wedged
  // (held past expiry, i.e. a reaping bug) must be zero.
  long leases_granted = 0;
  long leases_released = 0;
  long leases_expired = 0;
  long leases_outstanding = 0;
  long wedged_leases = 0;
  long lock_timeouts = 0;
  long lock_retries = 0;
  long handshake_aborts = 0;
  // Joins that succeeded only by displacing a weaker rooted leaf (the
  // saturated-tree fallback after a correlated kill strands the overlay's
  // spare capacity in detached fragments).
  long preempt_joins = 0;

  // overlay::GossipService -- view staleness tolerance.
  long stale_view_rejections = 0;

  // stream::PacketLevelStream -- CER repair under server churn.
  long repairs_scheduled = 0;
  long eln_sent = 0;
  long stripe_failovers = 0;
  long short_group_fallbacks = 0;
};

// Snapshots the counters of whichever components the run used into the
// unified registry under "chaos.*" names; any pointer may be null (its
// section stays zero). `now` is needed to evaluate lease wedging.
obs::Registry CollectChaosRegistry(const sim::FaultPlane* fault_plane,
                                   const overlay::HeartbeatService* heartbeat,
                                   const core::RostProtocol* rost,
                                   const overlay::GossipService* gossip,
                                   const stream::PacketLevelStream* stream,
                                   sim::Time now);

// Typed view over a CollectChaosRegistry snapshot (or any registry using
// the same "chaos.*" names).
ChaosCounters CountersFromRegistry(const obs::Registry& registry);

// Multi-line human-readable dump (examples / debugging).
std::string FormatChaosCounters(const ChaosCounters& c);

}  // namespace omcast::metrics
