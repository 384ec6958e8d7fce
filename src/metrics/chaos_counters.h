// Aggregated resilience counters for chaos runs.
//
// The chaos harness (exp/chaos.h) wires a FaultPlane through every control
// path -- heartbeats, ROST lock leases, ELN notifications -- and each
// component keeps its own counters. CollectChaosRegistry snapshots them into
// an obs::Registry under "chaos.*" names, the unified metrics path that also
// feeds the runner's per-cell JSON export; callers read
// ChaosResult::registry under those names.
#pragma once

#include "core/rost/rost.h"
#include "obs/registry.h"
#include "overlay/heartbeat.h"
#include "sim/fault_plane.h"
#include "stream/packet_sim.h"

namespace omcast::metrics {

// Snapshots the counters of whichever components the run used into the
// unified registry under "chaos.*" names; any pointer may be null (its
// section is left out). `now` is needed to evaluate lease wedging.
obs::Registry CollectChaosRegistry(const sim::FaultPlane* fault_plane,
                                   const overlay::HeartbeatService* heartbeat,
                                   const core::RostProtocol* rost,
                                   const stream::PacketLevelStream* stream,
                                   sim::Time now);

}  // namespace omcast::metrics
