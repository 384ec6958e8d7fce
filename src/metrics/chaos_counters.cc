#include "metrics/chaos_counters.h"

namespace omcast::metrics {

obs::Registry CollectChaosRegistry(const sim::FaultPlane* fault_plane,
                                   const overlay::HeartbeatService* heartbeat,
                                   const core::RostProtocol* rost,
                                   const stream::PacketLevelStream* stream,
                                   sim::Time now) {
  obs::Registry reg;
  const auto count = [&reg](const char* name, long v) {
    reg.Count(name, static_cast<double>(v));
  };
  if (fault_plane != nullptr) {
    count("chaos.messages_sent", fault_plane->messages_sent());
    count("chaos.messages_dropped", fault_plane->messages_dropped());
    count("chaos.messages_duplicated", fault_plane->messages_duplicated());
    count("chaos.messages_delivered", fault_plane->messages_delivered());
  }
  if (heartbeat != nullptr) {
    count("chaos.heartbeats_sent", heartbeat->heartbeats_sent());
    count("chaos.detections", heartbeat->detections());
    count("chaos.false_suspicions", heartbeat->false_suspicions());
    reg.SetGauge("chaos.mean_detection_latency_s",
                 heartbeat->detection_latency().count() > 0
                     ? heartbeat->detection_latency().mean()
                     : 0.0);
  }
  if (rost != nullptr) {
    count("chaos.leases_granted", rost->leases_granted());
    count("chaos.leases_released", rost->leases_released());
    count("chaos.leases_expired", rost->leases_expired());
    count("chaos.leases_outstanding", rost->leases_outstanding());
    count("chaos.wedged_leases", rost->WedgedLeases(now));
    count("chaos.lock_timeouts", rost->lock_timeouts());
    count("chaos.lock_retries", rost->lock_retries());
    count("chaos.handshake_aborts", rost->handshake_aborts());
    count("chaos.preempt_joins", rost->preempt_joins());
  }
  if (stream != nullptr) {
    count("chaos.repairs_scheduled", stream->repairs_scheduled());
    count("chaos.eln_sent", stream->eln_notifications_sent());
    count("chaos.stripe_failovers", stream->stripe_failovers());
    count("chaos.short_group_fallbacks", stream->short_group_fallbacks());
    // Frame-playback QoE (all zero unless PacketSimParams.frame_playback):
    // the degraded-regime scenario family's headline metrics.
    count("qoe.decode_stalls", stream->decode_stalls());
    count("qoe.regime_transitions", stream->regime_transitions());
    count("qoe.dependency_resyncs", stream->dependency_resyncs());
    count("qoe.permanently_stalled", stream->permanently_stalled());
    reg.SetGauge("qoe.degraded_time_fraction",
                 stream->degraded_fraction_stat().count() > 0
                     ? stream->degraded_fraction_stat().mean()
                     : 0.0);
    reg.SetGauge("qoe.mean_recovery_to_cadence_s",
                 stream->recovery_latency_stat().count() > 0
                     ? stream->recovery_latency_stat().mean()
                     : 0.0);
  }
  return reg;
}

}  // namespace omcast::metrics
