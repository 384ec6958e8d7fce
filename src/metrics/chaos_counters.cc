#include "metrics/chaos_counters.h"

#include <sstream>

namespace omcast::metrics {

obs::Registry CollectChaosRegistry(const sim::FaultPlane* fault_plane,
                                   const overlay::HeartbeatService* heartbeat,
                                   const core::RostProtocol* rost,
                                   const overlay::GossipService* gossip,
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
  if (gossip != nullptr)
    count("chaos.stale_view_rejections", gossip->stale_rejections());
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

ChaosCounters CountersFromRegistry(const obs::Registry& registry) {
  const auto get = [&registry](const char* name) {
    return static_cast<long>(registry.CounterValue(name));
  };
  ChaosCounters c;
  c.messages_sent = get("chaos.messages_sent");
  c.messages_dropped = get("chaos.messages_dropped");
  c.messages_duplicated = get("chaos.messages_duplicated");
  c.messages_delivered = get("chaos.messages_delivered");
  c.heartbeats_sent = get("chaos.heartbeats_sent");
  c.detections = get("chaos.detections");
  c.false_suspicions = get("chaos.false_suspicions");
  const auto it = registry.gauges().find("chaos.mean_detection_latency_s");
  c.mean_detection_latency_s = it != registry.gauges().end() ? it->second : 0.0;
  c.leases_granted = get("chaos.leases_granted");
  c.leases_released = get("chaos.leases_released");
  c.leases_expired = get("chaos.leases_expired");
  c.leases_outstanding = get("chaos.leases_outstanding");
  c.wedged_leases = get("chaos.wedged_leases");
  c.lock_timeouts = get("chaos.lock_timeouts");
  c.lock_retries = get("chaos.lock_retries");
  c.handshake_aborts = get("chaos.handshake_aborts");
  c.preempt_joins = get("chaos.preempt_joins");
  c.stale_view_rejections = get("chaos.stale_view_rejections");
  c.repairs_scheduled = get("chaos.repairs_scheduled");
  c.eln_sent = get("chaos.eln_sent");
  c.stripe_failovers = get("chaos.stripe_failovers");
  c.short_group_fallbacks = get("chaos.short_group_fallbacks");
  return c;
}

std::string FormatChaosCounters(const ChaosCounters& c) {
  std::ostringstream os;
  os << "control plane: sent " << c.messages_sent << ", dropped "
     << c.messages_dropped << ", duplicated " << c.messages_duplicated
     << ", delivered " << c.messages_delivered << "\n"
     << "heartbeats:    sent " << c.heartbeats_sent << ", detections "
     << c.detections << ", false suspicions " << c.false_suspicions
     << ", mean latency " << c.mean_detection_latency_s << " s\n"
     << "lock leases:   granted " << c.leases_granted << ", released "
     << c.leases_released << ", expired " << c.leases_expired
     << ", outstanding " << c.leases_outstanding << ", wedged "
     << c.wedged_leases << "\n"
     << "lock control:  timeouts " << c.lock_timeouts << ", retries "
     << c.lock_retries << ", aborts " << c.handshake_aborts << "\n"
     << "join:          preempt joins " << c.preempt_joins << "\n"
     << "gossip:        stale rejections " << c.stale_view_rejections << "\n"
     << "repair:        scheduled " << c.repairs_scheduled << ", ELN sent "
     << c.eln_sent << ", stripe failovers " << c.stripe_failovers
     << ", short groups " << c.short_group_fallbacks << "\n";
  return os.str();
}

}  // namespace omcast::metrics
