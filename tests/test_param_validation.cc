// Parameter-validation death tests: every config struct with a Validate
// hook (or constructor CHECKs) must reject nonsensical values loudly at
// construction instead of producing a silently wrong simulation.
#include <gtest/gtest.h>

#include <memory>

#include "core/rost/rost.h"
#include "net/topology.h"
#include "overlay/heartbeat.h"
#include "overlay/session.h"
#include "proto/clique/clique.h"
#include "proto/min_depth.h"
#include "sim/simulator.h"
#include "stream/packet_sim.h"

namespace omcast {
namespace {

TEST(SessionParamsDeathTest, RejectsNonsense) {
  overlay::SessionParams starved;
  starved.root_bandwidth = 0.5;  // half the stream rate
  EXPECT_DEATH(overlay::ValidateSessionParams(starved), "CHECK failed");

  overlay::SessionParams blind;
  blind.candidate_sample_size = 0;
  EXPECT_DEATH(overlay::ValidateSessionParams(blind), "CHECK failed");

  overlay::SessionParams busy;
  busy.join_retry_delay_s = 0.0;  // would busy-loop failed joins
  EXPECT_DEATH(overlay::ValidateSessionParams(busy), "CHECK failed");

  overlay::SessionParams timewarp;
  timewarp.rejoin_delay_s = -1.0;
  EXPECT_DEATH(overlay::ValidateSessionParams(timewarp), "CHECK failed");
}

TEST(PacketSimParamsDeathTest, RejectsNonsense) {
  stream::PacketSimParams p;
  p.packet_rate = 0.0;
  EXPECT_DEATH(stream::ValidatePacketSimParams(p), "CHECK failed");

  stream::PacketSimParams unbuffered;
  unbuffered.buffer_s = 0.0;
  EXPECT_DEATH(stream::ValidatePacketSimParams(unbuffered), "CHECK failed");

  stream::PacketSimParams psychic;
  psychic.detect_s = -1.0;  // detection before the failure
  EXPECT_DEATH(stream::ValidatePacketSimParams(psychic), "CHECK failed");

  stream::PacketSimParams groupless;
  groupless.recovery_group_size = 0;
  EXPECT_DEATH(stream::ValidatePacketSimParams(groupless), "CHECK failed");

  stream::PacketSimParams inverted;
  inverted.residual_lo_pkts = 5.0;
  inverted.residual_hi_pkts = 1.0;
  EXPECT_DEATH(stream::ValidatePacketSimParams(inverted), "CHECK failed");
}

TEST(PacketSimParamsDeathTest, RejectsDetectionLongerThanRejoin) {
  // The session's outage (rejoin_delay_s) must cover the stream's detection
  // phase, or repair would start after the orphan already reattached.
  rnd::Rng topo_rng(1);
  const net::Topology topology =
      net::Topology::Generate(net::TinyTopologyParams(), topo_rng);
  sim::Simulator sim;
  overlay::SessionParams sp;
  sp.rejoin_delay_s = 1.0;
  overlay::Session session(sim, topology,
                           std::make_unique<proto::MinDepthProtocol>(), sp, 1);
  stream::PacketSimParams pp;  // detect_s = 5 > rejoin_delay_s = 1
  EXPECT_DEATH(stream::PacketLevelStream(session, pp, 1), "CHECK failed");
}

TEST(RostParamsDeathTest, RejectsNonsense) {
  core::RostParams p;
  p.switching_interval_s = 0.0;
  EXPECT_DEATH(core::RostProtocol{p}, "CHECK failed");

  core::RostParams no_retry;
  no_retry.lock_retry_delay_s = 0.0;
  EXPECT_DEATH(core::RostProtocol{no_retry}, "CHECK failed");

  // A lease no longer than the request timeout would expire before a
  // just-in-time grant could cover the swap.
  core::RostParams short_lease;
  short_lease.lock_lease_s = short_lease.lock_request_timeout_s;
  EXPECT_DEATH(core::RostProtocol{short_lease}, "CHECK failed");

  core::RostParams no_backoff;
  no_backoff.lock_retry_max_backoff = 0;
  EXPECT_DEATH(core::RostProtocol{no_backoff}, "CHECK failed");
}

TEST(CliqueParamsDeathTest, RejectsNonsense) {
  proto::CliqueParams solo;
  solo.max_cluster_size = 1;  // a delegate with no room for any leaf
  EXPECT_DEATH(proto::CliqueProtocol{solo}, "CHECK failed");

  proto::CliqueParams inverted;
  inverted.min_cluster_size = inverted.max_cluster_size + 1;
  EXPECT_DEATH(proto::CliqueProtocol{inverted}, "CHECK failed");

  proto::CliqueParams empty;
  empty.min_cluster_size = 0;
  EXPECT_DEATH(proto::CliqueProtocol{empty}, "CHECK failed");

  proto::CliqueParams busy;
  busy.election_period_s = 0.0;  // would busy-loop maintenance rounds
  EXPECT_DEATH(proto::CliqueProtocol{busy}, "CHECK failed");

  proto::CliqueParams impatient;
  impatient.promotion_timeout_s = 0.0;  // dissolves before any claim lands
  EXPECT_DEATH(proto::CliqueProtocol{impatient}, "CHECK failed");

  proto::CliqueParams jittery;
  jittery.stability_margin = -1.0;
  EXPECT_DEATH(proto::CliqueProtocol{jittery}, "CHECK failed");
}

TEST(HeartbeatParamsDeathTest, RejectsNonsense) {
  rnd::Rng topo_rng(1);
  const net::Topology topology =
      net::Topology::Generate(net::TinyTopologyParams(), topo_rng);
  auto make = [&](overlay::HeartbeatParams hp) {
    sim::Simulator sim;
    overlay::SessionParams sp;
    sp.external_failure_detection = true;
    overlay::Session session(
        sim, topology, std::make_unique<proto::MinDepthProtocol>(), sp, 1);
    overlay::HeartbeatService hb(session, hp, 1);
  };
  overlay::HeartbeatParams silent;
  silent.period_s = 0.0;
  EXPECT_DEATH(make(silent), "CHECK failed");
  overlay::HeartbeatParams jumpy;
  jumpy.miss_threshold = 0;
  EXPECT_DEATH(make(jumpy), "CHECK failed");
}

}  // namespace
}  // namespace omcast
