#include "stream/streaming.h"

#include <algorithm>

#include "util/check.h"

namespace omcast::stream {

using overlay::Member;
using overlay::NodeId;
using overlay::Session;

StreamingLayer::StreamingLayer(Session& session, StreamParams params,
                               std::uint64_t seed)
    : session_(session), params_(params), rng_(seed) {
  util::Check(params_.recovery_group_size >= 1,
              "recovery group needs at least one member");
  session_.hooks().AddOnDeparture([this](NodeId failed) { OnDeparture(failed); });
  session_.hooks().AddOnMemberDeparted(
      [this](const Member& m) { OnMemberDeparted(m); });
}

void StreamingLayer::SetMeasurementWindow(double begin_s, double end_s) {
  util::Check(begin_s < end_s, "empty measurement window");
  window_begin_ = begin_s;
  window_end_ = end_s;
  window_set_ = true;
}

double StreamingLayer::ResidualFraction(NodeId id) {
  if (residual_fraction_.size() <= static_cast<std::size_t>(id))
    residual_fraction_.resize(static_cast<std::size_t>(id) + 1, -1.0);
  double& f = residual_fraction_[static_cast<std::size_t>(id)];
  if (f < 0.0)
    f = rng_.Uniform(core::kPaperResidualLoPkts, core::kPaperResidualHiPkts) /
        core::kPaperPacketRate;
  return f;
}

void StreamingLayer::AddStarving(NodeId id, double stall_s) {
  if (starving_s_.size() <= static_cast<std::size_t>(id))
    starving_s_.resize(static_cast<std::size_t>(id) + 1, 0.0);
  starving_s_[static_cast<std::size_t>(id)] += stall_s;
}

void StreamingLayer::OnDeparture(NodeId failed) {
  overlay::Tree& tree = session_.tree();
  const sim::Time now = session_.simulator().now();
  // Each orphaned child runs the recovery protocol; its whole subtree
  // inherits the resulting stall (ELN suppresses duplicate recoveries).
  for (const NodeId orphan : tree.ChildrenOf(failed)) {
    std::vector<NodeId> group = core::SelectRecoveryGroup(
        session_, orphan, params_.recovery_group_size, params_.selection);

    core::OutageSpec spec;  // the paper's rate, detection and rejoin times
    spec.buffer_s = params_.buffer_s;
    spec.mode = params_.mode;
    NodeId prev = orphan;
    for (NodeId g : group) {
      core::RecoverySource src;
      // A recovery node disrupted by the same failure has no data: NACK.
      src.usable = tree.Alive(g) &&
                   !tree.IsInSubtreeOf(g, failed) && tree.IsRooted(g);
      src.rate_fraction = src.usable ? ResidualFraction(g) : 0.0;
      src.hop_latency_s = session_.DelayMs(prev, g) / 1000.0;
      spec.chain.push_back(src);
      prev = g;
    }

    const core::OutageResult outage = core::SimulateOutage(spec);
    ++outages_;
    rate_stat_.Add(outage.aggregate_rate);
    outage_starving_stat_.Add(outage.starving_s);
    if (outage.packets_lost == 0) ++fully_recovered_;
    if (outage.starving_s <= 0.0) continue;

    const auto charge = [&](NodeId member) {
      if (!tree.Alive(member)) return;
      const Member& mm = tree.Get(member);
      // A member cannot starve past its own departure.
      const double remaining = mm.join_time + mm.lifetime - now;
      AddStarving(member, std::min(outage.starving_s, std::max(0.0, remaining)));
    };
    charge(orphan);
    tree.ForEachDescendant(orphan, charge);
  }
}

void StreamingLayer::OnMemberDeparted(const Member& m) {
  if (!window_set_) return;
  const sim::Time now = session_.simulator().now();
  if (now < window_begin_ || now > window_end_) return;
  if (m.join_time < 0.0) return;  // prepopulated: no full playback history
  const double view_time = m.lifetime - params_.buffer_s;
  if (view_time <= 0.0) return;  // departed before playback began
  double stall = 0.0;
  if (static_cast<std::size_t>(m.id) < starving_s_.size())
    stall = starving_s_[static_cast<std::size_t>(m.id)];
  const double ratio = std::min(1.0, stall / view_time);
  ratio_stat_.Add(ratio);
  ratio_samples_.push_back(ratio);
}

}  // namespace omcast::stream
