#include "exp/run_observability.h"

#include <utility>

namespace omcast::exp {

RecoverySampler::RecoverySampler(sim::Simulator& simulator,
                                 overlay::Session& session,
                                 obs::Registry& registry, double window_s,
                                 double start, double end, const char* tag,
                                 Extra extra)
    : simulator_(simulator),
      session_(session),
      window_s_(window_s),
      end_(end),
      tag_(tag),
      extra_(std::move(extra)),
      unrooted_(registry.Series("recovery.unrooted_members",
                                obs::TimeSeries::Kind::kGauge, window_s)),
      pending_(registry.Series("recovery.reentries_pending",
                               obs::TimeSeries::Kind::kGauge, window_s)),
      wedged_(registry.Series("recovery.wedged_leases",
                              obs::TimeSeries::Kind::kGauge, window_s)) {
  simulator_.ScheduleAt(start + window_s_, [this] { Tick(); }, tag_);
}

void RecoverySampler::Tick() {
  const double now = simulator_.now();
  const double wt = now - window_s_;  // start of the window that just ended
  long unrooted_n = 0;
  for (overlay::NodeId id : session_.alive_members())
    if (!session_.tree().IsRooted(id)) ++unrooted_n;
  unrooted_.Sample(wt, static_cast<double>(unrooted_n));
  pending_.Sample(wt, static_cast<double>(session_.reentries_pending()));
  wedged_.Sample(wt,
                 static_cast<double>(session_.protocol().WedgedLeases(now)));
  if (extra_) extra_(wt);
  if (now + window_s_ <= end_ + 1e-9)
    simulator_.ScheduleAfter(window_s_, [this] { Tick(); }, tag_);
}

}  // namespace omcast::exp
