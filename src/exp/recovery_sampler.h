// Recovery-curve sampler shared by the scenario and chaos runners.
//
// One tick per window of sim time, the first at start + window, re-armed
// while the next tick still falls at or before `end`. Each tick stamps the
// window that just ended (its start time), so the curves line up on the
// absolute window grid whatever the start time. Every tick samples the
// recovery.{unrooted_members,reentries_pending,wedged_leases} gauges, then
// runs the caller's extra sampling (the chaos runner's stream series) on
// the same tick.
#pragma once

#include <functional>

#include "obs/registry.h"
#include "overlay/session.h"
#include "sim/simulator.h"

namespace omcast::exp {

class RecoverySampler {
 public:
  // Runs after the shared gauges on every tick, with the start time of the
  // window that just ended.
  using Extra = std::function<void(double window_start)>;

  // Registers the three gauges in `registry` and schedules the first tick
  // under `tag` (a string literal; profiler label only). The simulator,
  // session and registry must outlive the run, and so must this object: the
  // scheduled ticks point at it.
  RecoverySampler(sim::Simulator& simulator, overlay::Session& session,
                  obs::Registry& registry, double window_s, double start,
                  double end, const char* tag, Extra extra = nullptr);
  RecoverySampler(const RecoverySampler&) = delete;
  RecoverySampler& operator=(const RecoverySampler&) = delete;

 private:
  void Tick();

  sim::Simulator& simulator_;
  overlay::Session& session_;
  const double window_s_ = 0.0;
  const double end_ = 0.0;
  const char* const tag_ = nullptr;
  Extra extra_;
  obs::TimeSeries& unrooted_;
  obs::TimeSeries& pending_;
  obs::TimeSeries& wedged_;
};

}  // namespace omcast::exp
