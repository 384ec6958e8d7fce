// Observability shared by the scenario and chaos runners: the tracer and
// incident wiring, and the recovery-curve sampler.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "obs/incident.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "overlay/session.h"
#include "sim/simulator.h"

namespace omcast::exp {

// Attaches a run's tracer and profiler (either may be null). With incident
// analysis, an obs::IncidentLog rides the live trace stream; without a
// caller tracer, a run-local single-slot one feeds it (only the stream
// matters, its ring is discarded). Must outlive the run.
class RunObservability {
 public:
  RunObservability(sim::Simulator& simulator, overlay::Session& session,
                   obs::Tracer* tracer, obs::SimProfiler* profiler,
                   bool incident_analysis)
      : caller_tracer_(tracer),
        feed_(!incident_analysis ? nullptr
              : tracer != nullptr ? tracer
                                  : &local_tracer_) {
    if (feed_ != nullptr) feed_->AddSink(&incident_log_);
    session.SetTracer(feed_ != nullptr ? feed_ : tracer);
    simulator.SetProfiler(profiler);
  }
  RunObservability(const RunObservability&) = delete;
  RunObservability& operator=(const RunObservability&) = delete;

  // Call once, after the run: closes the incident log at `now` and returns
  // its FlatStats() (empty without incident analysis). A non-null
  // `registry` also receives the incident counters and histograms and a
  // caller tracer's ring evictions ("obs.trace.evicted").
  std::map<std::string, double> Finish(double now, obs::Registry* registry) {
    std::map<std::string, double> stats;
    if (feed_ != nullptr) {
      incident_log_.Finalize(now);
      stats = incident_log_.FlatStats();
      if (registry != nullptr) incident_log_.ExportTo(*registry);
      feed_->RemoveSink(&incident_log_);
    }
    if (registry != nullptr && caller_tracer_ != nullptr)
      registry->Count("obs.trace.evicted",
                      static_cast<double>(caller_tracer_->dropped()));
    return stats;
  }

 private:
  obs::Tracer* const caller_tracer_;
  obs::Tracer local_tracer_{/*capacity=*/1};
  obs::IncidentLog incident_log_;
  obs::Tracer* const feed_;  // feeds incident_log_; null without analysis
};

// One tick per window of sim time, the first at start + window, re-armed
// while the next tick still falls at or before `end`. Each tick stamps the
// window that just ended (its start time), so the curves line up on the
// absolute window grid whatever the start time. Every tick samples the
// recovery.{unrooted_members,reentries_pending,wedged_leases} gauges, then
// runs the caller's extra sampling (the chaos runner's stream series) on
// the same tick.
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
