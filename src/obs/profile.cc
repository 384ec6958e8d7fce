#include "obs/profile.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include <algorithm>
#include <cstdio>

namespace omcast::obs {

namespace {

// Microsecond buckets for callback wall time: sub-microsecond dispatches up
// to pathological multi-millisecond callbacks.
std::vector<double> WallBounds() {
  return {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000};
}

// Power-of-two-ish queue depths; overlay sims run from a handful of pending
// events to tens of thousands during churn bursts.
std::vector<double> DepthBounds() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536};
}

// Process peak resident set in bytes; 0 where the platform offers no
// getrusage. Linux reports ru_maxrss in kilobytes, macOS in bytes.
std::uint64_t CurrentPeakRssBytes() {
#if defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss);
#elif defined(__unix__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
#else
  return 0;
#endif
}

}  // namespace

SimProfiler::SimProfiler() : wall_us_(WallBounds()), depth_(DepthBounds()) {
  // Snapshot the process high-water mark so rss_delta_bytes() reports this
  // run's growth, not whatever earlier cells in the grid already touched.
  baseline_rss_bytes_ = CurrentPeakRssBytes();
}

void SimProfiler::BeginEvent(const char* tag, std::size_t queue_depth) {
  current_ = &per_tag_[tag != nullptr ? tag : "untagged"];
  depth_.Observe(static_cast<double>(queue_depth));
  started_ = Clock::now();  // omcast-lint: allow(wallclock)
}

void SimProfiler::EndEvent() {
  if (current_ == nullptr) return;
  const auto elapsed = Clock::now() - started_;  // omcast-lint: allow(wallclock)
  const double us =
      std::chrono::duration<double, std::micro>(elapsed).count();
  ++events_;
  ++current_->count;
  current_->total_us += us;
  current_->max_us = std::max(current_->max_us, us);
  wall_us_.Observe(us);
  current_ = nullptr;
}

void SimProfiler::BeginLoop() {
  if (in_loop_) return;  // nested RunUntil from a callback: outer loop times
  in_loop_ = true;
  loop_start_events_ = events_;
  loop_started_ = Clock::now();  // omcast-lint: allow(wallclock)
}

void SimProfiler::EndLoop() {
  if (!in_loop_) return;
  in_loop_ = false;
  const auto elapsed =
      Clock::now() - loop_started_;  // omcast-lint: allow(wallclock)
  loop_us_ += std::chrono::duration<double, std::micro>(elapsed).count();
  loop_events_ += events_ - loop_start_events_;
}

void SimProfiler::SampleMemory(std::size_t pool_live,
                               std::size_t pool_capacity) {
  pool_live_max_ = std::max(pool_live_max_, pool_live);
  pool_capacity_max_ = std::max(pool_capacity_max_, pool_capacity);
  peak_rss_bytes_ = std::max(peak_rss_bytes_, CurrentPeakRssBytes());
  if (peak_rss_bytes_ > baseline_rss_bytes_)
    rss_delta_bytes_ = peak_rss_bytes_ - baseline_rss_bytes_;
}

void SimProfiler::MergeFrom(const SimProfiler& other) {
  for (const auto& [tag, st] : other.per_tag_) {
    TagStats& mine = per_tag_[tag];
    mine.count += st.count;
    mine.total_us += st.total_us;
    mine.max_us = std::max(mine.max_us, st.max_us);
  }
  wall_us_.MergeFrom(other.wall_us_);
  depth_.MergeFrom(other.depth_);
  events_ += other.events_;
  loop_us_ += other.loop_us_;
  loop_events_ += other.loop_events_;
  peak_rss_bytes_ = std::max(peak_rss_bytes_, other.peak_rss_bytes_);
  rss_delta_bytes_ = std::max(rss_delta_bytes_, other.rss_delta_bytes_);
  pool_live_max_ = std::max(pool_live_max_, other.pool_live_max_);
  pool_capacity_max_ = std::max(pool_capacity_max_, other.pool_capacity_max_);
  runs_ += other.runs_;
}

std::string SimProfiler::FormatTable() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "sim profile: per-event-type dispatch (%d run%s merged)\n",
                runs_, runs_ == 1 ? "" : "s");
  std::string out = buf;
  out += "  tag                             events     total_ms    mean_us"
         "     max_us\n";
  for (const auto& [tag, st] : per_tag_) {
    const double mean_us =
        st.count > 0 ? st.total_us / static_cast<double>(st.count) : 0.0;
    std::snprintf(buf, sizeof(buf), "  %-24s %12llu %12.3f %10.3f %10.3f\n",
                  tag.c_str(), static_cast<unsigned long long>(st.count),
                  st.total_us / 1000.0, mean_us, st.max_us);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  wall_us p50=%.3f p99=%.3f  queue_depth mean=%.1f p99=%.0f "
                "max=%.0f\n",
                wall_us_.Quantile(0.5), wall_us_.Quantile(0.99), depth_.mean(),
                depth_.Quantile(0.99), depth_.max());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  loop wall_ms=%.3f events=%llu rate=%.0f/s\n", loop_us_ / 1000.0,
                static_cast<unsigned long long>(loop_events_),
                events_per_sec());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  memory process_peak_rss_mb=%.1f max_run_rss_delta_mb=%.1f "
                "pool_live_max=%llu pool_capacity_max=%llu\n",
                static_cast<double>(peak_rss_bytes_) / (1024.0 * 1024.0),
                static_cast<double>(rss_delta_bytes_) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(pool_live_max_),
                static_cast<unsigned long long>(pool_capacity_max_));
  out += buf;
  return out;
}

}  // namespace omcast::obs
