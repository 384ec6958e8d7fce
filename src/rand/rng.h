// Seeded random-number substrate. Every stochastic component takes an Rng&
// (or a seed to build one) so that experiments are reproducible and
// multi-seed confidence intervals (paper Fig. 14) are possible.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "util/check.h"

namespace omcast::rnd {

// MT19937-64, the engine the C++ standard names std::mt19937_64: the
// standard fixes its seeding and its output sequence ([rand.eng.mers]), so
// this one emits exactly std::mt19937_64's outputs for every seed. It exists
// for speed: libstdc++'s twist branches on data (see Twist in rng.cc).
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kWords; ++i)
      x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
  }

  result_type operator()() {
    if (next_ == kWords) Refill();
    result_type z = x_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kWords = 312;
  static constexpr std::size_t kMiddle = 156;

  // Regenerates all kWords words (the standard's transition), out of line:
  // it runs once per kWords outputs, and inlining it into every draw site
  // only grows the hot code around them.
  void Refill();

  std::array<std::uint64_t, kWords> x_{};
  std::size_t next_ = kWords;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform integer in [0, n), n > 0. This is libstdc++'s bounded draw for
  // a 64-bit engine (Lemire's multiply-shift, rejecting only when the low
  // word falls below (2^64 - n) mod n), so it returns what
  // std::uniform_int_distribution returns and consumes the same outputs.
  std::uint64_t Below(std::uint64_t n) {
    using Wide = unsigned __int128;
    Wide product = static_cast<Wide>(engine_()) * n;
    auto low = static_cast<std::uint64_t>(product);
    if (low < n) [[unlikely]] {
      const std::uint64_t threshold = (0 - n) % n;
      while (low < threshold) {
        product = static_cast<Wide>(engine_()) * n;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<std::uint64_t>(product >> 64);
  }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    util::Check(lo <= hi, "Uniform: lo <= hi");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Uniform integer in [lo, hi] inclusive. The span is taken in 64-bit
  // unsigned arithmetic, as libstdc++ takes it.
  int UniformInt(int lo, int hi) {
    util::Check(lo <= hi, "UniformInt: lo <= hi");
    const auto base = static_cast<std::uint64_t>(lo);
    return static_cast<int>(
        base + Below(static_cast<std::uint64_t>(hi) - base + 1));
  }

  std::size_t UniformIndex(std::size_t n) {
    util::Check(n > 0, "UniformIndex: n > 0");
    return Below(n);
  }

  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  // Exponential with the given mean (inter-arrival times of Poisson
  // arrivals use mean = 1/lambda).
  double ExponentialMean(double mean) {
    util::Check(mean > 0.0, "ExponentialMean: mean > 0");
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  double Lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  template <typename T>
  void Shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  // Samples up to `k` distinct elements of `v` uniformly (partial
  // Fisher-Yates); order of the returned sample is random.
  template <typename T>
  std::vector<T> SampleWithoutReplacement(std::vector<T> v, std::size_t k) {
    SampleWithoutReplacementInPlace(v, k);
    return v;
  }

  // The same sample from the same draws, in the caller's buffer: `v` holds
  // the population on entry and the sample on return, and keeps its
  // capacity, so a caller that refills one buffer allocates nothing.
  template <typename T>
  void SampleWithoutReplacementInPlace(std::vector<T>& v, std::size_t k) {
    if (k >= v.size()) {
      Shuffle(v);
      return;
    }
    for (std::size_t i = 0; i < k; ++i)
      std::swap(v[i], v[i + Below(v.size() - i)]);
    v.resize(k);
  }

  // SampleWithoutReplacement without copying the population: O(k) time and
  // space instead of O(|v|), from the IDENTICAL variate sequence, so a call
  // site can switch between the overloads without moving any later draw.
  template <typename T>
  std::vector<T> SampleWithoutReplacementFrom(const std::vector<T>& v,
                                              std::size_t k) {
    std::vector<T> out;
    out.reserve(std::min(k, v.size()));
    VisitSampleWithoutReplacementFrom(v, k, [&out](const T& x) {
      out.push_back(x);
      return true;
    });
    return out;
  }

  // Hands `visit` the elements SampleWithoutReplacementFrom(v, k) returns,
  // in order, until `visit` returns false. The elements after that are
  // never resolved, but their bounded draws are still made, so the engine
  // ends where the full call leaves it and the caller's next draw does not
  // depend on where it stopped. `visit` must not sample from any Rng: the
  // override table below is per-thread scratch.
  //
  // The partial Fisher-Yates swaps are replayed through that table instead
  // of a mutable copy of `v` (candidate sampling at 10^6 members would copy
  // 8MB per join). It is flat open addressing (index -> displaced value),
  // so each replayed swap is O(1) expected; it is epoch-stamped, so stale
  // cells retire by an epoch bump and a call allocates and clears nothing
  // at steady state.
  template <typename T, typename Visit>
  void VisitSampleWithoutReplacementFrom(const std::vector<T>& v,
                                         std::size_t k, Visit&& visit) {
    if (k >= v.size()) {
      std::vector<T> all = SampleWithoutReplacement(v, k);
      for (const T& x : all)
        if (!visit(x)) break;
      return;
    }
    using Cell = typename OverrideTable<T>::Cell;
    OverrideTable<T>& table = OverrideTable<T>::ForThisThread();
    std::vector<Cell>& cells = table.cells;
    std::uint64_t& epoch = table.epoch;
    std::size_t cap = cells.size();
    if (cap < 4 * k) {
      cap = 16;
      while (cap < 4 * k) cap <<= 1;
      cells.assign(cap, Cell{});
      epoch = 0;
    }
    const std::size_t mask = cap - 1;
    ++epoch;
    // Finds the cell holding `idx`, or the stale cell where it would go.
    const auto slot_of = [&](std::size_t idx) {
      std::uint64_t h = static_cast<std::uint64_t>(idx);
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
      std::size_t pos = static_cast<std::size_t>(h) & mask;
      while (cells[pos].epoch == epoch && cells[pos].pos != idx)
        pos = (pos + 1) & mask;
      return pos;
    };
    const auto held = [&](std::size_t pos, std::size_t idx) -> const T& {
      return cells[pos].epoch == epoch ? cells[pos].value : v[idx];
    };
    std::size_t i = 0;
    for (; i < k; ++i) {
      const std::size_t j = i + Below(v.size() - i);
      const std::size_t pos_j = slot_of(j);
      if (!visit(held(pos_j, j))) {
        ++i;
        break;
      }
      // Replay the swap: position j now holds what position i held. Position
      // i itself is never read again (every later draw lands past it).
      cells[pos_j] = Cell{j, epoch, held(slot_of(i), i)};
    }
    for (; i < k; ++i) Below(v.size() - i);
  }

  Mt19937_64& engine() { return engine_; }

 private:
  // VisitSampleWithoutReplacementFrom's scratch: one per thread and element
  // type, whatever the visitor.
  template <typename T>
  struct OverrideTable {
    struct Cell {
      std::size_t pos = 0;
      std::uint64_t epoch = 0;
      T value{};
    };
    static OverrideTable& ForThisThread() {
      thread_local OverrideTable table;
      return table;
    }
    std::vector<Cell> cells;
    std::uint64_t epoch = 0;
  };

  Mt19937_64 engine_;
};

}  // namespace omcast::rnd
