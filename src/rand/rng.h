// Seeded random-number substrate. Every stochastic component takes an Rng&
// (or a seed to build one) so that experiments are reproducible and
// multi-seed confidence intervals (paper Fig. 14) are possible.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "util/check.h"

namespace omcast::rnd {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    util::Check(lo <= hi, "Uniform: lo <= hi");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Uniform integer in [lo, hi] inclusive.
  int UniformInt(int lo, int hi) {
    util::Check(lo <= hi, "UniformInt: lo <= hi");
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  std::size_t UniformIndex(std::size_t n) {
    util::Check(n > 0, "UniformIndex: n > 0");
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
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
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j =
          i + std::uniform_int_distribution<std::size_t>(0, v.size() - 1 - i)(
                  engine_);
      std::swap(v[i], v[j]);
    }
    v.resize(k);
  }

  // SampleWithoutReplacement without copying the population: O(k) time and
  // space instead of O(|v|). Draws the IDENTICAL variate sequence as the
  // by-value overload -- the partial Fisher-Yates swaps are replayed through
  // a small override table instead of a mutable copy -- so switching a call
  // site between the two overloads cannot change any downstream random
  // draw. The linear override scan is O(k^2) worst case, which beats the
  // O(|v|) copy whenever k << |v| (candidate sampling at 10^6 members: the
  // by-value overload copies 8MB per join).
  template <typename T>
  std::vector<T> SampleWithoutReplacementFrom(const std::vector<T>& v,
                                              std::size_t k) {
    if (k >= v.size()) return SampleWithoutReplacement(v, k);
    // Flat open-addressing override table (index -> displaced value). A
    // linear override list makes each draw O(i) and the whole call O(k^2),
    // which at 10^5 members turned join-candidate sampling into the single
    // hottest function of the entire simulation; hashed overrides keep the
    // replayed swaps O(1) expected per draw. The table is thread_local,
    // epoch-stamped scratch: stale cells retire by epoch bump, so a call
    // allocates and clears nothing at steady state.
    struct Cell {
      std::size_t pos = 0;
      std::uint64_t epoch = 0;
      T value{};
    };
    thread_local std::vector<Cell> cells;
    thread_local std::uint64_t epoch = 0;
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
    const auto at = [&](std::size_t idx) -> const T& {
      const std::size_t pos = slot_of(idx);
      return cells[pos].epoch == epoch && cells[pos].pos == idx
                 ? cells[pos].value
                 : v[idx];
    };
    std::vector<T> out;
    out.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j =
          i + std::uniform_int_distribution<std::size_t>(0, v.size() - 1 - i)(
                  engine_);
      out.push_back(at(j));
      // Replay the swap: position j now holds what position i held. Position
      // i itself is never read again (every later draw lands at index > i).
      const T displaced = at(i);
      cells[slot_of(j)] = Cell{j, epoch, displaced};
    }
    return out;
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace omcast::rnd
