// Lightweight runtime checks with source location, used across the library
// for invariant enforcement (tree shape, protocol state machines, ...).
//
// Two tiers:
//
//  * util::Check / util::Fail are *always on*: the simulator is the product,
//    and a silently corrupt multicast tree would invalidate every experiment
//    built on top of it. Use them for cheap preconditions on public entry
//    points.
//
//  * OMCAST_DCHECK is the *deep* tier: O(n) structural audits, hot-path
//    assertions, and anything too expensive for the 14k-member sweeps. It is
//    compiled in when OMCAST_ENABLE_DCHECK is defined (Debug and sanitizer
//    builds -- see the OMCAST_DCHECK cache option in the top-level
//    CMakeLists.txt) and compiled out of Release hot paths; the condition is
//    never evaluated when disabled, so it may be arbitrarily expensive.
//    Whole audit blocks can be gated with `if constexpr (kDcheckEnabled)`.
#pragma once

#include <source_location>
#include <string_view>

namespace omcast::util {

// Aborts unconditionally; for unreachable branches.
[[noreturn]] void Fail(std::string_view what,
                       std::source_location loc = std::source_location::current());

// Aborts with a diagnostic if `cond` is false. `what` should state the
// violated invariant, e.g. "child layer == parent layer + 1". Inline, so
// the passing case is one branch at the call site (Rng::UniformIndex checks
// every draw); the diagnostic stays out of line in Fail.
inline void Check(bool cond, std::string_view what,
                  std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] Fail(what, loc);
}

#if defined(OMCAST_ENABLE_DCHECK)
inline constexpr bool kDcheckEnabled = true;
#define OMCAST_DCHECK(cond, what) \
  ::omcast::util::Check(static_cast<bool>(cond), (what))
#else
inline constexpr bool kDcheckEnabled = false;
// The `if (false)` arm keeps the condition type-checked in every build while
// guaranteeing it is not evaluated (no side effects, no cost) in Release.
#define OMCAST_DCHECK(cond, what)                                  \
  do {                                                             \
    if (false) ::omcast::util::Check(static_cast<bool>(cond), (what)); \
  } while (false)
#endif

}  // namespace omcast::util
