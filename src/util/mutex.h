// Capability-annotated mutex wrapper: the ONE place raw std::mutex is legal
// (the omcast-lint raw-mutex rule bans the standard locking primitives
// everywhere else under src/).
//
// std::mutex and std::lock_guard carry no capability attributes, so clang's
// -Wthread-safety treats code using them as unanalyzable: accesses to
// guarded fields under a std::lock_guard look unguarded and the analysis
// either warns spuriously or (worse) silently checks nothing. Wrapping the
// standard mutex in annotated types makes the one lock in the program --
// the shared topology cache's -- statically checkable.
//
// Usage:
//   util::Mutex mu_;
//   int value_ OMCAST_GUARDED_BY(mu_);
//   { util::MutexLock lock(mu_); ++value_; }           // scoped
#pragma once

#include <mutex>

#include "util/thread_annotations.h"

namespace omcast::util {

class OMCAST_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() OMCAST_ACQUIRE() { mu_.lock(); }
  void Unlock() OMCAST_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

// RAII lock; the only way this codebase takes a scoped lock.
class OMCAST_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) OMCAST_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() OMCAST_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace omcast::util
