// Clang Thread Safety Analysis annotations (omcast spelling).
//
// These macros expand to clang's capability attributes when the compiler
// supports them and to nothing otherwise (gcc builds are unaffected), so
// the lock discipline -- today the shared topology cache's one mutex --
// is checked *statically* by the `clang` preset / clang-thread-safety CI
// job with -Wthread-safety -Werror, instead of only dynamically on the
// paths the TSan job happens to execute.
//
// Conventions (see DESIGN.md "Static analysis"):
//   * every mutex is a util::Mutex (src/util/mutex.h), never a raw
//     std::mutex -- the omcast-lint raw-mutex rule enforces this;
//   * every field written under a mutex carries OMCAST_GUARDED_BY(mu_).
// Only the attributes some code uses are defined; add clang's others
// (requires_capability, locks_excluded, ...) with their first user.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#define OMCAST_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define OMCAST_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

// Type annotations -----------------------------------------------------------

// Marks a type as a lockable capability ("mutex" names the capability kind
// in diagnostics).
#define OMCAST_CAPABILITY(name) OMCAST_THREAD_ANNOTATION(capability(name))

// Marks an RAII type whose constructor acquires and destructor releases a
// capability (util::MutexLock).
#define OMCAST_SCOPED_CAPABILITY OMCAST_THREAD_ANNOTATION(scoped_lockable)

// Data annotations -----------------------------------------------------------

// The field may only be read or written while holding `mu`.
#define OMCAST_GUARDED_BY(mu) OMCAST_THREAD_ANNOTATION(guarded_by(mu))

// Function annotations -------------------------------------------------------

// The function acquires the capability and holds it on return.
#define OMCAST_ACQUIRE(...) \
  OMCAST_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

// The function releases a held capability.
#define OMCAST_RELEASE(...) \
  OMCAST_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
