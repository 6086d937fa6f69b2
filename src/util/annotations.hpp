// Clang thread-safety-analysis annotation macros.
//
// These wrap Clang's capability attributes (`-Wthread-safety`) so the
// window/barrier/mailbox protocol and every mutex-protected member can be
// machine-checked at compile time. On any compiler without the attributes
// (GCC, MSVC) every macro expands to nothing, so the annotations are free
// documentation there and a hard gate in the Clang CI job, which builds with
// `-Wthread-safety -Werror=thread-safety`.
//
// Three kinds of capability are annotated in this codebase:
//
//   - `util::mutex` (sync.hpp) — a classic data lock; members it protects
//     carry VTM_GUARDED_BY(mutex_name_).
//   - `util::barrier_phase` (sync.hpp) — a *phase* capability with no
//     runtime state at all: it models "all shard lanes are parked at a
//     window barrier". Functions that may only run between windows (the
//     mailbox flip, the coordinator's barrier steps) take a
//     `const barrier_phase&` parameter annotated VTM_REQUIRES(barrier), and
//     only the coordinator's barrier callback ever acquires one (through
//     `util::barrier_scope`), so a mid-phase call is a compile error.
//   - `util::lane_role` (sync.hpp) — the state one lane owns outright (the
//     fleet coordinator's lane): members carry VTM_GUARDED_BY(role), and
//     only `util::lane_scope`, on that lane or at a barrier, acquires it.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#pragma once

#if defined(__clang__)
#define VTM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define VTM_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

/// Marks a type as a capability (lock-like or protocol-state-like).
#define VTM_CAPABILITY(x) VTM_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define VTM_SCOPED_CAPABILITY VTM_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the capability.
#define VTM_GUARDED_BY(x) VTM_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by the capability.
#define VTM_PT_GUARDED_BY(x) VTM_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function callable only while holding the capabilities (and keeps them).
#define VTM_REQUIRES(...) \
  VTM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function that acquires the capabilities and does not release them.
#define VTM_ACQUIRE(...) \
  VTM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function that releases held capabilities.
#define VTM_RELEASE(...) \
  VTM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function that acquires the capability iff it returns `ret`.
#define VTM_TRY_ACQUIRE(ret, ...) \
  VTM_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/// Function that must NOT be called while holding the capabilities
/// (deadlock prevention: e.g. callbacks re-entering the owning object).
#define VTM_EXCLUDES(...) VTM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime assertion to the analysis that the capability is held here.
#define VTM_ASSERT_CAPABILITY(x) VTM_THREAD_ANNOTATION(assert_capability(x))

/// Function returning a reference to the named capability.
#define VTM_RETURN_CAPABILITY(x) VTM_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disable the analysis for one function. Use only where the
/// synchronization is real but inexpressible (document why at each site).
#define VTM_NO_THREAD_SAFETY_ANALYSIS \
  VTM_THREAD_ANNOTATION(no_thread_safety_analysis)
