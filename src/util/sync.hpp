// Annotated synchronization primitives.
//
// libstdc++'s std::mutex / std::lock_guard carry no thread-safety
// attributes, so Clang's analysis cannot see acquisitions made through
// them. `util::mutex` and `util::mutex_lock` are zero-overhead wrappers
// that restore the attribute surface; `util::condition_variable`
// (std::condition_variable_any) waits directly on a `mutex_lock`.
//
// `barrier_phase` is the codebase's second capability kind: a stateless
// token modelling "every shard lane is parked at a window barrier". It has
// no runtime effect whatsoever — acquiring it emits no instructions — but
// functions annotated VTM_REQUIRES(barrier) on a `const barrier_phase&`
// parameter can only be called from code that holds one, and the only
// acquisition path is `barrier_scope`, constructed inside the coordinator's
// barrier callback (where `thread_pool::run_phased` guarantees every lane
// is idle). Mid-phase calls to barrier-only functions therefore fail to
// compile under `-Wthread-safety -Werror=thread-safety`.
//
// `lane_role` is the third kind: a stateless token for state that one lane
// owns outright (the fleet coordinator's lane, DESIGN.md §13). Members only
// that lane touches are VTM_GUARDED_BY it, and only a `lane_scope` acquires
// it, constructed where the lane runs or at a barrier, where that lane is
// parked too. A function any other lane runs cannot name that state without
// failing the same gate.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/annotations.hpp"

namespace vtm::util {

/// std::mutex with Clang capability attributes.
class VTM_CAPABILITY("mutex") mutex {
 public:
  mutex() = default;
  mutex(const mutex&) = delete;
  mutex& operator=(const mutex&) = delete;

  void lock() VTM_ACQUIRE() { m_.lock(); }
  void unlock() VTM_RELEASE() { m_.unlock(); }
  [[nodiscard]] bool try_lock() VTM_TRY_ACQUIRE(true) {
    return m_.try_lock();
  }

 private:
  // The wrapped implementation lock itself: this class IS the annotation
  // surface, so the member cannot be guarded by anything.
  // vtm-lint: allow(mutex-guarded-by)
  std::mutex m_;
};

/// Scoped lock over `util::mutex`; also a BasicLockable so a
/// `condition_variable` can wait on it.
class VTM_SCOPED_CAPABILITY mutex_lock {
 public:
  explicit mutex_lock(mutex& m) VTM_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~mutex_lock() VTM_RELEASE() { m_.unlock(); }

  mutex_lock(const mutex_lock&) = delete;
  mutex_lock& operator=(const mutex_lock&) = delete;

  // BasicLockable surface for condition_variable_any. Deliberately invisible
  // to the analysis: a cv wait releases and reacquires atomically, so from
  // the caller's perspective the capability is held before and after —
  // exactly what the enclosing scope already asserts.
  void lock() VTM_NO_THREAD_SAFETY_ANALYSIS { m_.lock(); }
  void unlock() VTM_NO_THREAD_SAFETY_ANALYSIS { m_.unlock(); }

 private:
  mutex& m_;
};

/// Condition variable that waits on a `mutex_lock`.
using condition_variable = std::condition_variable_any;

/// Capability token for "all lanes parked at a window barrier". Stateless
/// and zero-cost: it exists purely so the compiler can check the barrier
/// protocol (see file comment).
class VTM_CAPABILITY("barrier") barrier_phase {
 public:
  barrier_phase() = default;
  barrier_phase(const barrier_phase&) = delete;
  barrier_phase& operator=(const barrier_phase&) = delete;

  /// No-ops at runtime; the attributes are the point.
  void acquire() const VTM_ACQUIRE() {}
  void release() const VTM_RELEASE() {}
};

/// RAII acquisition of a `barrier_phase` for the duration of a barrier
/// callback. Construct one only where every lane is provably idle.
class VTM_SCOPED_CAPABILITY barrier_scope {
 public:
  explicit barrier_scope(const barrier_phase& phase) VTM_ACQUIRE(phase)
      : phase_(phase) {
    phase_.acquire();
  }
  ~barrier_scope() VTM_RELEASE() { phase_.release(); }

  barrier_scope(const barrier_scope&) = delete;
  barrier_scope& operator=(const barrier_scope&) = delete;

 private:
  const barrier_phase& phase_;
};

/// Capability token for "this thread runs the lane that owns the guarded
/// state, or every lane is parked". Stateless and zero-cost, like
/// `barrier_phase` (see file comment).
class VTM_CAPABILITY("lane") lane_role {
 public:
  lane_role() = default;
  lane_role(const lane_role&) = delete;
  lane_role& operator=(const lane_role&) = delete;

  /// No-ops at runtime; the attributes are the point.
  void acquire() const VTM_ACQUIRE() {}
  void release() const VTM_RELEASE() {}
};

/// RAII acquisition of a `lane_role` for the duration of the owning lane's
/// phase, or of a barrier. Construct one only on the lane that owns the
/// state, or where every lane is provably idle.
class VTM_SCOPED_CAPABILITY lane_scope {
 public:
  explicit lane_scope(const lane_role& role) VTM_ACQUIRE(role) : role_(role) {
    role_.acquire();
  }
  ~lane_scope() VTM_RELEASE() { role_.release(); }

  lane_scope(const lane_scope&) = delete;
  lane_scope& operator=(const lane_scope&) = delete;

 private:
  const lane_role& role_;
};

}  // namespace vtm::util
