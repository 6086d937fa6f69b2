// Fixed-size worker pool for data-parallel loops and phased lanes.
//
// `parallel_for(n, fn)` runs fn(0..n-1) across the workers plus the calling
// thread and blocks until every index has finished. Indices are handed out
// through an atomic counter, so the partitioning is load-balanced; the work
// function must make each index independent (the rollout engine steps one
// environment per index, each with its own RNG). A pool of size zero has no
// workers and parallel_for degenerates to a plain serial loop, which keeps
// single-threaded call sites allocation- and synchronization-free.
//
// `run_phased(lanes, fn, barrier)` is lane-affine: lane l runs on
// participant l mod (workers + 1) for the whole run, participant 0 being the
// calling thread. The workers join the run once, through the same mutex
// hand-off as a parallel_for; from then on phases hand off through one
// atomic arrival count and one atomic phase generation, waited on with
// `std::atomic::wait`/`notify`. The participant that arrives last runs the
// barrier callback and releases the others, so no wake-up sits between the
// slowest lane finishing and the next phase starting. A phase takes no lock
// and builds no `std::function`, and a lane's state stays in the cache of
// the core that last ran it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace vtm::util {

/// Persistent pool of worker threads for index-parallel loops.
class thread_pool {
 public:
  /// Spawn `threads` workers; 0 means "serial" (no threads, no locking).
  explicit thread_pool(std::size_t threads);

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Joins all workers.
  ~thread_pool();

  /// Number of worker threads (0 for a serial pool).
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Invoke fn(i) for every i in [0, n); blocks until all calls return.
  /// The calling thread participates. If any invocation throws, the first
  /// exception is rethrown here after the loop drains. Not reentrant.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Barrier/phase execution for windowed simulations: run one *phase* —
  /// fn(lane, phase) for every lane in [0, lanes), in parallel — then run
  /// `barrier(phase)` once, after every lane of the phase has returned, on
  /// the thread of the participant that finished last; repeat with
  /// phase + 1 while the barrier returns true. No lane ever runs phase k + 1
  /// before the barrier of phase k has returned, and the barrier runs with
  /// every lane idle, so it may freely touch state the lanes share (flip
  /// mailboxes, pick the next time window); each lane's writes happen before
  /// it, and its writes before the next phase. Lane l runs on the same
  /// thread in every phase: the caller's when l mod (size() + 1) == 0. An
  /// exception from a lane or from the barrier ends the run at the next
  /// barrier (the phase's other lanes still run) and is rethrown here; a
  /// serial pool rethrows at once. Not reentrant.
  void run_phased(std::size_t lanes,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  const std::function<bool(std::size_t)>& barrier);

 private:
  /// One run_phased call, shared with the workers for its duration.
  struct phased_job {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    const std::function<bool(std::size_t)>* barrier = nullptr;
    std::size_t lanes = 0;
    std::size_t participants = 0;  ///< Threads with lanes, the caller's too.
  };

  /// `participant` is the worker's index + 1 (the caller is participant 0).
  void worker_loop(std::size_t participant) VTM_EXCLUDES(mutex_);
  /// Hand one job to every worker: a parallel_for loop, or a phased run
  /// when `phased` is set.
  void start_job(const std::function<void(std::size_t)>* fn, std::size_t n,
                 const phased_job* phased) VTM_EXCLUDES(mutex_);
  /// Wait for every worker to leave the job; returns its first exception.
  [[nodiscard]] std::exception_ptr finish_job() VTM_EXCLUDES(mutex_);
  /// Drain indices of the current job. Takes the job by argument (snapshotted
  /// under `mutex_` by the caller) so no guarded member is read mid-loop.
  void run_indices(const std::function<void(std::size_t)>& fn, std::size_t n)
      VTM_EXCLUDES(mutex_);
  /// Run `participant`'s lanes of `phase`; a throwing lane is recorded and
  /// the others still run.
  void run_lanes(const phased_job& job, std::size_t participant,
                 std::size_t phase) VTM_EXCLUDES(mutex_);
  /// A participant's side of a phased run, the caller's too: its lanes,
  /// then arrive; the last to arrive runs the barrier and moves the phase
  /// generation, which the others wait on, until the barrier ends the run.
  void run_participant(const phased_job& job, std::size_t participant)
      VTM_EXCLUDES(mutex_);
  /// Keep the first exception of the current job.
  void record_error() VTM_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;

  mutex mutex_;
  condition_variable wake_;
  condition_variable done_;
  const std::function<void(std::size_t)>* job_ VTM_GUARDED_BY(mutex_) =
      nullptr;
  std::size_t job_size_ VTM_GUARDED_BY(mutex_) = 0;
  const phased_job* phased_ VTM_GUARDED_BY(mutex_) = nullptr;
  /// Bumped per job.
  std::size_t generation_ VTM_GUARDED_BY(mutex_) = 0;
  /// Workers still in the current job.
  std::size_t active_ VTM_GUARDED_BY(mutex_) = 0;
  std::atomic<std::size_t> next_{0};
  std::exception_ptr error_ VTM_GUARDED_BY(mutex_);
  bool stop_ VTM_GUARDED_BY(mutex_) = false;

  // Phased hand-off. A participant adds to `arrived_` when its lanes are
  // done; the one that completes the count resets it, runs the barrier and
  // bumps `phase_`, which the others wait on. `failed_` is read after the
  // last arrival's acquire and `last_phase_` after `phase_`'s, so relaxed
  // order suffices.
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint32_t> phase_{0};
  std::atomic<bool> last_phase_{false};
  std::atomic<bool> failed_{false};  ///< `error_` is set (any job).
};

}  // namespace vtm::util
