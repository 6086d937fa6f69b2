#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace vtm::util {

thread_pool::thread_pool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
}

thread_pool::~thread_pool() {
  {
    const mutex_lock lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void thread_pool::record_error() {
  const mutex_lock lock(mutex_);
  if (!error_) error_ = std::current_exception();
  failed_.store(true, std::memory_order_relaxed);
}

void thread_pool::run_indices(const std::function<void(std::size_t)>& fn,
                              std::size_t n) {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    try {
      fn(i);
    } catch (...) {
      record_error();
    }
  }
}

void thread_pool::run_lanes(const phased_job& job, std::size_t participant,
                            std::size_t phase) {
  for (std::size_t lane = participant; lane < job.lanes;
       lane += job.participants) {
    try {
      (*job.fn)(lane, phase);
    } catch (...) {
      record_error();
    }
  }
}

void thread_pool::run_participant(const phased_job& job,
                                  std::size_t participant) {
  if (participant >= job.participants) return;  // more workers than lanes
  const auto participants = static_cast<std::uint32_t>(job.participants);
  // `phase_` moves only once every participant has arrived, so this read
  // precedes the first bump and each wait sees exactly one.
  std::uint32_t generation = phase_.load(std::memory_order_acquire);
  for (std::size_t phase = 0;; ++phase, ++generation) {
    run_lanes(job, participant, phase);
    // Acquire-release: the last to arrive sees every lane's writes.
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 != participants) {
      phase_.wait(generation, std::memory_order_acquire);
      if (last_phase_.load(std::memory_order_relaxed)) return;
      continue;
    }
    // Every lane is done with `phase` and every other participant waits on
    // `phase_`: run the barrier here, then release them.
    arrived_.store(0, std::memory_order_relaxed);
    bool more = false;
    if (!failed_.load(std::memory_order_relaxed)) {
      try {
        more = (*job.barrier)(phase);
      } catch (...) {
        record_error();
      }
    }
    if (!more) last_phase_.store(true, std::memory_order_relaxed);
    phase_.fetch_add(1, std::memory_order_release);
    phase_.notify_all();
    if (!more) return;
  }
}

void thread_pool::worker_loop(std::size_t participant) {
  std::size_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    const phased_job* phased = nullptr;
    std::size_t n = 0;
    {
      mutex_lock lock(mutex_);
      while (!stop_ && generation_ == seen_generation) wake_.wait(lock);
      if (stop_) return;
      seen_generation = generation_;
      job = job_;
      n = job_size_;
      phased = phased_;
    }
    if (phased != nullptr)
      run_participant(*phased, participant);
    else
      run_indices(*job, n);
    {
      const mutex_lock lock(mutex_);
      --active_;
    }
    done_.notify_one();
  }
}

void thread_pool::start_job(const std::function<void(std::size_t)>* fn,
                            std::size_t n, const phased_job* phased) {
  {
    const mutex_lock lock(mutex_);
    VTM_EXPECTS(job_ == nullptr && phased_ == nullptr);  // not reentrant
    job_ = fn;
    job_size_ = n;
    phased_ = phased;
    next_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    // The workers read these after taking the mutex, so relaxed stores do.
    failed_.store(false, std::memory_order_relaxed);
    arrived_.store(0, std::memory_order_relaxed);
    last_phase_.store(false, std::memory_order_relaxed);
    active_ = workers_.size();
    ++generation_;
  }
  wake_.notify_all();
}

std::exception_ptr thread_pool::finish_job() {
  mutex_lock lock(mutex_);
  while (active_ != 0) done_.wait(lock);
  job_ = nullptr;
  job_size_ = 0;
  phased_ = nullptr;
  std::exception_ptr error = error_;
  error_ = nullptr;
  return error;
}

void thread_pool::parallel_for(std::size_t n,
                               const std::function<void(std::size_t)>& fn) {
  VTM_EXPECTS(fn != nullptr);
  if (n == 0) return;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  start_job(&fn, n, nullptr);
  run_indices(fn, n);  // the caller helps drain the loop
  if (const std::exception_ptr error = finish_job())
    std::rethrow_exception(error);
}

void thread_pool::run_phased(
    std::size_t lanes, const std::function<void(std::size_t, std::size_t)>& fn,
    const std::function<bool(std::size_t)>& barrier) {
  VTM_EXPECTS(fn != nullptr);
  VTM_EXPECTS(barrier != nullptr);
  if (workers_.empty() || lanes < 2) {
    for (std::size_t phase = 0;; ++phase) {
      for (std::size_t lane = 0; lane < lanes; ++lane) fn(lane, phase);
      if (!barrier(phase)) return;
    }
  }

  const phased_job job{&fn, &barrier, lanes,
                       std::min(workers_.size() + 1, lanes)};
  start_job(nullptr, 0, &job);
  run_participant(job, 0);
  if (const std::exception_ptr error = finish_job())
    std::rethrow_exception(error);
}

}  // namespace vtm::util
