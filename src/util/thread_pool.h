#ifndef RELACC_UTIL_THREAD_POOL_H_
#define RELACC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace relacc {

/// A fixed-size worker pool: an AccuracyService's one pool runs a
/// pipeline window's entities (phase-1 chase and phase-2 completion, one
/// entity per task) and fans a CheckCandidates batch out, one engine per
/// slot (ParallelForSlots). Deliberately minimal: fire-and-forget
/// tasks plus a blocking Wait(); result ordering is the caller's concern
/// (callers write results by index, so output is deterministic
/// regardless of scheduling).
class ThreadPool {
 public:
  /// `num_threads` <= 0 selects the hardware concurrency (at least 1).
  explicit ThreadPool(int num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `task`. Never blocks (unbounded queue).
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  /// Runs fn(i) for i in [0, n) across the pool and waits. fn must be
  /// safe to invoke concurrently for distinct i. Indices are chunked to
  /// limit queue churn on large n.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  /// Like ParallelFor, but partitions [0, n) into at most num_threads()
  /// contiguous chunks and passes the chunk's slot index as fn's first
  /// argument. At most one task runs per slot at any time, so fn may use
  /// per-slot scratch state (e.g. a ChaseEngine per worker) without locks.
  void ParallelForSlots(int64_t n,
                        const std::function<void(int, int64_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  int64_t in_flight_ = 0;  ///< queued + running tasks
  bool shutting_down_ = false;
};

}  // namespace relacc

#endif  // RELACC_UTIL_THREAD_POOL_H_
