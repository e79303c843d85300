#include "util/thread_pool.h"

#include <algorithm>

namespace relacc {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(int64_t n, const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  // Chunk so the queue holds O(threads) tasks, not O(n).
  const int64_t num_chunks =
      std::min<int64_t>(n, static_cast<int64_t>(num_threads()) * 4);
  const int64_t chunk = (n + num_chunks - 1) / num_chunks;
  for (int64_t begin = 0; begin < n; begin += chunk) {
    const int64_t end = std::min(begin + chunk, n);
    Submit([begin, end, &fn] {
      for (int64_t i = begin; i < end; ++i) fn(i);
    });
  }
  Wait();
}

void ThreadPool::ParallelForSlots(
    int64_t n, const std::function<void(int, int64_t)>& fn) {
  if (n <= 0) return;
  const int64_t slots =
      std::min<int64_t>(n, static_cast<int64_t>(num_threads()));
  const int64_t chunk = (n + slots - 1) / slots;
  for (int64_t slot = 0; slot < slots; ++slot) {
    const int64_t begin = slot * chunk;
    const int64_t end = std::min(begin + chunk, n);
    if (begin >= end) break;
    Submit([slot, begin, end, &fn] {
      for (int64_t i = begin; i < end; ++i) {
        fn(static_cast<int>(slot), i);
      }
    });
  }
  Wait();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace relacc
