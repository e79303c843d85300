#include "serve/scheduler.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

namespace relacc {
namespace serve {

void Scheduler::LatencyHistogram::Record(int64_t ms) {
  const unsigned width =
      std::bit_width(static_cast<uint64_t>(ms < 0 ? 0 : ms));
  buckets[width < 32 ? width : 31] += 1;
  ++count;
}

double Scheduler::LatencyHistogram::PercentileMs(double p) const {
  if (count == 0) return 0.0;
  const int64_t rank =
      static_cast<int64_t>(p * static_cast<double>(count) + 0.5);
  int64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      // Bucket i holds ms values of bit width i: upper bound 2^i - 1.
      return static_cast<double>((int64_t{1} << i) - 1);
    }
  }
  return static_cast<double>((int64_t{1} << 31) - 1);
}

Scheduler::Scheduler() : Scheduler(Options()) {}

Scheduler::Scheduler(Options options) : options_(std::move(options)) {
  executor_ = std::thread([this] { ExecutorLoop(); });
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  deadline_cv_.notify_all();
  if (executor_.joinable()) executor_.join();
  if (watchdog_.joinable()) watchdog_.join();
}

Status Scheduler::Enqueue(int64_t tenant, JobClass cls,
                          std::function<void()> job,
                          int64_t* retry_after_ms) {
  return Enqueue(tenant, cls, std::move(job), JobControl{}, retry_after_ms);
}

Status Scheduler::Enqueue(int64_t tenant, JobClass cls,
                          std::function<void()> job, JobControl control,
                          int64_t* retry_after_ms) {
  const bool has_deadline = control.deadline != Clock::time_point::max();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ || stop_) {
      return Status::FailedPrecondition("scheduler is draining");
    }
    TenantQueues& q = tenants_[tenant];
    if (q.size() >= options_.queue_depth) {
      ++stats_.rejected;
      if (retry_after_ms != nullptr) {
        // Backpressure hint: time for the tenant's backlog to drain at
        // the observed mean job time. Before any job completed, a
        // nominal 10 ms quantum stands in — the hint only needs the
        // right order of magnitude to pace a client's retry loop.
        const int64_t executed =
            stats_.executed_interactive + stats_.executed_batch;
        const int64_t mean_ms =
            executed > 0 ? std::max<int64_t>(1, total_exec_ms_ / executed)
                         : 10;
        *retry_after_ms = q.size() * mean_ms;
      }
      const Status rejected = Status::ResourceExhausted(
          "tenant " + std::to_string(tenant) + " has " +
          std::to_string(q.size()) + " jobs pending (limit " +
          std::to_string(options_.queue_depth) + ")");
      if (q.empty()) tenants_.erase(tenant);  // never true; defensive
      return rejected;
    }
    (cls == JobClass::kInteractive ? q.interactive : q.batch)
        .push_back(QueuedJob{std::move(job), Clock::now(), control.deadline,
                             std::move(control.on_deadline)});
    ++queued_count_;
    MarkReady(tenant, cls);
  }
  work_cv_.notify_one();
  if (has_deadline) deadline_cv_.notify_all();
  return Status::OK();
}

void Scheduler::RequeueFront(int64_t tenant, JobClass cls,
                             std::function<void()> job) {
  RequeueFront(tenant, cls, std::move(job), JobControl{});
}

void Scheduler::RequeueFront(int64_t tenant, JobClass cls,
                             std::function<void()> job, JobControl control) {
  const bool has_deadline = control.deadline != Clock::time_point::max();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;  // abrupt teardown: the continuation is dropped
    if (tombstones_.count(tenant) > 0) return;  // tenant removed mid-job
    TenantQueues& q = tenants_[tenant];
    // The continuation's latency clock restarts here: each quantum of a
    // multi-window job is its own latency sample.
    (cls == JobClass::kInteractive ? q.interactive : q.batch)
        .push_front(QueuedJob{std::move(job), Clock::now(), control.deadline,
                              std::move(control.on_deadline)});
    ++queued_count_;
    MarkReady(tenant, cls);
  }
  work_cv_.notify_one();
  if (has_deadline) deadline_cv_.notify_all();
}

void Scheduler::RemoveTenant(int64_t tenant) {
  std::vector<QueuedJob> discarded;  // destroyed outside the lock
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(tenant);
    if (it != tenants_.end()) {
      queued_count_ -= it->second.size();
      for (std::deque<QueuedJob>* q :
           {&it->second.interactive, &it->second.batch}) {
        for (QueuedJob& job : *q) discarded.push_back(std::move(job));
      }
      tenants_.erase(it);
    }
    for (std::deque<int64_t>* rotation :
         {&ready_interactive_, &ready_batch_}) {
      for (auto rit = rotation->begin(); rit != rotation->end();) {
        rit = *rit == tenant ? rotation->erase(rit) : rit + 1;
      }
    }
    // The tenant's job may be running right now; its RequeueFront must
    // not resurrect the entry we just erased. The executor clears the
    // tombstone when that job completes.
    if (running_ && running_tenant_ == tenant) tombstones_.insert(tenant);
  }
}

void Scheduler::Drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  work_cv_.notify_all();
  if (executor_.joinable()) executor_.join();
  // With the executor gone nothing can run or spawn continuations; the
  // watchdog has no more deadlines to police.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  deadline_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

bool Scheduler::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_ || stop_;
}

int64_t Scheduler::load() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_count_ + (running_ ? 1 : 0);
}

int64_t Scheduler::tenant_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(tenants_.size());
}

Scheduler::Stats Scheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.p50_interactive_ms = latency_interactive_.PercentileMs(0.50);
  out.p99_interactive_ms = latency_interactive_.PercentileMs(0.99);
  out.p50_batch_ms = latency_batch_.PercentileMs(0.50);
  out.p99_batch_ms = latency_batch_.PercentileMs(0.99);
  return out;
}

void Scheduler::MarkReady(int64_t tenant, JobClass cls) {
  std::deque<int64_t>& rotation =
      cls == JobClass::kInteractive ? ready_interactive_ : ready_batch_;
  for (const int64_t t : rotation) {
    if (t == tenant) return;
  }
  rotation.push_back(tenant);
}

bool Scheduler::PopNext(QueuedJob* job, JobClass* cls, int64_t* tenant_out) {
  // Interactive strictly first; round-robin across tenants within the
  // class (the tenant leaves the rotation while its job runs and
  // re-enters at the back, so no tenant runs twice before a ready peer
  // ran once).
  for (JobClass c : {JobClass::kInteractive, JobClass::kBatch}) {
    std::deque<int64_t>& rotation =
        c == JobClass::kInteractive ? ready_interactive_ : ready_batch_;
    while (!rotation.empty()) {
      const int64_t tenant = rotation.front();
      rotation.pop_front();
      auto it = tenants_.find(tenant);
      if (it == tenants_.end()) continue;  // removed while queued
      std::deque<QueuedJob>& q = c == JobClass::kInteractive
                                     ? it->second.interactive
                                     : it->second.batch;
      if (q.empty()) {
        // Deadline cancellations can empty a rotated queue; reap an
        // entry with nothing left so tenant state never outlives its
        // work (the disconnect-leak fix).
        if (it->second.empty()) tenants_.erase(it);
        continue;
      }
      *job = std::move(q.front());
      q.pop_front();
      --queued_count_;
      *cls = c;
      *tenant_out = tenant;
      if (!q.empty()) {
        rotation.push_back(tenant);
      } else if (it->second.empty()) {
        tenants_.erase(it);
      }
      return true;
    }
  }
  return false;
}

Scheduler::Clock::time_point Scheduler::EarliestDeadline() const {
  Clock::time_point earliest = Clock::time_point::max();
  for (const auto& [tenant, queues] : tenants_) {
    for (const std::deque<QueuedJob>* q : {&queues.interactive, &queues.batch}) {
      for (const QueuedJob& job : *q) {
        earliest = std::min(earliest, job.deadline);
      }
    }
  }
  if (running_ && !running_expired_) {
    earliest = std::min(earliest, running_deadline_);
  }
  return earliest;
}

void Scheduler::CollectExpired(Clock::time_point now,
                               std::vector<std::function<void()>>* fired) {
  for (auto it = tenants_.begin(); it != tenants_.end();) {
    for (std::deque<QueuedJob>* q :
         {&it->second.interactive, &it->second.batch}) {
      for (auto jit = q->begin(); jit != q->end();) {
        if (jit->deadline > now) {
          ++jit;
          continue;
        }
        ++stats_.cancelled_queued;
        --queued_count_;
        if (jit->on_deadline) fired->push_back(std::move(jit->on_deadline));
        if (options_.on_deadline) {
          fired->push_back([hook = options_.on_deadline] { hook(false); });
        }
        // The cancelled closure must not be destroyed under mu_ (it may
        // hold the last reference to a connection); hand it to the
        // caller's batch instead.
        fired->push_back([fn = std::move(jit->fn)] {});
        jit = q->erase(jit);
      }
    }
    it = it->second.empty() ? tenants_.erase(it) : std::next(it);
  }
  if (running_ && !running_expired_ && running_deadline_ <= now) {
    running_expired_ = true;
    ++stats_.expired_running;
    if (running_on_deadline_) fired->push_back(running_on_deadline_);
    if (options_.on_deadline) {
      fired->push_back([hook = options_.on_deadline] { hook(true); });
    }
  }
}

void Scheduler::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stop_) return;
    const Clock::time_point next = EarliestDeadline();
    if (next == Clock::time_point::max()) {
      deadline_cv_.wait(lock);
      continue;
    }
    deadline_cv_.wait_until(lock, next);
    if (stop_) return;
    std::vector<std::function<void()>> fired;
    CollectExpired(Clock::now(), &fired);
    if (fired.empty()) continue;
    lock.unlock();
    for (const std::function<void()>& fn : fired) {
      if (fn) fn();
    }
    fired.clear();  // release captured state with the lock dropped
    lock.lock();
  }
}

void Scheduler::ExecutorLoop() {
  for (;;) {
    QueuedJob job;
    JobClass cls = JobClass::kInteractive;
    int64_t tenant_of_job = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (stop_) return;
        if (PopNext(&job, &cls, &tenant_of_job)) {
          if (cls == JobClass::kInteractive) {
            for (const auto& [tenant, queues] : tenants_) {
              stats_.batch_queued_at_interactive +=
                  static_cast<int64_t>(queues.batch.size());
            }
          }
          break;
        }
        // Queues are empty. Draining means no further Enqueue can add
        // work and no job is running to spawn a continuation, so this
        // is the drained fixpoint.
        if (draining_) return;
        work_cv_.wait(lock);
      }
      running_ = true;
      running_expired_ = false;
      running_tenant_ = tenant_of_job;
      running_deadline_ = job.deadline;
      running_on_deadline_ = job.on_deadline;
    }
    if (job.deadline != Clock::time_point::max()) deadline_cv_.notify_all();
    if (options_.pre_job) options_.pre_job();
    const Clock::time_point started = Clock::now();
    job.fn();
    const Clock::time_point done = Clock::now();
    const auto ms_since = [&done](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::milliseconds>(done - t)
          .count();
    };
    bool completed_ok = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      completed_ok = !running_expired_;
      running_ = false;
      running_on_deadline_ = nullptr;
      tombstones_.erase(tenant_of_job);
      if (cls == JobClass::kInteractive) {
        ++stats_.executed_interactive;
        latency_interactive_.Record(ms_since(job.enqueued));
      } else {
        ++stats_.executed_batch;
        latency_batch_.Record(ms_since(job.enqueued));
      }
      total_exec_ms_ += ms_since(started);
    }
    if (completed_ok && options_.on_job_ok) options_.on_job_ok();
  }
}

}  // namespace serve
}  // namespace relacc
