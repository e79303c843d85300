#include "serve/replica_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "api/accuracy_service.h"

namespace relacc {
namespace serve {

namespace {

/// Tenant id of health-probe jobs. Client tenants are positive (the
/// server allocates from 1), so the prober can never collide with one.
constexpr int64_t kProbeTenant = -1;

}  // namespace

ReplicaPool::ReplicaPool(ReplicaPoolOptions options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<ReplicaPool>> ReplicaPool::Create(
    std::vector<AccuracyService*> services, ReplicaPoolOptions options) {
  if (services.empty()) {
    return Status::InvalidArgument("replica pool: no services");
  }
  for (const AccuracyService* service : services) {
    if (service == nullptr) {
      return Status::InvalidArgument("replica pool: null service");
    }
  }
  if (options.quarantine_after < 1) {
    return Status::InvalidArgument(
        "replica pool: quarantine_after must be >= 1");
  }
  auto pool = std::unique_ptr<ReplicaPool>(new ReplicaPool(std::move(options)));
  pool->replicas_.reserve(services.size());
  for (std::size_t i = 0; i < services.size(); ++i) {
    auto replica = std::make_unique<Replica>();
    replica->service = services[i];
    Scheduler::Options sched;
    sched.queue_depth = pool->options_.queue_depth;
    const int index = static_cast<int>(i);
    if (pool->options_.fault != nullptr) {
      sched.pre_job = [fault = pool->options_.fault, index] {
        fault->OnExecutorJob(index);
      };
    }
    sched.on_deadline = [p = pool.get(), index](bool /*was_running*/) {
      p->OnDeadlineExpired(index);
    };
    sched.on_job_ok = [p = pool.get(), index] { p->OnJobOk(index); };
    replica->scheduler = std::make_unique<Scheduler>(std::move(sched));
    pool->replicas_.push_back(std::move(replica));
  }
  pool->probe_thread_ = std::thread([p = pool.get()] { p->ProbeLoop(); });
  return pool;
}

ReplicaPool::~ReplicaPool() { Drain(); }

int ReplicaPool::RouteNew() const {
  int best = -1;
  int64_t best_load = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (!replicas_[i]->healthy.load()) continue;
    const int64_t load = replicas_[i]->scheduler->load();
    if (best < 0 || load < best_load) {
      best = static_cast<int>(i);
      best_load = load;
    }
  }
  return best;
}

int64_t ReplicaPool::quarantined_count() const {
  int64_t n = 0;
  for (const auto& replica : replicas_) {
    if (!replica->healthy.load()) ++n;
  }
  return n;
}

void ReplicaPool::RemoveTenant(int64_t tenant) {
  for (const auto& replica : replicas_) {
    replica->scheduler->RemoveTenant(tenant);
  }
}

void ReplicaPool::Drain() {
  draining_.store(true);
  {
    std::lock_guard<std::mutex> lock(probe_mu_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
  // A wedged executor cannot drain; release every injected wedge first
  // so a chaos run still shuts down cleanly (the chaos-serve CI lane
  // asserts SIGTERM -> exit 0).
  if (options_.fault != nullptr) options_.fault->ReleaseAll();
  for (const auto& replica : replicas_) {
    replica->scheduler->Drain();
  }
}

bool ReplicaPool::draining() const { return draining_.load(); }

std::vector<ReplicaPool::ReplicaStats> ReplicaPool::replica_stats() const {
  std::vector<ReplicaStats> out;
  out.reserve(replicas_.size());
  for (const auto& replica : replicas_) {
    ReplicaStats stats;
    stats.healthy = replica->healthy.load();
    stats.load = replica->scheduler->load();
    stats.timeouts = replica->timeouts.load();
    stats.quarantines = replica->quarantines.load();
    stats.readmissions = replica->readmissions.load();
    stats.scheduler = replica->scheduler->stats();
    out.push_back(std::move(stats));
  }
  return out;
}

Scheduler::Stats ReplicaPool::aggregate_stats() const {
  Scheduler::Stats total;
  for (const auto& replica : replicas_) {
    const Scheduler::Stats s = replica->scheduler->stats();
    total.executed_interactive += s.executed_interactive;
    total.executed_batch += s.executed_batch;
    total.rejected += s.rejected;
    total.batch_queued_at_interactive += s.batch_queued_at_interactive;
    total.cancelled_queued += s.cancelled_queued;
    total.expired_running += s.expired_running;
    total.p50_interactive_ms =
        std::max(total.p50_interactive_ms, s.p50_interactive_ms);
    total.p99_interactive_ms =
        std::max(total.p99_interactive_ms, s.p99_interactive_ms);
    total.p50_batch_ms = std::max(total.p50_batch_ms, s.p50_batch_ms);
    total.p99_batch_ms = std::max(total.p99_batch_ms, s.p99_batch_ms);
  }
  return total;
}

int64_t ReplicaPool::total_quarantines() const {
  int64_t n = 0;
  for (const auto& replica : replicas_) n += replica->quarantines.load();
  return n;
}

int64_t ReplicaPool::total_readmissions() const {
  int64_t n = 0;
  for (const auto& replica : replicas_) n += replica->readmissions.load();
  return n;
}

void ReplicaPool::OnDeadlineExpired(int i) {
  Replica& replica = *replicas_[static_cast<std::size_t>(i)];
  replica.timeouts.fetch_add(1);
  const int consecutive = replica.consecutive_expiries.fetch_add(1) + 1;
  if (consecutive >= options_.quarantine_after &&
      replica.healthy.exchange(false)) {
    replica.quarantines.fetch_add(1);
  }
}

void ReplicaPool::OnJobOk(int i) {
  Replica& replica = *replicas_[static_cast<std::size_t>(i)];
  replica.consecutive_expiries.store(0);
  // A job that made it to completion within its deadline is the health
  // proof itself — whether it was the prober's deduce or a pinned
  // session's own request.
  if (!replica.healthy.exchange(true)) {
    replica.readmissions.fetch_add(1);
  }
}

void ReplicaPool::ProbeLoop() {
  std::unique_lock<std::mutex> lock(probe_mu_);
  for (;;) {
    probe_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.probe_interval_ms),
        [this] { return probe_stop_; });
    if (probe_stop_) return;
    lock.unlock();
    for (const auto& replica : replicas_) {
      if (replica->healthy.load()) continue;
      if (replica->probe_in_flight.exchange(true)) continue;
      Replica* r = replica.get();
      Scheduler::JobControl control;
      control.deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(options_.probe_deadline_ms);
      control.on_deadline = [r] { r->probe_in_flight.store(false); };
      const Status queued = r->scheduler->Enqueue(
          kProbeTenant, JobClass::kInteractive,
          [r] {
            // Ping-class work: a spec-only deduce touches the chase and
            // the dictionary but no client state. The result is
            // irrelevant — completing before the probe deadline is what
            // re-admits (OnJobOk).
            (void)r->service->DeduceEntity();
            r->probe_in_flight.store(false);
          },
          control);
      // Queue full (stacked expired probes) or draining: try again next
      // interval.
      if (!queued.ok()) r->probe_in_flight.store(false);
    }
    lock.lock();
  }
}

}  // namespace serve
}  // namespace relacc
