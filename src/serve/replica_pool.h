#ifndef RELACC_SERVE_REPLICA_POOL_H_
#define RELACC_SERVE_REPLICA_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/fault_injection.h"
#include "serve/scheduler.h"
#include "util/status.h"

namespace relacc {

class AccuracyService;

namespace serve {

struct ReplicaPoolOptions {
  /// Per-tenant admission bound of each replica's scheduler.
  int queue_depth = 32;

  /// Consecutive deadline expiries (queued cancellations and running
  /// overruns both count) before a replica is quarantined. A wedged
  /// replica produces one running overrun and then a stream of queued
  /// cancellations behind it, so both kinds must count for the
  /// threshold to ever be reached.
  int quarantine_after = 3;

  /// How often the health prober checks quarantined replicas.
  int64_t probe_interval_ms = 200;

  /// Deadline of each health-probe job; an expired probe keeps the
  /// replica quarantined.
  int64_t probe_deadline_ms = 1000;

  /// Borrowed fault injector, or null for none. Wired into every
  /// replica's executor (Scheduler::Options::pre_job), so injected
  /// delays and wedges stall a replica exactly where real slowness
  /// would.
  FaultInjector* fault = nullptr;
};

/// N serving replicas, each an AccuracyService plus its own scheduler
/// (one executor thread per replica — the service is not internally
/// synchronized, so the replica IS the unit of parallelism). The pool
/// adds the failure-handling layer on top:
///
///   * Routing: new work goes to the least-loaded healthy replica
///     (load = queued + running, so a backlog behind a slow replica
///     steers traffic away even before quarantine). Sessions stay
///     pinned to the replica that created them — the server owns that
///     map; the pool only answers "where should new work go".
///   * Quarantine: `quarantine_after` consecutive deadline expiries
///     mark a replica unhealthy and routing skips it. Its pinned
///     sessions keep their queue (they cannot move — session state
///     lives in the replica), but no new sessions land on it.
///   * Re-admission: ANY job that completes before its deadline on a
///     quarantined replica re-admits it (scheduler on_job_ok hook).
///     The background prober exists to generate exactly such a job on
///     a replica too idle to prove itself: a ping-class deduce with a
///     probe deadline, at most one in flight per replica.
///   * All-quarantined: RouteNew returns -1 and the server sheds the
///     request with kResourceExhausted plus a retry_after_ms hint of
///     one probe interval — the soonest health can change.
///
/// Drain: stops the prober, releases every injected wedge (a chaos run
/// must still exit 0 on SIGTERM), then drains each scheduler to its
/// fixpoint.
class ReplicaPool {
 public:
  /// Per-replica health/telemetry snapshot for the stats endpoint.
  struct ReplicaStats {
    bool healthy = true;
    int64_t load = 0;
    int64_t timeouts = 0;      ///< deadline expiries attributed here
    int64_t quarantines = 0;   ///< healthy -> quarantined transitions
    int64_t readmissions = 0;  ///< quarantined -> healthy transitions
    Scheduler::Stats scheduler;
  };

  /// The services are borrowed and must outlive the pool; one replica
  /// per service, in order (replica i serves services[i]).
  static Result<std::unique_ptr<ReplicaPool>> Create(
      std::vector<AccuracyService*> services, ReplicaPoolOptions options);

  ReplicaPool(const ReplicaPool&) = delete;
  ReplicaPool& operator=(const ReplicaPool&) = delete;
  ~ReplicaPool();

  int size() const { return static_cast<int>(replicas_.size()); }
  AccuracyService* service(int replica) { return replicas_[replica]->service; }
  Scheduler* scheduler(int replica) {
    return replicas_[replica]->scheduler.get();
  }
  const Scheduler* scheduler(int replica) const {
    return replicas_[replica]->scheduler.get();
  }

  /// Least-loaded healthy replica for brand-new work; -1 when every
  /// replica is quarantined (shed).
  int RouteNew() const;

  bool healthy(int replica) const {
    return replicas_[replica]->healthy.load();
  }
  int64_t quarantined_count() const;

  /// The retry hint handed out with a shed: one probe interval.
  int64_t shed_retry_after_ms() const { return options_.probe_interval_ms; }

  /// Discards the tenant's pending jobs on every replica (a vanished
  /// connection's work may be spread across the pool).
  void RemoveTenant(int64_t tenant);

  /// Graceful shutdown of the whole pool; idempotent, blocking.
  void Drain();
  bool draining() const;

  std::vector<ReplicaStats> replica_stats() const;

  /// Pool-wide scheduler stats: counters summed, percentiles taken as
  /// the worst (max) replica — a conservative figure for dashboards.
  Scheduler::Stats aggregate_stats() const;

  int64_t total_quarantines() const;
  int64_t total_readmissions() const;

 private:
  struct Replica {
    AccuracyService* service = nullptr;
    std::unique_ptr<Scheduler> scheduler;
    std::atomic<bool> healthy{true};
    std::atomic<int> consecutive_expiries{0};
    std::atomic<int64_t> timeouts{0};
    std::atomic<int64_t> quarantines{0};
    std::atomic<int64_t> readmissions{0};
    std::atomic<bool> probe_in_flight{false};
  };

  explicit ReplicaPool(ReplicaPoolOptions options);

  /// Scheduler on_deadline hook of replica `i`.
  void OnDeadlineExpired(int i);
  /// Scheduler on_job_ok hook of replica `i`.
  void OnJobOk(int i);
  void ProbeLoop();

  const ReplicaPoolOptions options_;
  /// unique_ptr elements: Replica holds atomics and must not move once
  /// the hooks capture its index.
  std::vector<std::unique_ptr<Replica>> replicas_;

  std::mutex probe_mu_;
  std::condition_variable probe_cv_;
  bool probe_stop_ = false;
  std::thread probe_thread_;

  std::atomic<bool> draining_{false};
};

}  // namespace serve
}  // namespace relacc

#endif  // RELACC_SERVE_REPLICA_POOL_H_
