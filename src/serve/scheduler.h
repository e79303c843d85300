#ifndef RELACC_SERVE_SCHEDULER_H_
#define RELACC_SERVE_SCHEDULER_H_

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "util/status.h"

namespace relacc {
namespace serve {

/// How the scheduler classifies a job. The daemon multiplexes every
/// client onto ONE AccuracyService replica per scheduler, and the
/// service is not internally synchronized — so all service work funnels
/// through the scheduler's single executor thread, and the service's
/// thread budget parallelizes *inside* each job. Arbitration is
/// therefore about which tenant's job the executor runs next:
///
///   * kInteractive — latency-sensitive, bounded work: an interaction
///     round, a top-k call, pipeline control ops. Strict priority over
///     batch work; round-robin across tenants within the class.
///   * kBatch — throughput work chopped into window-sized quanta: one
///     pipeline window per job, with multi-window submissions re-queued
///     as continuations (RequeueFront keeps a tenant's batch stream
///     FIFO). Round-robin across tenants, so two streaming clients
///     interleave window for window.
///
/// An interactive request thus waits for at most the quantum in flight —
/// one window — no matter how large a competing batch job is. Pipeline
/// sessions process their windows on the calling thread, so the one
/// executor arbitrates all sessions and no session runs a thread of its
/// own (see PipelineSession).
enum class JobClass { kInteractive, kBatch };

/// Per-tenant bounded queues + single executor thread + a deadline
/// watchdog. Admission control: a tenant may have at most `queue_depth`
/// jobs pending across both classes; Enqueue beyond that is rejected
/// with kResourceExhausted (the server surfaces it as a
/// "resource-exhausted" wire error, not by blocking the connection's
/// reader).
///
/// Deadlines: a job may carry one (JobControl::deadline). The watchdog
/// thread cancels queued jobs whose deadline passes before they run —
/// they are removed and never execute — and marks the running job
/// expired when its deadline passes mid-flight (the executor cannot
/// preempt it, but the job's `on_deadline` fires immediately, so the
/// server can answer the client without waiting for a wedged or slow
/// replica). The replica pool's quarantine policy listens on the
/// Options hooks.
class Scheduler {
 public:
  struct Options {
    /// Max pending jobs per tenant (continuations are exempt: a
    /// multi-window batch job occupies one slot for its whole life).
    int queue_depth = 32;

    /// Runs on the executor thread immediately before every job — the
    /// fault-injection hook (delays and wedges happen here, so they
    /// stall the replica exactly like a genuinely slow service would).
    std::function<void()> pre_job;

    /// A job's deadline expired: `was_running` distinguishes a running
    /// job that overran (the executor is stuck with it) from a queued
    /// job that was cancelled before it started (backlog, not
    /// sickness). Called with the scheduler lock released; the replica
    /// pool counts consecutive expiries here to quarantine a replica.
    std::function<void(bool was_running)> on_deadline;

    /// A job completed before its deadline (or had none). The pool
    /// resets its consecutive-expiry count here — and re-admits a
    /// quarantined replica whose health probe made it this far.
    std::function<void()> on_job_ok;
  };

  /// Per-job deadline contract of Enqueue/RequeueFront. `on_deadline`
  /// fires (from the watchdog thread, at most once per job) when the
  /// deadline passes with the job still queued or running; the server
  /// uses it to send kDeadlineExceeded while a response-once guard keeps
  /// the late real result from going out twice.
  struct JobControl {
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();  ///< max() = none
    std::function<void()> on_deadline;
  };

  struct Stats {
    int64_t executed_interactive = 0;
    int64_t executed_batch = 0;
    int64_t rejected = 0;  ///< admission-control rejections
    /// Summed over interactive jobs: the batch jobs (quanta) still queued
    /// when each one started — those it overtook by strict priority.
    int64_t batch_queued_at_interactive = 0;
    /// Deadline accounting: queued jobs cancelled before running, and
    /// running jobs that overran (they still finish; the expiry fired
    /// their on_deadline early).
    int64_t cancelled_queued = 0;
    int64_t expired_running = 0;
    /// Executor latency (enqueue → job completion, queue wait included)
    /// percentiles per class, in milliseconds. Approximate: read off a
    /// log2-bucket histogram, so a value is the upper bound of the
    /// bucket its percentile falls in; 0 when the class has no samples
    /// yet (or every sample finished within a millisecond).
    double p50_interactive_ms = 0.0;
    double p99_interactive_ms = 0.0;
    double p50_batch_ms = 0.0;
    double p99_batch_ms = 0.0;
  };

  Scheduler();  ///< default Options
  explicit Scheduler(Options options);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Stops abruptly: pending jobs are discarded.
  ~Scheduler();

  /// Queues `job` for `tenant`. kResourceExhausted when the tenant's
  /// queues are full; kFailedPrecondition once draining/stopped. On a
  /// resource-exhausted rejection, a non-null `retry_after_ms` receives
  /// a backpressure hint: roughly how long the tenant's pending backlog
  /// needs to drain (pending jobs × observed mean job time), i.e. when a
  /// retry has a fair chance of being admitted. Untouched on success.
  Status Enqueue(int64_t tenant, JobClass cls, std::function<void()> job,
                 int64_t* retry_after_ms = nullptr);
  Status Enqueue(int64_t tenant, JobClass cls, std::function<void()> job,
                 JobControl control, int64_t* retry_after_ms = nullptr);

  /// Re-queues a continuation at the FRONT of the tenant's queue for
  /// `cls`: exempt from admission control, and guaranteed to run before
  /// anything else the tenant has pending in that class — a multi-window
  /// batch submission stays one logical FIFO job even though each window
  /// is its own quantum. Only meaningful from inside a running job of
  /// the same tenant. Accepted even while draining (drain owes
  /// continuations their completion: that is the "flush in-flight
  /// windows" half of graceful shutdown). Dropped when the tenant was
  /// removed while this job ran (the tombstone in RemoveTenant) — a
  /// vanished client's continuation must not resurrect its state.
  void RequeueFront(int64_t tenant, JobClass cls, std::function<void()> job);
  void RequeueFront(int64_t tenant, JobClass cls, std::function<void()> job,
                    JobControl control);

  /// Discards every job `tenant` has pending (a vanished client's work
  /// is unobservable) and reaps the tenant's queue state. Its running
  /// job, if any, finishes normally — but a tombstone makes that job's
  /// RequeueFront a no-op, so nothing of the tenant survives the job.
  void RemoveTenant(int64_t tenant);

  /// Graceful shutdown: rejects further Enqueue calls, runs everything
  /// already queued (including continuations those jobs spawn) to
  /// completion, then stops the executor and the watchdog. Idempotent;
  /// blocks until both threads have exited.
  void Drain();

  /// True once Drain() has begun (jobs observing this can cut work
  /// short; none are required to).
  bool draining() const;

  /// Queued jobs plus the running one, across all tenants: the load
  /// metric the replica pool's least-loaded routing reads. A wedged
  /// replica's stuck job and the backlog behind it show up here, so
  /// routing steers away from it even before quarantine.
  int64_t load() const;

  /// Tenants with queue state right now. Bounded by the live-connection
  /// count: PopNext reaps entries that empty out and RemoveTenant reaps
  /// the rest (tests pin this — tenant state must not leak across
  /// vanished connections).
  int64_t tenant_count() const;

  Stats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// A queued job with its admission timestamp, so completion can
  /// attribute the full enqueue-to-done latency (queue wait included),
  /// plus its deadline contract.
  struct QueuedJob {
    std::function<void()> fn;
    Clock::time_point enqueued;
    Clock::time_point deadline = Clock::time_point::max();
    std::function<void()> on_deadline;
  };

  struct TenantQueues {
    std::deque<QueuedJob> interactive;
    std::deque<QueuedJob> batch;
    bool empty() const { return interactive.empty() && batch.empty(); }
    int64_t size() const {
      return static_cast<int64_t>(interactive.size() + batch.size());
    }
  };

  /// Log2-bucket latency histogram: bucket i counts samples whose
  /// millisecond latency has bit width i (so bucket 0 is sub-ms, bucket
  /// 1 is 1 ms, bucket 2 is 2–3 ms, ...). Constant space, O(1) record,
  /// percentile read-off in one pass.
  struct LatencyHistogram {
    std::array<int64_t, 32> buckets{};
    int64_t count = 0;
    void Record(int64_t ms);
    /// The upper bound (in ms) of the bucket holding percentile `p`
    /// (0 < p <= 1); 0.0 with no samples.
    double PercentileMs(double p) const;
  };

  void ExecutorLoop();
  void WatchdogLoop();

  /// Pops the next job under `mu_` honoring class priority and
  /// round-robin; false when nothing is queued. Reaps a tenant entry
  /// that the pop emptied. `tenant` receives the popped job's owner
  /// (the executor records it for RemoveTenant's tombstone check).
  bool PopNext(QueuedJob* job, JobClass* cls, int64_t* tenant);

  /// Appends `tenant` to the ready rotation of `cls` unless present.
  void MarkReady(int64_t tenant, JobClass cls);

  /// Under `mu_`: earliest deadline among queued jobs and the running
  /// one (max() when nothing has a deadline).
  Clock::time_point EarliestDeadline() const;

  /// Under `mu_`: removes queued jobs whose deadline passed and marks an
  /// overrunning running job expired; the fired callbacks are collected
  /// for the caller to invoke with the lock released.
  void CollectExpired(Clock::time_point now,
                      std::vector<std::function<void()>>* fired);

  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;      ///< executor: work arrived / shutdown
  std::condition_variable deadline_cv_;  ///< watchdog: deadlines changed
  std::unordered_map<int64_t, TenantQueues> tenants_;
  /// Round-robin rotations: tenants with at least one queued job of the
  /// class, each at most once.
  std::deque<int64_t> ready_interactive_;
  std::deque<int64_t> ready_batch_;
  /// Tenants removed while their job was running: the job's
  /// RequeueFront is dropped instead of resurrecting the entry. Erased
  /// when that job completes, so the set stays bounded by one entry per
  /// executor.
  std::unordered_set<int64_t> tombstones_;
  bool draining_ = false;
  bool stop_ = false;
  Stats stats_;
  LatencyHistogram latency_interactive_;
  LatencyHistogram latency_batch_;
  /// Total executor-occupancy time, the basis of the retry-after hint's
  /// mean job time (jobs of both classes share the one executor).
  int64_t total_exec_ms_ = 0;
  int64_t queued_count_ = 0;  ///< jobs sitting in tenant queues
  // Running-job state the watchdog reads (all under mu_).
  bool running_ = false;
  bool running_expired_ = false;
  int64_t running_tenant_ = 0;
  Clock::time_point running_deadline_ = Clock::time_point::max();
  std::function<void()> running_on_deadline_;
  std::thread executor_;
  std::thread watchdog_;
};

}  // namespace serve
}  // namespace relacc

#endif  // RELACC_SERVE_SCHEDULER_H_
