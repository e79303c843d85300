#ifndef RELACC_SERVE_SERVER_H_
#define RELACC_SERVE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/relation.h"
#include "serve/fault_injection.h"
#include "serve/replica_pool.h"
#include "serve/scheduler.h"
#include "serve/wire.h"
#include "util/json.h"
#include "util/status.h"

namespace relacc {

class AccuracyService;
class PipelineSession;
class InteractionSession;

namespace serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 binds an ephemeral port; read it back with port()

  /// Admission control: max pending requests per connection (see
  /// Scheduler::Options::queue_depth).
  int queue_depth = 32;

  /// Per-frame payload ceiling for incoming requests.
  uint32_t max_frame_bytes = kMaxFrameBytes;

  /// Default per-request deadline in ms; 0 = none. A request's own
  /// `deadline_ms` param overrides it.
  int64_t default_deadline_ms = 0;

  /// Replica health policy (see ReplicaPoolOptions).
  int quarantine_after = 3;
  int64_t probe_interval_ms = 200;
  int64_t probe_deadline_ms = 1000;

  /// Fault-injection spec (see FaultInjector); empty = no faults.
  std::string fault_inject;
};

/// The `relacc serve` daemon: a long-lived concurrent front end over a
/// POOL of AccuracyService replicas. Connections are accepted on a
/// dedicated thread; each gets a reader thread that decodes frames and a
/// tenant id. Every service-touching request runs as a scheduler job on
/// its replica's single executor thread (the service is not internally
/// synchronized; its thread budget parallelizes *inside* each job), so
/// responses are byte-identical to the same calls made directly against
/// a service — and byte-identical across --replicas 1/2/4, because every
/// replica is built from the same spec (or the same snapshot, sharing
/// its pages via mmap).
///
/// Request routing:
///
///   * `ping`, `version`, `stats` answer inline on the reader thread
///     (they never touch a service).
///   * Session-creating methods (`pipeline.start`, `interact.start`) and
///     stateless ones (`deduce`, `topk`) go to the least-loaded healthy
///     replica; the created session is pinned there for its lifetime.
///   * Session-bound methods follow the pin — session state lives inside
///     one replica's service, so its requests are serialized by that
///     replica's executor exactly as in the single-replica daemon.
///   * `pipeline.submit` and `pipeline.finish` are kBatch jobs;
///     multi-window submits run one window per quantum and re-queue
///     themselves, so a big batch never blockades an executor.
///
/// Failure handling:
///
///   * A request may carry `deadline_ms` (or inherit the daemon
///     default). The scheduler watchdog cancels it when the deadline
///     passes — queued work never runs; a running job is answered with
///     "deadline-exceeded" immediately while a response-once guard drops
///     its late result. Consecutive expiries quarantine the replica;
///     routing skips it; a background probe (a ping-class deduce) or any
///     pinned request completing in time re-admits it.
///   * With every replica quarantined, new work is shed with
///     "resource-exhausted" plus a retry_after_ms hint.
///   * All faults (delays, wedges, request failures) can be injected
///     deterministically via ServerOptions::fault_inject — the
///     chaos-serve CI lane runs the load generator against a wedged
///     replica and asserts byte-identical reports and a clean drain.
///
/// Graceful drain (SIGTERM via RequestDrain): stop accepting, release
/// injected wedges, reject new requests with "failed-precondition", run
/// everything already admitted — including the remaining windows of
/// in-flight batch submits — to completion, wake and join every reader,
/// then Wait() returns OK and the CLI exits 0.
class Server {
 public:
  /// Binds and starts serving one replica per service. The services must
  /// outlive the server, must all be built from the same specification,
  /// and must not be used directly while the server runs (the executors
  /// own them). kIoError when the address cannot be bound;
  /// kInvalidArgument on a malformed fault_inject spec.
  static Result<std::unique_ptr<Server>> Start(
      std::vector<AccuracyService*> services, ServerOptions options = {});
  /// Single-replica convenience (the pre-0.10 signature).
  static Result<std::unique_ptr<Server>> Start(AccuracyService* service,
                                               ServerOptions options = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Drains (if not already drained) and joins everything.
  ~Server();

  /// The bound port (resolves an ephemeral bind).
  int port() const { return port_; }

  /// Begins graceful shutdown. Thread-safe AND async-signal-safe (one
  /// write on a self-pipe), so SIGTERM handlers may call it directly.
  /// Idempotent.
  void RequestDrain();

  /// Blocks until the drain completes: listener closed, admitted work
  /// flushed, connections closed, all threads joined. OK on a clean
  /// drain. Call once, from one thread (the CLI's main thread).
  Status Wait();

  /// Pool-wide scheduler stats (counters summed, percentiles worst-of).
  Scheduler::Stats scheduler_stats() const { return pool_->aggregate_stats(); }
  int replicas() const { return pool_->size(); }
  int64_t deadline_exceeded() const { return deadline_exceeded_.load(); }
  int64_t shed() const { return shed_.load(); }
  const ReplicaPool& pool() const { return *pool_; }
  /// The ServerOptions::fault_inject injector; null for an empty spec.
  FaultInjector* fault_injector() const { return fault_.get(); }

 private:
  /// One response per request id: the scheduler job and the deadline
  /// watchdog race to claim it; whoever exchanges false->true answers
  /// the client, the loser stays silent.
  using ResponseGuard = std::shared_ptr<std::atomic<bool>>;

  /// One client connection. The session maps are guarded by sessions_mu
  /// (different sessions of one connection may be pinned to different
  /// replicas, so different executor threads insert/look up
  /// concurrently); each session OBJECT is only ever dereferenced by
  /// its pinned replica's executor.
  struct Connection {
    int fd = -1;
    int64_t tenant = 0;
    std::mutex write_mu;            ///< serializes response frames
    std::atomic<bool> closed{false};
    std::mutex sessions_mu;
    std::unordered_map<int64_t, std::unique_ptr<PipelineSession>> pipelines;
    std::unordered_map<int64_t, std::unique_ptr<InteractionSession>>
        interactions;
    std::unordered_map<int64_t, int> session_replica;  ///< the pin
    ~Connection();
  };

  /// Cross-quantum state of one pipeline.submit request.
  struct SubmitState {
    int64_t session = 0;
    std::vector<EntityInstance> entities;
    std::size_t pos = 0;
  };

  Server(std::vector<AccuracyService*> services, ServerOptions options);

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);

  /// Routes one decoded request. Returns false on a protocol error (the
  /// connection must close).
  bool Dispatch(const std::shared_ptr<Connection>& conn, const Json& request);

  /// Runs one request on `replica`'s executor thread.
  void RunJob(const std::shared_ptr<Connection>& conn, int64_t id,
              const std::string& method, const Json& params, int replica,
              const ResponseGuard& responded);

  /// One batch quantum of a pipeline.submit: at most one window, then a
  /// continuation via RequeueFront on the same replica.
  void RunSubmitQuantum(const std::shared_ptr<Connection>& conn, int64_t id,
                        const std::shared_ptr<SubmitState>& state, int replica,
                        const ResponseGuard& responded,
                        const Scheduler::JobControl& control);

  /// A null `responded` sends unconditionally; a claimed one drops the
  /// frame (someone already answered this id).
  void SendResult(const std::shared_ptr<Connection>& conn, int64_t id,
                  Json result, const ResponseGuard& responded = {});
  /// `retry_after_ms >= 0` rides along as error.retry_after_ms — the
  /// scheduler's backpressure hint on resource-exhausted rejections and
  /// the shed hint when every replica is quarantined.
  void SendError(const std::shared_ptr<Connection>& conn, int64_t id,
                 const Status& status, int64_t retry_after_ms = -1,
                 const ResponseGuard& responded = {});

  /// Performs the drain on the accept thread after the self-pipe fires.
  void DoDrain();

  std::vector<AccuracyService*> services_;
  const ServerOptions options_;
  Schema schema_;  ///< the serving spec's entity schema, copied once

  int listen_fd_ = -1;
  int port_ = 0;
  int drain_pipe_[2] = {-1, -1};  ///< [read, write]; write end is signal-safe

  std::unique_ptr<FaultInjector> fault_;
  std::unique_ptr<ReplicaPool> pool_;

  std::mutex conns_mu_;
  std::unordered_map<int64_t, std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> readers_;

  std::atomic<int64_t> next_tenant_{1};
  std::atomic<int64_t> next_session_{1};
  std::atomic<int64_t> deadline_exceeded_{0};  ///< deadline errors sent
  std::atomic<int64_t> shed_{0};  ///< requests shed (all replicas down)

  std::thread accept_thread_;
};

}  // namespace serve
}  // namespace relacc

#endif  // RELACC_SERVE_SERVER_H_
