#include "serve/server.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <limits>
#include <optional>
#include <utility>

#include "api/accuracy_service.h"
#include "api/version.h"
#include "io/spec_io.h"
#include "serve/socket.h"

namespace relacc {
namespace serve {

namespace {

/// Optional integer param with a default; wrong types are errors (a
/// silently-ignored typo'd param would be worse than a rejection).
Result<int64_t> OptInt(const Json& params, const std::string& key,
                       int64_t dflt) {
  const Json* v = params.Find(key);
  if (v == nullptr) return dflt;
  if (!v->is_int()) {
    return Status::InvalidArgument("param '" + key + "' must be an integer");
  }
  return v->as_int();
}

/// Optional `k` param: a value past int's range is rejected, not narrowed
/// into a different k (4294967297 would otherwise rank 1 candidate).
Result<int> OptK(const Json& params, int dflt) {
  Result<int64_t> k = OptInt(params, "k", dflt);
  if (!k.ok()) return k.status();
  if (k.value() < std::numeric_limits<int>::min() ||
      k.value() > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("param 'k' is out of range, got " +
                                   std::to_string(k.value()));
  }
  return static_cast<int>(k.value());
}

Result<std::string> OptString(const Json& params, const std::string& key,
                              std::string dflt) {
  const Json* v = params.Find(key);
  if (v == nullptr) return dflt;
  if (!v->is_string()) {
    return Status::InvalidArgument("param '" + key + "' must be a string");
  }
  return v->as_string();
}

Result<TopKAlgorithm> ParseAlgo(const std::string& algo) {
  if (algo == "topkct") return TopKAlgorithm::kTopKCT;
  if (algo == "heuristic") return TopKAlgorithm::kHeuristic;
  if (algo == "rankjoin") return TopKAlgorithm::kRankJoin;
  if (algo == "brute") return TopKAlgorithm::kBruteForce;
  return Status::InvalidArgument(
      "algo must be topkct, heuristic, rankjoin or brute");
}

Result<CompletionPolicy> ParseCompletion(const std::string& name) {
  if (name == "best") return CompletionPolicy::kBestCandidate;
  if (name == "heuristic") return CompletionPolicy::kHeuristic;
  if (name == "none") return CompletionPolicy::kLeaveNull;
  return Status::InvalidArgument(
      "completion must be best, heuristic or none");
}

/// Optional caller-supplied entity instance (`"entity"` param in the
/// wire form of EntitiesFromJson): empty when absent, error when
/// malformed. deduce and interact.start route it to the per-entity
/// AccuracyService overloads.
Result<std::optional<EntityInstance>> OptEntity(const Json& params,
                                                const Schema& schema) {
  const Json* node = params.Find("entity");
  if (node == nullptr) {
    return Result<std::optional<EntityInstance>>(std::nullopt);
  }
  Json array = Json::Array();
  array.Append(*node);
  Result<std::vector<EntityInstance>> parsed = EntitiesFromJson(array, schema);
  if (!parsed.ok()) return parsed.status();
  return Result<std::optional<EntityInstance>>(
      std::move(parsed.value().front()));
}

/// Methods that create a session or touch no session at all: routed to
/// the least-loaded healthy replica.
bool IsNewWorkMethod(const std::string& method) {
  return method == "pipeline.start" || method == "interact.start" ||
         method == "deduce" || method == "topk";
}

/// Methods that follow a session's replica pin via their `session`
/// param.
bool IsSessionBoundMethod(const std::string& method) {
  return method == "pipeline.submit" || method == "pipeline.poll" ||
         method == "pipeline.drain" || method == "pipeline.finish" ||
         method == "session.close" || method == "interact.suggest" ||
         method == "interact.revise" || method == "interact.accept";
}

/// The not-found wording each method family uses (kept stable across
/// the 0.9 -> 0.10 routing change: the id is now rejected at dispatch,
/// before a replica is involved).
std::string NoSuchSession(const std::string& method, int64_t sid) {
  const std::string num = std::to_string(sid);
  if (method.rfind("pipeline.", 0) == 0) return "no pipeline session " + num;
  if (method.rfind("interact.", 0) == 0) return "no interaction session " + num;
  return "no session " + num;
}

}  // namespace

Server::Connection::~Connection() {
  if (fd >= 0) CloseFd(fd);
}

Result<std::unique_ptr<Server>> Server::Start(AccuracyService* service,
                                              ServerOptions options) {
  return Start(std::vector<AccuracyService*>{service}, std::move(options));
}

Result<std::unique_ptr<Server>> Server::Start(
    std::vector<AccuracyService*> services, ServerOptions options) {
  if (services.empty()) {
    return Status::InvalidArgument("serve: no services");
  }
  for (const AccuracyService* service : services) {
    if (service == nullptr) {
      return Status::InvalidArgument("serve: null service");
    }
  }
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument("serve: port must be in [0, 65535]");
  }
  if (options.queue_depth < 1) {
    return Status::InvalidArgument("serve: queue_depth must be >= 1");
  }
  if (options.default_deadline_ms < 0) {
    return Status::InvalidArgument("serve: default_deadline_ms must be >= 0");
  }
  Result<std::unique_ptr<FaultInjector>> fault =
      FaultInjector::Parse(options.fault_inject);
  if (!fault.ok()) return fault.status();
  std::unique_ptr<Server> server(
      new Server(std::move(services), std::move(options)));
  server->fault_ = std::move(fault).value();
  Result<int> listener = ListenOn(server->options_.host, server->options_.port);
  if (!listener.ok()) return listener.status();
  server->listen_fd_ = listener.value();
  Result<int> port = BoundPort(server->listen_fd_);
  if (!port.ok()) {
    CloseFd(server->listen_fd_);
    return port.status();
  }
  server->port_ = port.value();
  if (pipe(server->drain_pipe_) != 0) {
    CloseFd(server->listen_fd_);
    return Status::IoError("serve: pipe() failed");
  }
  ReplicaPoolOptions pool_options;
  pool_options.queue_depth = server->options_.queue_depth;
  pool_options.quarantine_after = server->options_.quarantine_after;
  pool_options.probe_interval_ms = server->options_.probe_interval_ms;
  pool_options.probe_deadline_ms = server->options_.probe_deadline_ms;
  pool_options.fault = server->fault_.get();
  Result<std::unique_ptr<ReplicaPool>> pool =
      ReplicaPool::Create(server->services_, pool_options);
  if (!pool.ok()) {
    CloseFd(server->listen_fd_);
    return pool.status();
  }
  server->pool_ = std::move(pool).value();
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Server::Server(std::vector<AccuracyService*> services, ServerOptions options)
    : services_(std::move(services)),
      options_(std::move(options)),
      schema_(services_.front()->specification().ie.schema()) {}

Server::~Server() {
  RequestDrain();
  Wait();
  if (drain_pipe_[0] >= 0) CloseFd(drain_pipe_[0]);
  if (drain_pipe_[1] >= 0) CloseFd(drain_pipe_[1]);
}

void Server::RequestDrain() {
  // One byte on the self-pipe; async-signal-safe (write(2) only). The
  // accept loop treats any readable byte as the drain order. Writes after
  // the first are harmless; a full pipe (impossible here) would be too.
  if (drain_pipe_[1] >= 0) {
    const char byte = 'q';
    [[maybe_unused]] ssize_t n = write(drain_pipe_[1], &byte, 1);
  }
}

Status Server::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  return Status::OK();
}

void Server::AcceptLoop() {
  for (;;) {
    struct pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = drain_pipe_[0];
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    const int r = poll(fds, 2, -1);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // drain requested
    if (fds[0].revents == 0) continue;
    Result<int> client = AcceptConn(listen_fd_);
    if (!client.ok()) continue;
    auto conn = std::make_shared<Connection>();
    conn->fd = client.value();
    conn->tenant = next_tenant_.fetch_add(1);
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_[conn->tenant] = conn;
    readers_.emplace_back([this, conn] { ReaderLoop(conn); });
  }
  DoDrain();
}

void Server::DoDrain() {
  // 1. Stop accepting: nothing new can join the queues.
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  // 2. Flush admitted work across the pool. The pool first stops its
  //    health prober and releases injected wedges (a chaos run must
  //    still drain), then Enqueue rejects from here on
  //    ("failed-precondition") while continuations of in-flight batch
  //    submits keep running until their windows are flushed and their
  //    responses written — the graceful half of SIGTERM.
  pool_->Drain();
  // 3. Wake every reader blocked in recv and join them all.
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.reserve(conns_.size());
    for (auto& [tenant, conn] : conns_) conns.push_back(conn);
    readers.swap(readers_);
  }
  for (auto& conn : conns) ShutdownFd(conn->fd);
  for (std::thread& t : readers) t.join();
  conns.clear();
  // 4. Release the registry; the last reference destroys each
  //    connection's sessions (the executors have stopped, so this thread
  //    holds the final references).
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.clear();
}

void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  for (;;) {
    std::string payload;
    Result<bool> frame =
        ReadFrame(conn->fd, &payload, options_.max_frame_bytes);
    if (!frame.ok()) {
      // Truncated/oversized frame or socket error: the stream is no
      // longer frame-aligned. Best-effort id-0 error, then close.
      SendError(conn, 0, frame.status());
      break;
    }
    if (!frame.value()) break;  // clean EOF
    Result<Json> doc = Json::Parse(payload);
    if (!doc.ok()) {
      SendError(conn, 0, Status::ParseError("request is not valid JSON: " +
                                            doc.status().message()));
      break;
    }
    if (!Dispatch(conn, doc.value())) break;
  }
  conn->closed.store(true);
  // Discard whatever the connection still has queued on any replica
  // (nobody can observe the responses) and stop its batch continuations
  // at the next quantum.
  pool_->RemoveTenant(conn->tenant);
  ShutdownFd(conn->fd);
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(conn->tenant);
}

bool Server::Dispatch(const std::shared_ptr<Connection>& conn,
                      const Json& request) {
  if (!request.is_object()) {
    SendError(conn, 0, Status::ParseError("request must be a JSON object"));
    return false;
  }
  const Json* id_node = request.Find("id");
  const Json* method_node = request.Find("method");
  if (id_node == nullptr || !id_node->is_int() || method_node == nullptr ||
      !method_node->is_string()) {
    SendError(conn, 0,
              Status::ParseError(
                  "request needs an integer 'id' and a string 'method'"));
    return false;
  }
  const int64_t id = id_node->as_int();
  const std::string& method = method_node->as_string();
  Json params = Json::Object();
  if (const Json* p = request.Find("params"); p != nullptr) {
    if (!p->is_object()) {
      SendError(conn, 0, Status::ParseError("'params' must be an object"));
      return false;
    }
    params = *p;
  }

  // Service-free methods answer inline on the reader thread.
  if (method == "ping") {
    Json result = Json::Object();
    result.Set("pong", Json::Bool(true));
    SendResult(conn, id, std::move(result));
    return true;
  }
  if (method == "version") {
    Json result = Json::Object();
    result.Set("version", Json::Str(kRelaccVersion));
    SendResult(conn, id, std::move(result));
    return true;
  }
  if (method == "stats") {
    const Scheduler::Stats stats = pool_->aggregate_stats();
    Json result = Json::Object();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      result.Set("connections", Json::Int(static_cast<int64_t>(conns_.size())));
    }
    result.Set("draining", Json::Bool(pool_->draining()));
    result.Set("executed_interactive", Json::Int(stats.executed_interactive));
    result.Set("executed_batch", Json::Int(stats.executed_batch));
    result.Set("rejected", Json::Int(stats.rejected));
    result.Set("p50_interactive_ms", Json::Real(stats.p50_interactive_ms));
    result.Set("p99_interactive_ms", Json::Real(stats.p99_interactive_ms));
    result.Set("p50_batch_ms", Json::Real(stats.p50_batch_ms));
    result.Set("p99_batch_ms", Json::Real(stats.p99_batch_ms));
    // Failure-handling telemetry: deadline cancellations, shed load and
    // the per-replica health ledger.
    result.Set("deadline_exceeded", Json::Int(deadline_exceeded_.load()));
    result.Set("cancelled_queued", Json::Int(stats.cancelled_queued));
    result.Set("expired_running", Json::Int(stats.expired_running));
    result.Set("shed", Json::Int(shed_.load()));
    result.Set("quarantined_replicas", Json::Int(pool_->quarantined_count()));
    Json replicas = Json::Array();
    const std::vector<ReplicaPool::ReplicaStats> per_replica =
        pool_->replica_stats();
    for (std::size_t i = 0; i < per_replica.size(); ++i) {
      const ReplicaPool::ReplicaStats& r = per_replica[i];
      Json entry = Json::Object();
      entry.Set("replica", Json::Int(static_cast<int64_t>(i)));
      entry.Set("healthy", Json::Bool(r.healthy));
      entry.Set("load", Json::Int(r.load));
      entry.Set("executed", Json::Int(r.scheduler.executed_interactive +
                                      r.scheduler.executed_batch));
      entry.Set("timeouts", Json::Int(r.timeouts));
      entry.Set("quarantines", Json::Int(r.quarantines));
      entry.Set("readmissions", Json::Int(r.readmissions));
      replicas.Append(std::move(entry));
    }
    result.Set("replicas", std::move(replicas));
    // Storage telemetry of the underlying services: how they were built
    // (columnar / snapshot — identical across the pool) and how large the
    // dictionary grew.
    result.Set("storage_mode", Json::Str(services_.front()->storage_mode()));
    result.Set(
        "dictionary_terms",
        Json::Int(static_cast<int64_t>(services_.front()->dictionary_terms())));
    SendResult(conn, id, std::move(result));
    return true;
  }

  if (!IsNewWorkMethod(method) && !IsSessionBoundMethod(method)) {
    SendError(conn, id, Status::NotFound("unknown method '" + method + "'"));
    return true;
  }

  // Per-request deadline: the wire param wins over the daemon default.
  Result<int64_t> deadline_ms =
      OptInt(params, "deadline_ms", options_.default_deadline_ms);
  if (!deadline_ms.ok()) {
    SendError(conn, id, deadline_ms.status());
    return true;
  }
  if (deadline_ms.value() < 0) {
    SendError(conn, id,
              Status::InvalidArgument("param 'deadline_ms' must be >= 0"));
    return true;
  }

  // Routing: new work to the least-loaded healthy replica; session-bound
  // work follows the session's pin.
  int replica = -1;
  if (IsNewWorkMethod(method)) {
    replica = pool_->RouteNew();
    if (replica < 0) {
      shed_.fetch_add(1);
      SendError(conn, id,
                Status::ResourceExhausted(
                    "every replica is quarantined; retry shortly"),
                pool_->shed_retry_after_ms());
      return true;
    }
  } else {
    Result<int64_t> sid = params.GetInt("session");
    if (!sid.ok()) {
      SendError(conn, id, sid.status());
      return true;
    }
    {
      std::lock_guard<std::mutex> lock(conn->sessions_mu);
      auto it = conn->session_replica.find(sid.value());
      if (it != conn->session_replica.end()) replica = it->second;
    }
    if (replica < 0) {
      SendError(conn, id,
                Status::NotFound(NoSuchSession(method, sid.value())));
      return true;
    }
  }

  if (fault_ != nullptr && fault_->ShouldFailRequest(replica)) {
    SendError(conn, id,
              Status::Internal("injected fault (replica " +
                               std::to_string(replica) + ")"));
    return true;
  }

  auto responded = std::make_shared<std::atomic<bool>>(false);
  Scheduler::JobControl control;
  if (deadline_ms.value() > 0) {
    control.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(deadline_ms.value());
    control.on_deadline = [this, conn, id, responded,
                           ms = deadline_ms.value()] {
      if (responded->exchange(true)) return;  // the job already answered
      deadline_exceeded_.fetch_add(1);
      SendError(conn, id,
                Status::DeadlineExceeded("deadline of " + std::to_string(ms) +
                                         " ms exceeded"));
    };
  }

  // pipeline.submit parses its entity payload here on the reader thread
  // (the schema is immutable service state), so the executor's quantum is
  // pure service work and malformed batches are rejected without
  // occupying a queue slot.
  if (method == "pipeline.submit") {
    Result<int64_t> session = params.GetInt("session");
    if (!session.ok()) {
      SendError(conn, id, session.status());
      return true;
    }
    const Json* entities_node = params.Find("entities");
    if (entities_node == nullptr) {
      SendError(conn, id,
                Status::InvalidArgument("param 'entities' is required"));
      return true;
    }
    Result<std::vector<EntityInstance>> entities =
        EntitiesFromJson(*entities_node, schema_);
    if (!entities.ok()) {
      SendError(conn, id, entities.status());
      return true;
    }
    auto state = std::make_shared<SubmitState>();
    state->session = session.value();
    state->entities = std::move(entities).value();
    int64_t retry_after_ms = -1;
    Status admitted = pool_->scheduler(replica)->Enqueue(
        conn->tenant, JobClass::kBatch,
        [this, conn, id, state, replica, responded, control] {
          RunSubmitQuantum(conn, id, state, replica, responded, control);
        },
        control, &retry_after_ms);
    if (!admitted.ok()) SendError(conn, id, admitted, retry_after_ms);
    return true;
  }

  const JobClass cls =
      method == "pipeline.finish" ? JobClass::kBatch : JobClass::kInteractive;
  int64_t retry_after_ms = -1;
  Status admitted = pool_->scheduler(replica)->Enqueue(
      conn->tenant, cls,
      [this, conn, id, method, params, replica, responded] {
        RunJob(conn, id, method, params, replica, responded);
      },
      control, &retry_after_ms);
  if (!admitted.ok()) SendError(conn, id, admitted, retry_after_ms);
  return true;
}

void Server::RunSubmitQuantum(const std::shared_ptr<Connection>& conn,
                              int64_t id,
                              const std::shared_ptr<SubmitState>& state,
                              int replica, const ResponseGuard& responded,
                              const Scheduler::JobControl& control) {
  if (conn->closed.load()) return;
  // The watchdog already answered (deadline passed while this quantum
  // was queued or while the executor sat in pre_job): abandon the
  // submit; the session keeps what it has and the client restarts on a
  // fresh session.
  if (responded->load()) return;
  PipelineSession* session = nullptr;
  {
    std::lock_guard<std::mutex> lock(conn->sessions_mu);
    auto it = conn->pipelines.find(state->session);
    if (it != conn->pipelines.end()) session = it->second.get();
  }
  if (session == nullptr) {
    SendError(conn, id,
              Status::NotFound("no pipeline session " +
                               std::to_string(state->session)),
              -1, responded);
    return;
  }
  // One window per quantum: a Submit of `window` entities chases and
  // completes that window right here before returning — and then yields
  // the executor to whoever is next.
  const std::size_t take =
      std::min(static_cast<std::size_t>(session->window()),
               state->entities.size() - state->pos);
  std::vector<EntityInstance> chunk;
  chunk.reserve(take);
  const auto begin =
      state->entities.begin() + static_cast<std::ptrdiff_t>(state->pos);
  chunk.assign(std::make_move_iterator(begin),
               std::make_move_iterator(begin +
                                       static_cast<std::ptrdiff_t>(take)));
  Status submitted = session->Submit(std::move(chunk));
  if (!submitted.ok()) {
    SendError(conn, id, submitted, -1, responded);
    return;
  }
  state->pos += take;
  if (state->pos >= state->entities.size()) {
    Json result = Json::Object();
    result.Set("accepted",
               Json::Int(static_cast<int64_t>(state->entities.size())));
    SendResult(conn, id, std::move(result), responded);
    return;
  }
  // The continuation carries the same deadline contract: the watchdog
  // can cancel the remaining windows of an over-deadline submit.
  pool_->scheduler(replica)->RequeueFront(
      conn->tenant, JobClass::kBatch,
      [this, conn, id, state, replica, responded, control] {
        RunSubmitQuantum(conn, id, state, replica, responded, control);
      },
      control);
}

void Server::RunJob(const std::shared_ptr<Connection>& conn, int64_t id,
                    const std::string& method, const Json& params, int replica,
                    const ResponseGuard& responded) {
  if (conn->closed.load()) return;
  if (responded->load()) return;  // cancelled while queued / in pre_job
  AccuracyService* service = services_[static_cast<std::size_t>(replica)];

  if (method == "pipeline.start") {
    Result<int64_t> window = OptInt(params, "window", 0);
    Result<std::string> completion = OptString(params, "completion", "");
    if (!window.ok()) return SendError(conn, id, window.status(), -1, responded);
    if (!completion.ok()) {
      return SendError(conn, id, completion.status(), -1, responded);
    }
    PipelineSessionOptions options;
    options.window = window.value();
    if (!completion.value().empty()) {
      Result<CompletionPolicy> policy = ParseCompletion(completion.value());
      if (!policy.ok()) return SendError(conn, id, policy.status(), -1, responded);
      options.completion = policy.value();
    }
    Result<std::unique_ptr<PipelineSession>> session =
        service->StartPipeline(std::move(options));
    if (!session.ok()) return SendError(conn, id, session.status(), -1, responded);
    const int64_t sid = next_session_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(conn->sessions_mu);
      conn->pipelines[sid] = std::move(session).value();
      conn->session_replica[sid] = replica;
    }
    Json result = Json::Object();
    result.Set("session", Json::Int(sid));
    return SendResult(conn, id, std::move(result), responded);
  }

  if (method == "pipeline.poll" || method == "pipeline.drain" ||
      method == "pipeline.finish") {
    Result<int64_t> sid = params.GetInt("session");
    if (!sid.ok()) return SendError(conn, id, sid.status(), -1, responded);
    PipelineSession* session = nullptr;
    {
      std::lock_guard<std::mutex> lock(conn->sessions_mu);
      auto it = conn->pipelines.find(sid.value());
      if (it != conn->pipelines.end()) session = it->second.get();
    }
    if (session == nullptr) {
      return SendError(conn, id,
                       Status::NotFound("no pipeline session " +
                                        std::to_string(sid.value())),
                       -1, responded);
    }
    if (method == "pipeline.poll") {
      Json result = Json::Object();
      std::optional<EntityReport> report = session->Poll();
      result.Set("report", report.has_value()
                               ? EntityReportToJson(*report, schema_)
                               : Json::Null());
      return SendResult(conn, id, std::move(result), responded);
    }
    if (method == "pipeline.drain") {
      Json reports = Json::Array();
      for (const EntityReport& report : session->Drain()) {
        reports.Append(EntityReportToJson(report, schema_));
      }
      Json result = Json::Object();
      result.Set("reports", std::move(reports));
      return SendResult(conn, id, std::move(result), responded);
    }
    Result<PipelineReport> report = session->Finish();
    if (!report.ok()) return SendError(conn, id, report.status(), -1, responded);
    return SendResult(conn, id, PipelineReportToJson(report.value(), schema_),
                      responded);
  }

  if (method == "session.close") {
    Result<int64_t> sid = params.GetInt("session");
    if (!sid.ok()) return SendError(conn, id, sid.status(), -1, responded);
    std::unique_ptr<PipelineSession> pipeline;
    std::unique_ptr<InteractionSession> interaction;
    bool erased = false;
    {
      std::lock_guard<std::mutex> lock(conn->sessions_mu);
      if (auto it = conn->pipelines.find(sid.value());
          it != conn->pipelines.end()) {
        pipeline = std::move(it->second);
        conn->pipelines.erase(it);
        erased = true;
      } else if (auto jt = conn->interactions.find(sid.value());
                 jt != conn->interactions.end()) {
        interaction = std::move(jt->second);
        conn->interactions.erase(jt);
        erased = true;
      }
      conn->session_replica.erase(sid.value());
    }
    // `pipeline`/`interaction` destroy here, outside the map lock, on
    // the session's own pinned executor.
    if (!erased) {
      return SendError(conn, id,
                       Status::NotFound("no session " +
                                        std::to_string(sid.value())),
                       -1, responded);
    }
    Json result = Json::Object();
    result.Set("closed", Json::Bool(true));
    return SendResult(conn, id, std::move(result), responded);
  }

  if (method == "deduce") {
    Result<std::optional<EntityInstance>> entity = OptEntity(params, schema_);
    if (!entity.ok()) return SendError(conn, id, entity.status(), -1, responded);
    Result<ChaseOutcome> outcome =
        entity.value().has_value() ? service->DeduceEntity(*entity.value())
                                   : service->DeduceEntity();
    if (!outcome.ok()) return SendError(conn, id, outcome.status(), -1, responded);
    return SendResult(conn, id, OutcomeToJson(outcome.value(), schema_),
                      responded);
  }

  if (method == "topk") {
    Result<int> k = OptK(params, 5);
    Result<std::string> algo_name = OptString(params, "algo", "topkct");
    if (!k.ok()) return SendError(conn, id, k.status(), -1, responded);
    if (!algo_name.ok()) {
      return SendError(conn, id, algo_name.status(), -1, responded);
    }
    Result<TopKAlgorithm> algo = ParseAlgo(algo_name.value());
    if (!algo.ok()) return SendError(conn, id, algo.status(), -1, responded);
    Result<ChaseOutcome> outcome = service->DeduceEntity();
    if (!outcome.ok()) return SendError(conn, id, outcome.status(), -1, responded);
    if (!outcome.value().church_rosser) {
      return SendError(
          conn, id,
          Status::FailedPrecondition("specification is not Church-Rosser: " +
                                     outcome.value().violation),
          -1, responded);
    }
    Result<TopKResult> ranked = service->TopK(k.value(), algo.value());
    if (!ranked.ok()) return SendError(conn, id, ranked.status(), -1, responded);
    return SendResult(conn, id,
                      TopKReportToJson(outcome.value().target, ranked.value(),
                                       schema_),
                      responded);
  }

  if (method == "interact.start") {
    Result<int> k = OptK(params, 15);
    if (!k.ok()) return SendError(conn, id, k.status(), -1, responded);
    Result<std::optional<EntityInstance>> entity = OptEntity(params, schema_);
    if (!entity.ok()) return SendError(conn, id, entity.status(), -1, responded);
    InteractionOptions options;
    options.k = k.value();
    Result<std::unique_ptr<InteractionSession>> session =
        entity.value().has_value()
            ? service->StartInteraction(std::move(*entity.value()),
                                        std::move(options))
            : service->StartInteraction(std::move(options));
    if (!session.ok()) return SendError(conn, id, session.status(), -1, responded);
    const int64_t sid = next_session_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(conn->sessions_mu);
      conn->interactions[sid] = std::move(session).value();
      conn->session_replica[sid] = replica;
    }
    Json result = Json::Object();
    result.Set("session", Json::Int(sid));
    return SendResult(conn, id, std::move(result), responded);
  }

  if (method == "interact.suggest" || method == "interact.revise" ||
      method == "interact.accept") {
    Result<int64_t> sid = params.GetInt("session");
    if (!sid.ok()) return SendError(conn, id, sid.status(), -1, responded);
    InteractionSession* session = nullptr;
    {
      std::lock_guard<std::mutex> lock(conn->sessions_mu);
      auto it = conn->interactions.find(sid.value());
      if (it != conn->interactions.end()) session = it->second.get();
    }
    if (session == nullptr) {
      return SendError(conn, id,
                       Status::NotFound("no interaction session " +
                                        std::to_string(sid.value())),
                       -1, responded);
    }
    if (method == "interact.suggest") {
      Result<Suggestion> suggestion = session->Suggest();
      if (!suggestion.ok()) {
        return SendError(conn, id, suggestion.status(), -1, responded);
      }
      return SendResult(conn, id,
                        SuggestionToJson(suggestion.value(),
                                         session->finished(), schema_),
                        responded);
    }
    if (method == "interact.revise") {
      Result<std::string> attr = params.GetString("attr");
      if (!attr.ok()) return SendError(conn, id, attr.status(), -1, responded);
      std::optional<AttrId> a = schema_.IndexOf(attr.value());
      if (!a) {
        return SendError(conn, id,
                         Status::InvalidArgument("unknown attribute '" +
                                                 attr.value() + "'"),
                         -1, responded);
      }
      const Json* cell = params.Find("value");
      if (cell == nullptr) {
        return SendError(conn, id,
                         Status::InvalidArgument("param 'value' is required"),
                         -1, responded);
      }
      Result<Value> value = ValueFromJson(*cell, schema_.type(*a), "value");
      if (!value.ok()) return SendError(conn, id, value.status(), -1, responded);
      Status revised = session->Revise(*a, std::move(value).value());
      if (!revised.ok()) return SendError(conn, id, revised, -1, responded);
      Json result = Json::Object();
      result.Set("revisions", Json::Int(session->revisions()));
      return SendResult(conn, id, std::move(result), responded);
    }
    Result<int64_t> index = params.GetInt("index");
    if (!index.ok()) return SendError(conn, id, index.status(), -1, responded);
    Result<Tuple> target = session->Accept(static_cast<int>(index.value()));
    if (!target.ok()) return SendError(conn, id, target.status(), -1, responded);
    Json result = Json::Object();
    result.Set("target", TupleToJson(target.value(), schema_));
    result.Set("finished", Json::Bool(true));
    return SendResult(conn, id, std::move(result), responded);
  }

  SendError(conn, id, Status::NotFound("unknown method '" + method + "'"), -1,
            responded);
}

void Server::SendResult(const std::shared_ptr<Connection>& conn, int64_t id,
                        Json result, const ResponseGuard& responded) {
  if (responded && responded->exchange(true)) return;
  const std::string payload = MakeResponse(id, std::move(result)).Dump();
  std::lock_guard<std::mutex> lock(conn->write_mu);
  // A failed write means the peer vanished; the reader notices on its own.
  (void)WriteFrame(conn->fd, payload);
}

void Server::SendError(const std::shared_ptr<Connection>& conn, int64_t id,
                       const Status& status, int64_t retry_after_ms,
                       const ResponseGuard& responded) {
  if (responded && responded->exchange(true)) return;
  const std::string payload =
      MakeErrorResponse(id, WireErrorCode(status.code()), status.message(),
                        retry_after_ms)
          .Dump();
  std::lock_guard<std::mutex> lock(conn->write_mu);
  (void)WriteFrame(conn->fd, payload);
}

}  // namespace serve
}  // namespace relacc
