// Tests for the serve subsystem: the frame codec, the fair-share
// scheduler, and the daemon end-to-end over real sockets — including the
// byte-identity of serve responses with direct AccuracyService calls,
// which is the contract the serve-smoke CI lane enforces against the
// batch CLI.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/accuracy_service.h"
#include "serve/client.h"
#include "serve/fault_injection.h"
#include "serve/replica_pool.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "serve/wire.h"
#include "mj_fixture.h"
#include "util/json.h"

namespace relacc {
namespace {

using serve::JobClass;
using serve::ReadFrame;
using serve::Scheduler;
using serve::ServeClient;
using serve::Server;
using serve::ServerOptions;
using serve::WriteFrame;
using testing_fixture::MjSpecification;
using testing_fixture::StatRelation;

std::vector<EntityInstance> MakeEntities(int n) {
  const Relation stat = StatRelation();
  std::vector<EntityInstance> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EntityInstance e(i, stat.schema());
    for (const Tuple& t : stat.tuples()) e.Add(t);
    out.push_back(std::move(e));
  }
  return out;
}

// --- frame codec -----------------------------------------------------------

struct SocketPair {
  SocketPair() { EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    CloseWriter();
    if (fds[1] >= 0) close(fds[1]);
  }
  /// Closes the writing end (hangs up mid-stream from the reader's view).
  void CloseWriter() {
    if (fds[0] >= 0) close(fds[0]);
    fds[0] = -1;
  }
  int fds[2] = {-1, -1};
};

TEST(ServeWire, FrameRoundTrip) {
  SocketPair pair;
  const std::string payload = "{\"id\":1,\"method\":\"ping\",\"params\":{}}";
  ASSERT_TRUE(WriteFrame(pair.fds[0], payload).ok());
  std::string got;
  Result<bool> frame = ReadFrame(pair.fds[1], &got);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(frame.value());
  EXPECT_EQ(got, payload);
}

TEST(ServeWire, EmptyPayloadRoundTrips) {
  SocketPair pair;
  ASSERT_TRUE(WriteFrame(pair.fds[0], "").ok());
  std::string got = "sentinel";
  Result<bool> frame = ReadFrame(pair.fds[1], &got);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(frame.value());
  EXPECT_EQ(got, "");
}

TEST(ServeWire, CleanEofBetweenFrames) {
  SocketPair pair;
  pair.CloseWriter();
  std::string got;
  Result<bool> frame = ReadFrame(pair.fds[1], &got);
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(frame.value());  // EOF at a frame boundary is not an error
}

TEST(ServeWire, TruncatedLengthPrefixIsParseError) {
  SocketPair pair;
  const char half[2] = {0, 0};
  ASSERT_EQ(send(pair.fds[0], half, 2, 0), 2);
  pair.CloseWriter();
  std::string got;
  Result<bool> frame = ReadFrame(pair.fds[1], &got);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kParseError);
}

TEST(ServeWire, TruncatedPayloadIsParseError) {
  SocketPair pair;
  const std::string frame_bytes = serve::EncodeFrame("full payload");
  // Send the header plus half the payload, then hang up.
  ASSERT_EQ(send(pair.fds[0], frame_bytes.data(), 9, 0), 9);
  pair.CloseWriter();
  std::string got;
  Result<bool> frame = ReadFrame(pair.fds[1], &got);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kParseError);
}

TEST(ServeWire, OversizedFrameIsRejected) {
  SocketPair pair;
  ASSERT_TRUE(WriteFrame(pair.fds[0], "0123456789").ok());
  std::string got;
  Result<bool> frame = ReadFrame(pair.fds[1], &got, /*max_bytes=*/4);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeWire, ErrorCodeMappingRoundTrips) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kIoError, StatusCode::kParseError,
        StatusCode::kResourceExhausted}) {
    EXPECT_EQ(serve::StatusCodeFromWire(serve::WireErrorCode(code)), code);
  }
  EXPECT_EQ(serve::StatusCodeFromWire("no-such-code"), StatusCode::kInternal);
}

// --- scheduler -------------------------------------------------------------

TEST(ServeScheduler, RejectsWhenTenantQueueFull) {
  Scheduler::Options options;
  options.queue_depth = 2;
  Scheduler scheduler(options);
  // Block the executor so queued jobs stay queued.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool blocked = false;
  ASSERT_TRUE(scheduler
                  .Enqueue(1, JobClass::kInteractive,
                           [&] {
                             std::unique_lock<std::mutex> lock(mu);
                             blocked = true;
                             cv.notify_all();
                             cv.wait(lock, [&] { return release; });
                           })
                  .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked; });
  }
  EXPECT_TRUE(scheduler.Enqueue(1, JobClass::kBatch, [] {}).ok());
  EXPECT_TRUE(scheduler.Enqueue(1, JobClass::kInteractive, [] {}).ok());
  Status rejected = scheduler.Enqueue(1, JobClass::kBatch, [] {});
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  // Another tenant is unaffected: the bound is per tenant.
  EXPECT_TRUE(scheduler.Enqueue(2, JobClass::kBatch, [] {}).ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Drain();
  EXPECT_EQ(scheduler.stats().rejected, 1);
}

TEST(ServeScheduler, InteractiveOvertakesBatchChain) {
  Scheduler scheduler;
  std::mutex mu;
  std::vector<std::string> order;
  std::condition_variable cv;
  bool interactive_enqueued = false;
  constexpr int kQuanta = 50;
  // A self-requeuing batch chain, the shape of a multi-window submit.
  // The FIRST quantum blocks until the interactive job is enqueued, so
  // the interleaving is deterministic: the interactive job arrives
  // while exactly one batch quantum is in flight, no matter how the
  // executor and this thread are scheduled (TSan skews them heavily).
  std::function<void(int)> quantum = [&](int remaining) {
    {
      std::unique_lock<std::mutex> lock(mu);
      order.push_back("batch");
      if (remaining == kQuanta) {
        cv.notify_all();  // the chain is in flight: release the enqueuer
        cv.wait(lock, [&] { return interactive_enqueued; });
      }
    }
    if (remaining > 1) {
      scheduler.RequeueFront(1, JobClass::kBatch,
                             [&quantum, remaining] { quantum(remaining - 1); });
    }
  };
  ASSERT_TRUE(
      scheduler.Enqueue(1, JobClass::kBatch, [&] { quantum(kQuanta); }).ok());
  {
    // The interactive job must arrive while quantum 1 is IN FLIGHT (not
    // merely queued — the executor would then rightly run interactive
    // first and the position assertion below would be vacuous).
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !order.empty(); });
  }
  ASSERT_TRUE(scheduler
                  .Enqueue(2, JobClass::kInteractive,
                           [&] {
                             std::lock_guard<std::mutex> lock(mu);
                             order.push_back("interactive");
                           })
                  .ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    interactive_enqueued = true;
  }
  cv.notify_all();
  scheduler.Drain();
  ASSERT_EQ(static_cast<int>(order.size()), kQuanta + 1);
  int interactive_at = -1;
  for (int i = 0; i < static_cast<int>(order.size()); ++i) {
    if (order[i] == "interactive") interactive_at = i;
  }
  // Strict priority: the interactive job waited only for the one batch
  // quantum in flight — never for the whole chain. The in-flight
  // quantum requeues its continuation, but class priority runs the
  // interactive job before it.
  EXPECT_EQ(interactive_at, 1);
}

TEST(ServeScheduler, DrainRunsPendingJobsAndContinuations) {
  Scheduler scheduler;
  std::atomic<int> ran{0};
  std::function<void(int)> chain = [&](int remaining) {
    ran.fetch_add(1);
    if (remaining > 1) {
      scheduler.RequeueFront(1, JobClass::kBatch,
                             [&chain, remaining] { chain(remaining - 1); });
    }
  };
  ASSERT_TRUE(scheduler.Enqueue(1, JobClass::kBatch, [&] { chain(20); }).ok());
  ASSERT_TRUE(
      scheduler.Enqueue(2, JobClass::kInteractive, [&] { ran.fetch_add(1); })
          .ok());
  scheduler.Drain();
  // Drain owes continuations their completion: all 20 quanta plus the
  // interactive job ran even though Drain began immediately.
  EXPECT_EQ(ran.load(), 21);
  Status late = scheduler.Enqueue(3, JobClass::kInteractive, [] {});
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
}

TEST(ServeScheduler, RemoveTenantDiscardsPendingJobs) {
  Scheduler scheduler;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool blocked = false;
  std::atomic<int> ran{0};
  ASSERT_TRUE(scheduler
                  .Enqueue(1, JobClass::kInteractive,
                           [&] {
                             std::unique_lock<std::mutex> lock(mu);
                             blocked = true;
                             cv.notify_all();
                             cv.wait(lock, [&] { return release; });
                           })
                  .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked; });
  }
  ASSERT_TRUE(
      scheduler.Enqueue(1, JobClass::kBatch, [&] { ran.fetch_add(1); }).ok());
  ASSERT_TRUE(
      scheduler.Enqueue(2, JobClass::kBatch, [&] { ran.fetch_add(1); }).ok());
  scheduler.RemoveTenant(1);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Drain();
  EXPECT_EQ(ran.load(), 1);  // only tenant 2's job survived
}

TEST(ServeScheduler, RejectionCarriesRetryAfterHint) {
  Scheduler::Options options;
  options.queue_depth = 2;
  Scheduler scheduler(options);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool blocked = false;
  ASSERT_TRUE(scheduler
                  .Enqueue(1, JobClass::kInteractive,
                           [&] {
                             std::unique_lock<std::mutex> lock(mu);
                             blocked = true;
                             cv.notify_all();
                             cv.wait(lock, [&] { return release; });
                           })
                  .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked; });
  }
  ASSERT_TRUE(scheduler.Enqueue(1, JobClass::kBatch, [] {}).ok());
  ASSERT_TRUE(scheduler.Enqueue(1, JobClass::kInteractive, [] {}).ok());
  int64_t retry_after_ms = -1;
  Status rejected =
      scheduler.Enqueue(1, JobClass::kBatch, [] {}, &retry_after_ms);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  // Two jobs pending at >= 1ms assumed mean each.
  EXPECT_GE(retry_after_ms, 2);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Drain();
}

TEST(ServeScheduler, PerClassLatencyPercentiles) {
  Scheduler scheduler;
  // No samples yet: all four percentiles are zero.
  EXPECT_EQ(scheduler.stats().p50_interactive_ms, 0.0);
  EXPECT_EQ(scheduler.stats().p99_interactive_ms, 0.0);
  EXPECT_EQ(scheduler.stats().p50_batch_ms, 0.0);
  EXPECT_EQ(scheduler.stats().p99_batch_ms, 0.0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(scheduler
                    .Enqueue(1, JobClass::kInteractive,
                             [] {
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(3));
                             })
                    .ok());
    ASSERT_TRUE(scheduler
                    .Enqueue(1, JobClass::kBatch,
                             [] {
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(20));
                             })
                    .ok());
  }
  scheduler.Drain();
  const Scheduler::Stats stats = scheduler.stats();
  // Latency is enqueue -> completion, so every sample is at least the
  // job's own sleep; the log2 buckets report the bucket upper bound.
  EXPECT_GE(stats.p50_interactive_ms, 3.0);
  EXPECT_GE(stats.p99_interactive_ms, stats.p50_interactive_ms);
  EXPECT_GE(stats.p50_batch_ms, 20.0);
  EXPECT_GE(stats.p99_batch_ms, stats.p50_batch_ms);
  // Interactive overtakes the queued batch jobs, so its waits stay
  // bounded by the short jobs while batch piles up behind the sleeps.
  EXPECT_GT(stats.p50_batch_ms, stats.p50_interactive_ms);
}

// --- client backpressure hint ----------------------------------------------

TEST(ServeClientTest, SurfacesRetryAfterHint) {
  // A hand-rolled one-connection server: rejects the first request with
  // a retry hint, the second without one.
  Result<int> listener = serve::ListenOn("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const int port = serve::BoundPort(listener.value()).value();
  std::thread fake([fd = listener.value()] {
    Result<int> conn = serve::AcceptConn(fd);
    if (!conn.ok()) return;
    for (const int64_t hint : {int64_t{250}, int64_t{-1}}) {
      std::string payload;
      Result<bool> frame = ReadFrame(conn.value(), &payload);
      if (!frame.ok() || !frame.value()) break;
      Result<Json> request = Json::Parse(payload);
      if (!request.ok()) break;
      const int64_t id = request.value().GetInt("id").value();
      (void)WriteFrame(conn.value(),
                       serve::MakeErrorResponse(id, "resource-exhausted",
                                                "queue full", hint)
                           .Dump());
    }
    serve::CloseFd(conn.value());
  });
  Result<std::unique_ptr<ServeClient>> client =
      ServeClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<Json> first = client.value()->Call("anything", Json::Object());
  EXPECT_EQ(first.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(client.value()->last_retry_after_ms(), 250);
  Result<Json> second = client.value()->Call("anything", Json::Object());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  // The hint does not linger across calls that carry none.
  EXPECT_EQ(client.value()->last_retry_after_ms(), -1);
  fake.join();
  serve::CloseFd(listener.value());
}

// --- server end-to-end -----------------------------------------------------

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<std::unique_ptr<AccuracyService>> service =
        AccuracyService::Create(MjSpecification(), ServiceOptions{});
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(service).value();
    Result<std::unique_ptr<Server>> server =
        Server::Start(service_.get(), ServerOptions{});
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  std::unique_ptr<ServeClient> Connect() {
    Result<std::unique_ptr<ServeClient>> client =
        ServeClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(client).value() : nullptr;
  }

  /// Drives one whole pipeline over the wire and returns the finish
  /// report's compact dump.
  std::string PipelineOverWire(ServeClient* client, int entities,
                               int64_t window) {
    Json start = Json::Object();
    start.Set("window", Json::Int(window));
    Result<Json> started = client->Call("pipeline.start", std::move(start));
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    if (!started.ok()) return "";
    const int64_t sid = started.value().GetInt("session").value();

    Json submit = Json::Object();
    submit.Set("session", Json::Int(sid));
    submit.Set("entities", serve::EntitiesToJson(
                               MakeEntities(entities),
                               service_->specification().ie.schema()));
    Result<Json> accepted = client->Call("pipeline.submit", std::move(submit));
    EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();
    if (!accepted.ok()) return "";
    EXPECT_EQ(accepted.value().GetInt("accepted").value(), entities);

    Json finish = Json::Object();
    finish.Set("session", Json::Int(sid));
    Result<Json> report = client->Call("pipeline.finish", std::move(finish));
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? report.value().Dump() : "";
  }

  /// The same pipeline, directly against an identically-configured
  /// service — the byte-identity reference.
  std::string PipelineDirect(int entities, int64_t window) {
    Result<std::unique_ptr<AccuracyService>> service =
        AccuracyService::Create(MjSpecification(), ServiceOptions{});
    EXPECT_TRUE(service.ok());
    PipelineSessionOptions options;
    options.window = window;
    Result<std::unique_ptr<PipelineSession>> session =
        service.value()->StartPipeline(std::move(options));
    EXPECT_TRUE(session.ok());
    EXPECT_TRUE(session.value()->Submit(MakeEntities(entities)).ok());
    Result<PipelineReport> report = session.value()->Finish();
    EXPECT_TRUE(report.ok());
    return serve::PipelineReportToJson(
               report.value(), service.value()->specification().ie.schema())
        .Dump();
  }

  std::unique_ptr<AccuracyService> service_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeServerTest, PingVersionStats) {
  std::unique_ptr<ServeClient> client = Connect();
  ASSERT_NE(client, nullptr);
  Result<Json> pong = client->Call("ping", Json::Object());
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.value().GetBool("pong").value());
  Result<Json> version = client->Call("version", Json::Object());
  ASSERT_TRUE(version.ok());
  EXPECT_FALSE(version.value().GetString("version").value().empty());
  Result<Json> stats = client->Call("stats", Json::Object());
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.value().GetInt("connections").value(), 1);
}

TEST_F(ServeServerTest, StatsCarryExactlyTheDocumentedFields) {
  // The field set README's "Stats" paragraph documents, no more and no
  // less, at the top level and per replica.
  std::unique_ptr<ServeClient> client = Connect();
  ASSERT_NE(client, nullptr);
  Result<Json> stats = client->Call("stats", Json::Object());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto keys = [](const Json& object) {
    std::vector<std::string> names;
    for (const auto& [name, value] : object.members()) names.push_back(name);
    std::sort(names.begin(), names.end());
    return names;
  };
  std::vector<std::string> documented = {
      "connections",       "draining",           "executed_interactive",
      "executed_batch",    "rejected",           "p50_interactive_ms",
      "p99_interactive_ms", "p50_batch_ms",      "p99_batch_ms",
      "deadline_exceeded", "cancelled_queued",   "expired_running",
      "shed",              "quarantined_replicas", "replicas",
      "storage_mode",      "dictionary_terms"};
  std::sort(documented.begin(), documented.end());
  EXPECT_EQ(keys(stats.value()), documented);
  const Json* replicas = stats.value().Find("replicas");
  ASSERT_NE(replicas, nullptr);
  ASSERT_EQ(replicas->size(), 1);
  std::vector<std::string> per_replica = {"replica",  "healthy",
                                          "load",     "executed",
                                          "timeouts", "quarantines",
                                          "readmissions"};
  std::sort(per_replica.begin(), per_replica.end());
  EXPECT_EQ(keys(replicas->at(0)), per_replica);
}

TEST_F(ServeServerTest, StatsExposePerClassLatencyPercentiles) {
  std::unique_ptr<ServeClient> client = Connect();
  ASSERT_NE(client, nullptr);
  // Run real work through both job classes so the histograms have
  // samples, then check the four percentile fields are present and sane.
  ASSERT_FALSE(PipelineOverWire(client.get(), 4, 2).empty());
  Result<Json> stats = client->Call("stats", Json::Object());
  ASSERT_TRUE(stats.ok());
  for (const char* field :
       {"p50_interactive_ms", "p99_interactive_ms", "p50_batch_ms",
        "p99_batch_ms"}) {
    Result<double> value = stats.value().GetDouble(field);
    ASSERT_TRUE(value.ok()) << field;
    EXPECT_GE(value.value(), 0.0) << field;
  }
  EXPECT_GE(stats.value().GetDouble("p99_batch_ms").value(),
            stats.value().GetDouble("p50_batch_ms").value());
  // pipeline.submit ran as a batch job, so that histogram is non-empty
  // and its p99 reflects at least one real quantum chain.
  EXPECT_GE(stats.value().GetInt("executed_batch").value(), 1);
}

TEST(ServeServerBackpressure, RejectionsCarryRetryAfterHint) {
  // A depth-1 server: one multi-quantum batch submit occupies the
  // executor while a burst of raw interactive frames (written without
  // waiting for responses — ServeClient would serialize them) overflows
  // the tenant queue. The resulting error frames must carry the
  // scheduler's retry-after hint.
  Result<std::unique_ptr<AccuracyService>> service =
      AccuracyService::Create(MjSpecification(), ServiceOptions{});
  ASSERT_TRUE(service.ok());
  ServerOptions options;
  options.queue_depth = 1;
  Result<std::unique_ptr<Server>> server =
      Server::Start(service.value().get(), options);
  ASSERT_TRUE(server.ok());

  Result<std::unique_ptr<ServeClient>> client =
      ServeClient::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  Json start = Json::Object();
  start.Set("window", Json::Int(2));
  Result<Json> started =
      client.value()->Call("pipeline.start", std::move(start));
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  const int64_t sid = started.value().GetInt("session").value();

  const Schema& schema = service.value()->specification().ie.schema();
  Json submit = Json::Object();
  submit.Set("session", Json::Int(sid));
  submit.Set("entities", serve::EntitiesToJson(MakeEntities(12), schema));
  const int fd = client.value()->fd();
  int64_t next_id = 100;
  ASSERT_TRUE(
      WriteFrame(fd, serve::MakeRequest(next_id++, "pipeline.submit",
                                        std::move(submit))
                         .Dump())
          .ok());
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    Json poll = Json::Object();
    poll.Set("session", Json::Int(sid));
    ASSERT_TRUE(WriteFrame(fd, serve::MakeRequest(next_id++, "pipeline.poll",
                                                  std::move(poll))
                               .Dump())
                    .ok());
  }
  int rejected_with_hint = 0;
  for (int i = 0; i < kBurst + 1; ++i) {
    std::string payload;
    Result<bool> frame = ReadFrame(fd, &payload);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_TRUE(frame.value());
    Result<Json> response = Json::Parse(payload);
    ASSERT_TRUE(response.ok());
    if (response.value().GetBool("ok").value()) continue;
    Result<const Json*> error = response.value().GetObject("error");
    ASSERT_TRUE(error.ok());
    if (error.value()->GetString("code").value() != "resource-exhausted") {
      continue;
    }
    Result<int64_t> hint = error.value()->GetInt("retry_after_ms");
    ASSERT_TRUE(hint.ok()) << "resource-exhausted frame without hint";
    EXPECT_GE(hint.value(), 0);
    ++rejected_with_hint;
  }
  EXPECT_GE(rejected_with_hint, 1);
}

TEST_F(ServeServerTest, PipelineMatchesDirectServiceByteForByte) {
  std::unique_ptr<ServeClient> client = Connect();
  ASSERT_NE(client, nullptr);
  // 11 entities over window 3: three full windows through the batch
  // quanta plus a tail flushed by finish.
  const std::string wire = PipelineOverWire(client.get(), 11, 3);
  const std::string direct = PipelineDirect(11, 3);
  ASSERT_FALSE(wire.empty());
  EXPECT_EQ(wire, direct);
}

TEST_F(ServeServerTest, PollAndDrainSurfacePerEntityReports) {
  std::unique_ptr<ServeClient> client = Connect();
  ASSERT_NE(client, nullptr);
  Json start = Json::Object();
  start.Set("window", Json::Int(2));
  Result<Json> started = client->Call("pipeline.start", std::move(start));
  ASSERT_TRUE(started.ok());
  const int64_t sid = started.value().GetInt("session").value();
  Json submit = Json::Object();
  submit.Set("session", Json::Int(sid));
  submit.Set("entities",
             serve::EntitiesToJson(MakeEntities(5),
                                   service_->specification().ie.schema()));
  ASSERT_TRUE(client->Call("pipeline.submit", std::move(submit)).ok());
  // Two full windows were processed inline by the submit quanta: four
  // reports are already pollable, in input order.
  Json poll = Json::Object();
  poll.Set("session", Json::Int(sid));
  Result<Json> first = client->Call("pipeline.poll", poll);
  ASSERT_TRUE(first.ok());
  const Json* report = first.value().Find("report");
  ASSERT_NE(report, nullptr);
  ASSERT_TRUE(report->is_object());
  EXPECT_EQ(report->GetInt("entity_id").value(), 0);
  Json drain = Json::Object();
  drain.Set("session", Json::Int(sid));
  Result<Json> rest = client->Call("pipeline.drain", drain);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest.value().GetArray("reports").value()->size(), 3);
  Json finish = Json::Object();
  finish.Set("session", Json::Int(sid));
  ASSERT_TRUE(client->Call("pipeline.finish", std::move(finish)).ok());
  // The tail entity's report arrives with the finish flush.
  Result<Json> tail = client->Call("pipeline.drain", drain);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value().GetArray("reports").value()->size(), 1);
}

TEST_F(ServeServerTest, TopKMatchesDirectService) {
  std::unique_ptr<ServeClient> client = Connect();
  ASSERT_NE(client, nullptr);
  Json params = Json::Object();
  params.Set("k", Json::Int(5));
  Result<Json> wire = client->Call("topk", std::move(params));
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();

  Result<std::unique_ptr<AccuracyService>> direct =
      AccuracyService::Create(MjSpecification(), ServiceOptions{});
  ASSERT_TRUE(direct.ok());
  Result<ChaseOutcome> outcome = direct.value()->DeduceEntity();
  ASSERT_TRUE(outcome.ok());
  Result<TopKResult> ranked = direct.value()->TopK(5);
  ASSERT_TRUE(ranked.ok());
  const std::string reference =
      serve::TopKReportToJson(outcome.value().target, ranked.value(),
                              direct.value()->specification().ie.schema())
          .Dump();
  EXPECT_EQ(wire.value().Dump(), reference);
}

TEST_F(ServeServerTest, InteractionMatchesDirectService) {
  std::unique_ptr<ServeClient> client = Connect();
  ASSERT_NE(client, nullptr);
  Result<Json> started = client->Call("interact.start", Json::Object());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  const int64_t sid = started.value().GetInt("session").value();
  Json suggest = Json::Object();
  suggest.Set("session", Json::Int(sid));
  Result<Json> wire = client->Call("interact.suggest", suggest);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();

  Result<std::unique_ptr<AccuracyService>> direct =
      AccuracyService::Create(MjSpecification(), ServiceOptions{});
  ASSERT_TRUE(direct.ok());
  Result<std::unique_ptr<InteractionSession>> session =
      direct.value()->StartInteraction();
  ASSERT_TRUE(session.ok());
  Result<Suggestion> suggestion = session.value()->Suggest();
  ASSERT_TRUE(suggestion.ok());
  const std::string reference =
      serve::SuggestionToJson(suggestion.value(), session.value()->finished(),
                              direct.value()->specification().ie.schema())
          .Dump();
  EXPECT_EQ(wire.value().Dump(), reference);

  // The MJ spec deduces a complete target, so the completing Suggest
  // finalized the session on both sides — a Revise must now fail the
  // same way over the wire as it does directly.
  ASSERT_TRUE(session.value()->finished());
  Json revise = Json::Object();
  revise.Set("session", Json::Int(sid));
  revise.Set("attr", Json::Str("MN"));
  revise.Set("value", Json::Str("Jeffrey"));
  Result<Json> revised = client->Call("interact.revise", std::move(revise));
  ASSERT_FALSE(revised.ok());
  EXPECT_EQ(revised.status().code(), StatusCode::kFailedPrecondition);
  Status direct_revise = session.value()->Revise(
      direct.value()->specification().ie.schema().MustIndexOf("MN"),
      Value::Str("Jeffrey"));
  EXPECT_EQ(direct_revise.code(), revised.status().code());
  EXPECT_EQ(direct_revise.message(), revised.status().message());
}

TEST_F(ServeServerTest, ConcurrentClientsGetIdenticalReports) {
  constexpr int kClients = 4;
  std::vector<std::string> dumps(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &dumps] {
      std::unique_ptr<ServeClient> client = Connect();
      ASSERT_NE(client, nullptr);
      dumps[static_cast<std::size_t>(i)] =
          PipelineOverWire(client.get(), 9, 2);
    });
  }
  for (std::thread& t : threads) t.join();
  const std::string reference = PipelineDirect(9, 2);
  for (const std::string& dump : dumps) {
    ASSERT_FALSE(dump.empty());
    EXPECT_EQ(dump, reference);
  }
}

TEST_F(ServeServerTest, InteractiveCompletesWhileBatchStreams) {
  // Client A streams a long batch (many one-window quanta); client B's
  // interaction round must run while A is still streaming — the
  // fair-share contract. Checked structurally, not by wall-clock: an
  // injected wedge holds A's batch at its third quantum until B's
  // suggest is queued behind it, and the scheduler counts the batch
  // quanta still queued when each interactive job started.
  constexpr int kEntities = 120;
  constexpr int64_t kWindow = 2;
  server_->RequestDrain();
  ASSERT_TRUE(server_->Wait().ok());
  ServerOptions options;
  // Executor jobs: B's interact.start, A's pipeline.start, then A's
  // quanta; the fifth job (A's third quantum) blocks until released.
  options.fault_inject = "wedge:0:4";
  Result<std::unique_ptr<Server>> restarted =
      Server::Start(service_.get(), options);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  server_ = std::move(restarted).value();
  serve::FaultInjector* fault = server_->fault_injector();
  ASSERT_NE(fault, nullptr);

  std::unique_ptr<ServeClient> client = Connect();
  ASSERT_NE(client, nullptr);
  Result<Json> started = client->Call("interact.start", Json::Object());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::atomic<bool> batch_ok{false};
  std::thread batcher([&] {
    std::unique_ptr<ServeClient> batch_client = Connect();
    ASSERT_NE(batch_client, nullptr);
    const std::string dump =
        PipelineOverWire(batch_client.get(), kEntities, kWindow);
    batch_ok.store(!dump.empty());
  });
  // The batch is held mid-stream.
  while (fault->stats().wedges == 0) std::this_thread::yield();
  Json suggest = Json::Object();
  suggest.Set("session", Json::Int(started.value().GetInt("session").value()));
  Result<Json> round = Status::Internal("suggest did not run");
  std::thread interactive(
      [&] { round = client->Call("interact.suggest", suggest); });
  // Replica load counts the held quantum plus B's queued suggest.
  while (server_->pool().replica_stats()[0].load < 2) {
    std::this_thread::yield();
  }
  fault->ReleaseAll();
  interactive.join();
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  batcher.join();
  EXPECT_TRUE(batch_ok.load());
  const serve::Scheduler::Stats stats = server_->scheduler_stats();
  // B's suggest overtook A's queued continuation — it ran inside the
  // stream, before the batch drained its quanta. It is the only
  // interactive job that found batch work queued.
  EXPECT_EQ(stats.batch_queued_at_interactive, 1);
}

TEST_F(ServeServerTest, DrainFlushesInFlightSubmit) {
  // A drain that lands mid-batch must still flush the remaining windows
  // and deliver the submit response (graceful SIGTERM semantics).
  constexpr int kEntities = 60;
  std::unique_ptr<ServeClient> client = Connect();
  ASSERT_NE(client, nullptr);
  Json start = Json::Object();
  start.Set("window", Json::Int(2));
  Result<Json> started = client->Call("pipeline.start", std::move(start));
  ASSERT_TRUE(started.ok());
  const int64_t sid = started.value().GetInt("session").value();
  std::atomic<bool> submitted_ok{false};
  std::atomic<int64_t> accepted{0};
  std::thread submitter([&] {
    Json submit = Json::Object();
    submit.Set("session", Json::Int(sid));
    submit.Set("entities",
               serve::EntitiesToJson(MakeEntities(kEntities),
                                     service_->specification().ie.schema()));
    Result<Json> response = client->Call("pipeline.submit", std::move(submit));
    if (response.ok()) {
      submitted_ok.store(true);
      accepted.store(response.value().GetInt("accepted").value_or(0));
    }
  });
  // Second connection just to watch progress (stats answers inline).
  std::unique_ptr<ServeClient> watcher = Connect();
  ASSERT_NE(watcher, nullptr);
  for (;;) {
    Result<Json> stats = watcher->Call("stats", Json::Object());
    if (!stats.ok()) break;  // drain may already have closed us
    if (stats.value().GetInt("executed_batch").value() >= 2) break;
  }
  server_->RequestDrain();
  ASSERT_TRUE(server_->Wait().ok());
  submitter.join();
  EXPECT_TRUE(submitted_ok.load());
  EXPECT_EQ(accepted.load(), kEntities);
}

TEST_F(ServeServerTest, MalformedJsonGetsErrorFrameAndClose) {
  Result<int> fd = serve::ConnectTo("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteFrame(fd.value(), "this is not json").ok());
  std::string payload;
  Result<bool> frame = ReadFrame(fd.value(), &payload);
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame.value());
  Result<Json> response = Json::Parse(payload);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().GetInt("id").value(), 0);
  EXPECT_FALSE(response.value().GetBool("ok").value());
  // The connection closes after a protocol error.
  Result<bool> eof = ReadFrame(fd.value(), &payload);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof.value());
  serve::CloseFd(fd.value());
}

TEST_F(ServeServerTest, RequestWithoutIdGetsErrorFrameAndClose) {
  Result<int> fd = serve::ConnectTo("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteFrame(fd.value(), "{\"method\":\"ping\"}").ok());
  std::string payload;
  Result<bool> frame = ReadFrame(fd.value(), &payload);
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame.value());
  Result<Json> response = Json::Parse(payload);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().GetBool("ok").value());
  Result<bool> eof = ReadFrame(fd.value(), &payload);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof.value());
  serve::CloseFd(fd.value());
}

TEST_F(ServeServerTest, UnknownMethodAndUnknownSessionAreErrors) {
  std::unique_ptr<ServeClient> client = Connect();
  ASSERT_NE(client, nullptr);
  Result<Json> unknown = client->Call("no.such.method", Json::Object());
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  Json poll = Json::Object();
  poll.Set("session", Json::Int(999));
  Result<Json> missing = client->Call("pipeline.poll", std::move(poll));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The connection survives request-level errors.
  EXPECT_TRUE(client->Call("ping", Json::Object()).ok());
}

TEST_F(ServeServerTest, KOutsideIntRangeIsInvalidArgument) {
  // A k that does not fit in int is rejected, naming the value sent,
  // instead of being narrowed (4294967297 would rank 1 candidate and
  // 4294967296 would be reported as "got 0").
  std::unique_ptr<ServeClient> client = Connect();
  ASSERT_NE(client, nullptr);
  for (const char* method : {"topk", "interact.start"}) {
    for (int64_t k : {int64_t{4294967297}, int64_t{4294967296}}) {
      Json params = Json::Object();
      params.Set("k", Json::Int(k));
      Result<Json> got = client->Call(method, std::move(params));
      ASSERT_FALSE(got.ok()) << method << " k=" << k;
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument) << method;
      EXPECT_NE(got.status().message().find(std::to_string(k)),
                std::string::npos)
          << got.status().ToString();
    }
  }
  EXPECT_TRUE(client->Call("ping", Json::Object()).ok());
}

TEST_F(ServeServerTest, SessionCloseReleasesTheSession) {
  std::unique_ptr<ServeClient> client = Connect();
  ASSERT_NE(client, nullptr);
  Result<Json> started = client->Call("pipeline.start", Json::Object());
  ASSERT_TRUE(started.ok());
  const int64_t sid = started.value().GetInt("session").value();
  Json params = Json::Object();
  params.Set("session", Json::Int(sid));
  ASSERT_TRUE(client->Call("session.close", params).ok());
  Result<Json> gone = client->Call("pipeline.poll", params);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
}

// --- fault injection -------------------------------------------------------

TEST(ServeFaultInjection, EmptySpecYieldsNullInjector) {
  Result<std::unique_ptr<serve::FaultInjector>> parsed =
      serve::FaultInjector::Parse("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), nullptr);
}

TEST(ServeFaultInjection, ParsesEveryRuleKind) {
  Result<std::unique_ptr<serve::FaultInjector>> parsed =
      serve::FaultInjector::Parse("delay:*:5;jitter:1:10:42;wedge:0:2;fail:1:3");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed.value(), nullptr);
}

TEST(ServeFaultInjection, MalformedSpecsAreRejected) {
  for (const char* bad :
       {"delay:*", "delay:0:abc", "jitter:*:5", "wedge:*:1", "fail:0:0",
        "fail:1", "nonsense:1:2", "delay:-1:5"}) {
    Result<std::unique_ptr<serve::FaultInjector>> parsed =
        serve::FaultInjector::Parse(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(ServeFaultInjection, FailRuleFiresDeterministically) {
  Result<std::unique_ptr<serve::FaultInjector>> parsed =
      serve::FaultInjector::Parse("fail:0:3");
  ASSERT_TRUE(parsed.ok());
  serve::FaultInjector* fault = parsed.value().get();
  for (int i = 1; i <= 9; ++i) {
    EXPECT_EQ(fault->ShouldFailRequest(0), i % 3 == 0) << i;
  }
  // Per-replica counters: replica 1 has no rule and never fails.
  for (int i = 0; i < 9; ++i) EXPECT_FALSE(fault->ShouldFailRequest(1));
  EXPECT_EQ(fault->stats().failures, 3);
}

TEST(ServeFaultInjection, WedgeBlocksUntilReleaseAll) {
  Result<std::unique_ptr<serve::FaultInjector>> parsed =
      serve::FaultInjector::Parse("wedge:0:1");
  ASSERT_TRUE(parsed.ok());
  serve::FaultInjector* fault = parsed.value().get();
  fault->OnExecutorJob(0);  // first job passes (after_n = 1)
  std::atomic<bool> unblocked{false};
  std::thread wedged([&] {
    fault->OnExecutorJob(0);  // second job wedges
    unblocked.store(true);
  });
  for (int i = 0; i < 200 && fault->stats().wedges == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fault->stats().wedges, 1);
  EXPECT_FALSE(unblocked.load());
  fault->ReleaseAll();
  wedged.join();
  EXPECT_TRUE(unblocked.load());
  // Released wedges stay disarmed: further jobs never block.
  fault->OnExecutorJob(0);
}

// --- scheduler deadlines ---------------------------------------------------

TEST(ServeSchedulerDeadline, CancelsQueuedJobAndReapsTenant) {
  Scheduler scheduler;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  // Occupy the executor so the deadlined job stays queued.
  ASSERT_TRUE(scheduler
                  .Enqueue(1, JobClass::kInteractive,
                           [&] {
                             std::unique_lock<std::mutex> lock(mu);
                             cv.wait(lock, [&] { return release; });
                           })
                  .ok());
  std::atomic<bool> ran{false};
  std::atomic<bool> cancelled{false};
  Scheduler::JobControl control;
  control.deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(30);
  control.on_deadline = [&] { cancelled.store(true); };
  ASSERT_TRUE(scheduler
                  .Enqueue(2, JobClass::kInteractive,
                           [&] { ran.store(true); }, std::move(control))
                  .ok());
  for (int i = 0; i < 400 && !cancelled.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(cancelled.load());
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Drain();
  EXPECT_FALSE(ran.load());  // the cancelled job never executed
  const Scheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.cancelled_queued, 1);
  EXPECT_EQ(stats.executed_interactive, 1);
  // The cancellation emptied tenant 2's queue; nothing may linger.
  EXPECT_EQ(scheduler.tenant_count(), 0);
}

TEST(ServeSchedulerDeadline, OverrunningJobFiresCallbackWhileRunning) {
  std::atomic<bool> hook_was_running{false};
  std::atomic<int> ok_calls{0};
  Scheduler::Options options;
  options.on_deadline = [&](bool was_running) {
    if (was_running) hook_was_running.store(true);
  };
  options.on_job_ok = [&] { ok_calls.fetch_add(1); };
  Scheduler scheduler(std::move(options));
  std::atomic<bool> fired{false};
  Scheduler::JobControl control;
  control.deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(20);
  control.on_deadline = [&] { fired.store(true); };
  ASSERT_TRUE(scheduler
                  .Enqueue(1, JobClass::kInteractive,
                           [&] {
                             // Overrun the deadline: the watchdog must
                             // fire while this job is still running.
                             for (int i = 0; i < 400 && !fired.load(); ++i) {
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(5));
                             }
                           },
                           std::move(control))
                  .ok());
  scheduler.Drain();
  EXPECT_TRUE(fired.load());
  EXPECT_TRUE(hook_was_running.load());
  EXPECT_EQ(scheduler.stats().expired_running, 1);
  // An expired job is not a health proof.
  EXPECT_EQ(ok_calls.load(), 0);
}

TEST(ServeScheduler, TenantStateIsReapedAsWorkDrains) {
  Scheduler scheduler;
  for (int64_t tenant = 1; tenant <= 3; ++tenant) {
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(
          scheduler.Enqueue(tenant, JobClass::kBatch, [] {}).ok());
    }
  }
  scheduler.Drain();
  EXPECT_EQ(scheduler.stats().executed_batch, 6);
  EXPECT_EQ(scheduler.tenant_count(), 0);
  EXPECT_EQ(scheduler.load(), 0);
}

TEST(ServeScheduler, RemoveTenantReapsQueueStateImmediately) {
  Scheduler scheduler;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> started{false};
  ASSERT_TRUE(scheduler
                  .Enqueue(1, JobClass::kInteractive,
                           [&] {
                             started.store(true);
                             std::unique_lock<std::mutex> lock(mu);
                             cv.wait(lock, [&] { return release; });
                           })
                  .ok());
  // Wait until tenant 1's job is running — the pop reaped its entry.
  for (int i = 0; i < 400 && !started.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(started.load());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(scheduler.Enqueue(2, JobClass::kBatch, [] {}).ok());
  }
  EXPECT_EQ(scheduler.tenant_count(), 1);
  scheduler.RemoveTenant(2);
  // Tenant 1's entry was reaped by the pop that started its job; tenant
  // 2's by RemoveTenant — nothing is left.
  EXPECT_EQ(scheduler.tenant_count(), 0);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Drain();
  EXPECT_EQ(scheduler.stats().executed_batch, 0);
}

// --- client transport timeouts ---------------------------------------------

TEST(ServeClientTimeout, RecvTimeoutSurfacesDeadlineExceeded) {
  // A server that accepts and reads but never answers: the client's
  // receive timeout must turn the stalled Call into kDeadlineExceeded.
  Result<int> listener = serve::ListenOn("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const int port = serve::BoundPort(listener.value()).value();
  std::thread mute([fd = listener.value()] {
    Result<int> conn = serve::AcceptConn(fd);
    if (!conn.ok()) return;
    std::string payload;
    (void)ReadFrame(conn.value(), &payload);  // swallow the request
    (void)ReadFrame(conn.value(), &payload);  // block until client hangs up
    serve::CloseFd(conn.value());
  });
  ServeClient::ClientOptions options;
  options.connect_timeout_ms = 2000;
  options.recv_timeout_ms = 100;
  Result<std::unique_ptr<ServeClient>> client =
      ServeClient::Connect("127.0.0.1", port, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<Json> response = client.value()->Call("ping", Json::Object());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  client.value().reset();  // EOF unblocks the mute server
  mute.join();
  serve::CloseFd(listener.value());
}

// --- multi-replica serving, deadlines, quarantine --------------------------

/// Owns N identically-specified services plus the server over them.
struct ReplicatedDaemon {
  std::vector<std::unique_ptr<AccuracyService>> services;
  std::unique_ptr<Server> server;

  static ReplicatedDaemon Start(int replicas, ServerOptions options) {
    ReplicatedDaemon d;
    std::vector<AccuracyService*> raw;
    for (int i = 0; i < replicas; ++i) {
      Result<std::unique_ptr<AccuracyService>> service =
          AccuracyService::Create(MjSpecification(), ServiceOptions{});
      EXPECT_TRUE(service.ok()) << service.status().ToString();
      d.services.push_back(std::move(service).value());
      raw.push_back(d.services.back().get());
    }
    Result<std::unique_ptr<Server>> server =
        Server::Start(std::move(raw), std::move(options));
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    if (server.ok()) d.server = std::move(server).value();
    return d;
  }

  std::unique_ptr<ServeClient> Connect() {
    Result<std::unique_ptr<ServeClient>> client =
        ServeClient::Connect("127.0.0.1", server->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(client).value() : nullptr;
  }
};

/// One whole pipeline over the wire against `daemon`; empty on failure.
std::string PipelineDump(ReplicatedDaemon* daemon, ServeClient* client,
                         int entities, int64_t window) {
  Json start = Json::Object();
  start.Set("window", Json::Int(window));
  Result<Json> started = client->Call("pipeline.start", std::move(start));
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  if (!started.ok()) return "";
  const int64_t sid = started.value().GetInt("session").value();
  Json submit = Json::Object();
  submit.Set("session", Json::Int(sid));
  submit.Set("entities",
             serve::EntitiesToJson(
                 MakeEntities(entities),
                 daemon->services.front()->specification().ie.schema()));
  Result<Json> accepted = client->Call("pipeline.submit", std::move(submit));
  EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();
  if (!accepted.ok()) return "";
  Json finish = Json::Object();
  finish.Set("session", Json::Int(sid));
  Result<Json> report = client->Call("pipeline.finish", std::move(finish));
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? report.value().Dump() : "";
}

TEST(ServeMultiReplica, ByteIdenticalAcrossReplicaCounts) {
  // The same pipeline against 1, 2 and 4 replicas with several
  // concurrent clients: every report must equal the direct-service
  // reference — replication must be invisible in the payloads.
  Result<std::unique_ptr<AccuracyService>> direct =
      AccuracyService::Create(MjSpecification(), ServiceOptions{});
  ASSERT_TRUE(direct.ok());
  PipelineSessionOptions options;
  options.window = 2;
  Result<std::unique_ptr<PipelineSession>> session =
      direct.value()->StartPipeline(std::move(options));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Submit(MakeEntities(9)).ok());
  Result<PipelineReport> report = session.value()->Finish();
  ASSERT_TRUE(report.ok());
  const std::string reference =
      serve::PipelineReportToJson(
          report.value(), direct.value()->specification().ie.schema())
          .Dump();

  for (const int replicas : {1, 2, 4}) {
    ReplicatedDaemon daemon = ReplicatedDaemon::Start(replicas, {});
    ASSERT_NE(daemon.server, nullptr);
    std::vector<std::string> dumps(4);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < dumps.size(); ++i) {
      threads.emplace_back([&daemon, &dumps, i] {
        std::unique_ptr<ServeClient> client = daemon.Connect();
        ASSERT_NE(client, nullptr);
        dumps[i] = PipelineDump(&daemon, client.get(), 9, 2);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const std::string& dump : dumps) {
      ASSERT_FALSE(dump.empty()) << replicas << " replicas";
      EXPECT_EQ(dump, reference) << replicas << " replicas";
    }
    EXPECT_EQ(daemon.server->replicas(), replicas);
  }
}

TEST(ServeMultiReplica, DisconnectMidRequestReapsTenantAndDaemonSurvives) {
  ReplicatedDaemon daemon = ReplicatedDaemon::Start(1, {});
  ASSERT_NE(daemon.server, nullptr);
  {
    // Queue a long batch, then hang up without reading a single
    // response — the responses hit a dead socket (MSG_NOSIGNAL keeps
    // that from killing the process) and the reader's exit must reap
    // the tenant's scheduler state.
    std::unique_ptr<ServeClient> client = daemon.Connect();
    ASSERT_NE(client, nullptr);
    Json start = Json::Object();
    start.Set("window", Json::Int(2));
    Result<Json> started = client->Call("pipeline.start", std::move(start));
    ASSERT_TRUE(started.ok());
    Json submit = Json::Object();
    submit.Set("session", Json::Int(started.value().GetInt("session").value()));
    submit.Set("entities",
               serve::EntitiesToJson(
                   MakeEntities(40),
                   daemon.services.front()->specification().ie.schema()));
    ASSERT_TRUE(WriteFrame(client->fd(),
                           serve::MakeRequest(99, "pipeline.submit",
                                              std::move(submit))
                               .Dump())
                    .ok());
    // Client destructor closes the socket with the submit in flight.
  }
  // The scheduler must come back to zero tenants (probe tenants never
  // exist while the replica is healthy).
  const serve::ReplicaPool& pool = daemon.server->pool();
  bool reaped = false;
  for (int i = 0; i < 1000 && !reaped; ++i) {
    reaped = pool.scheduler(0)->tenant_count() == 0 &&
             pool.scheduler(0)->load() == 0;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(reaped) << "tenant state leaked past the disconnect";
  // The daemon is unharmed: a fresh client gets full service.
  std::unique_ptr<ServeClient> after = daemon.Connect();
  ASSERT_NE(after, nullptr);
  EXPECT_TRUE(after->Call("ping", Json::Object()).ok());
  EXPECT_FALSE(PipelineDump(&daemon, after.get(), 4, 2).empty());
}

TEST(ServeDeadline, OverDeadlineBatchWindowIsCancelled) {
  // Every executor job is delayed past the submit's deadline: the
  // watchdog must answer deadline-exceeded while the replica is stuck,
  // and the daemon must stay fully serviceable afterwards.
  ServerOptions options;
  options.fault_inject = "delay:0:600";
  ReplicatedDaemon daemon = ReplicatedDaemon::Start(1, options);
  ASSERT_NE(daemon.server, nullptr);
  std::unique_ptr<ServeClient> client = daemon.Connect();
  ASSERT_NE(client, nullptr);
  Result<Json> started = client->Call("pipeline.start", Json::Object());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  Json submit = Json::Object();
  submit.Set("session", Json::Int(started.value().GetInt("session").value()));
  submit.Set("deadline_ms", Json::Int(50));
  submit.Set("entities",
             serve::EntitiesToJson(
                 MakeEntities(4),
                 daemon.services.front()->specification().ie.schema()));
  const auto before = std::chrono::steady_clock::now();
  Result<Json> response = client->Call("pipeline.submit", std::move(submit));
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - before)
                               .count();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(response.status().message().find("deadline of 50 ms"),
            std::string::npos)
      << response.status().ToString();
  // The answer came from the watchdog, not from the delayed executor:
  // well under the injected 600 ms delay.
  EXPECT_LT(waited_ms, 550.0);
  EXPECT_EQ(daemon.server->deadline_exceeded(), 1);
  // Inline methods keep answering immediately.
  EXPECT_TRUE(client->Call("ping", Json::Object()).ok());
  Result<Json> stats = client->Call("stats", Json::Object());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().GetInt("deadline_exceeded").value(), 1);
}

TEST(ServeQuarantine, SickReplicaIsQuarantinedThenReadmittedByProbe) {
  // delay 150 ms per job: a 40 ms request deadline expires (quarantine
  // at the first expiry), but the 5 s probe deadline does not — the
  // probe's deduce completes and re-admits the replica.
  ServerOptions options;
  options.fault_inject = "delay:0:150";
  options.quarantine_after = 1;
  options.probe_interval_ms = 25;
  options.probe_deadline_ms = 5000;
  ReplicatedDaemon daemon = ReplicatedDaemon::Start(1, options);
  ASSERT_NE(daemon.server, nullptr);
  std::unique_ptr<ServeClient> client = daemon.Connect();
  ASSERT_NE(client, nullptr);
  Json params = Json::Object();
  params.Set("deadline_ms", Json::Int(40));
  Result<Json> expired = client->Call("deduce", std::move(params));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  // The pool hook fires after the client's error frame; poll briefly.
  const serve::ReplicaPool& pool = daemon.server->pool();
  for (int i = 0; i < 400 && pool.total_quarantines() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(pool.total_quarantines(), 1);
  bool readmitted = false;
  for (int i = 0; i < 2000 && !readmitted; ++i) {
    readmitted = pool.healthy(0) && pool.total_readmissions() >= 1;
    if (!readmitted) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(readmitted);
  // Healthy again: an undeadlined request completes (slowly but fine).
  EXPECT_TRUE(client->Call("deduce", Json::Object()).ok());
  Result<Json> stats = client->Call("stats", Json::Object());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().GetInt("quarantined_replicas").value(), 0);
  const Json* replicas = stats.value().Find("replicas");
  ASSERT_NE(replicas, nullptr);
  ASSERT_EQ(replicas->size(), 1);
  EXPECT_TRUE(replicas->at(0).GetBool("healthy").value());
  EXPECT_GE(replicas->at(0).GetInt("quarantines").value(), 1);
  EXPECT_GE(replicas->at(0).GetInt("readmissions").value(), 1);
}

TEST(ServeQuarantine, AllReplicasDownShedsWithRetryHint) {
  // A wedged sole replica: the first deadlined request quarantines it,
  // and from then on new work is shed with resource-exhausted plus a
  // retry hint (one probe interval). Drain still exits cleanly because
  // it releases the wedge first.
  ServerOptions options;
  options.fault_inject = "wedge:0:0";
  options.quarantine_after = 1;
  options.probe_interval_ms = 50;
  options.probe_deadline_ms = 50;
  ReplicatedDaemon daemon = ReplicatedDaemon::Start(1, options);
  ASSERT_NE(daemon.server, nullptr);
  std::unique_ptr<ServeClient> client = daemon.Connect();
  ASSERT_NE(client, nullptr);
  Json params = Json::Object();
  params.Set("deadline_ms", Json::Int(40));
  Result<Json> expired = client->Call("deduce", std::move(params));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  // The quarantine lands just after the error frame; wait for it, or
  // the next (undeadlined) request would queue behind the wedge.
  const serve::ReplicaPool& pool = daemon.server->pool();
  for (int i = 0; i < 400 && pool.quarantined_count() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(pool.quarantined_count(), 1);
  // New work is shed while every replica is down.
  Result<Json> shed = client->Call("deduce", Json::Object());
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(client->last_retry_after_ms(), 50);
  EXPECT_GE(daemon.server->shed(), 1);
  Result<Json> stats = client->Call("stats", Json::Object());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().GetInt("quarantined_replicas").value(), 1);
  // Graceful drain despite the wedge (ReleaseAll runs first).
  daemon.server->RequestDrain();
  EXPECT_TRUE(daemon.server->Wait().ok());
}

TEST(ServeFault, InjectedRequestFailureSurfacesAsInternal) {
  ServerOptions options;
  options.fault_inject = "fail:0:2";  // every 2nd routed request fails
  ReplicatedDaemon daemon = ReplicatedDaemon::Start(1, options);
  ASSERT_NE(daemon.server, nullptr);
  std::unique_ptr<ServeClient> client = daemon.Connect();
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Call("deduce", Json::Object()).ok());
  Result<Json> failed = client->Call("deduce", Json::Object());
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_NE(failed.status().message().find("injected fault"),
            std::string::npos);
  EXPECT_TRUE(client->Call("deduce", Json::Object()).ok());
}

// --- snapshot degradation at serve start -----------------------------------

TEST(ServeDegraded, CorruptSnapshotFallsBackToColdService) {
  const std::string bad =
      std::string(RELACC_SOURCE_DIR) + "/tests/snapshots/bad/garbage.snap";
  ServiceOptions strict;
  strict.snapshot_path = bad;
  Result<std::unique_ptr<AccuracyService>> refused =
      AccuracyService::Create(MjSpecification(), strict);
  ASSERT_FALSE(refused.ok());

  ServiceOptions fallback;
  fallback.snapshot_path = bad;
  fallback.snapshot_fallback = true;
  Result<std::unique_ptr<AccuracyService>> degraded =
      AccuracyService::Create(MjSpecification(), fallback);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded.value()->degraded());
  EXPECT_FALSE(degraded.value()->degraded_reason().empty());

  // The fallback build serves bit-identical results to a cold build
  // that never saw a snapshot path.
  Result<std::unique_ptr<AccuracyService>> cold =
      AccuracyService::Create(MjSpecification(), ServiceOptions{});
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.value()->degraded());
  Result<ChaseOutcome> a = degraded.value()->DeduceEntity();
  Result<ChaseOutcome> b = cold.value()->DeduceEntity();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().target.ToString(), b.value().target.ToString());

  // And the degraded service is fully servable.
  Result<std::unique_ptr<Server>> server =
      Server::Start(degraded.value().get(), ServerOptions{});
  ASSERT_TRUE(server.ok());
  Result<std::unique_ptr<ServeClient>> client =
      ServeClient::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value()->Call("deduce", Json::Object()).ok());
}

}  // namespace
}  // namespace relacc
