#ifndef XVR_NET_SERVER_H_
#define XVR_NET_SERVER_H_

// Embedded HTTP/1.1 query server: the overload-resilient front door that
// turns the engine library into a defensible service.
//
// Architecture — one reactor, W workers, all socket I/O on the reactor:
//
//   reactor   A single epoll loop owns the listen socket, every connection
//             fd, all reads (incremental HttpParser per connection), all
//             writes (buffered, EPOLLOUT-continued), accept, timeouts
//             (slowloris read deadline, keep-alive idle deadline), and
//             disconnect detection (EPOLLRDHUP while a request is in
//             flight fires the request's CancelToken). Single-threaded
//             ownership means connection state needs no locks at all.
//
//   admission Engine-bound requests (POST /query, POST /batch) pass the
//             AdmissionController on the reactor thread before any work is
//             queued; shed requests get an immediate 503 + Retry-After and
//             never touch the queue (their wait is not a queue wait — the
//             xvr.server.queue_wait histogram records admitted requests
//             only). /healthz and /metrics are answered inline and are
//             never shed: the observability plane must stay up precisely
//             when the serving plane is overloaded.
//
//   workers   W threads consume the bounded job queue, build QueryLimits
//             from the request (X-Deadline-Ms clamped into
//             [1, max_deadline_millis], the connection's CancelToken), run
//             the engine, and hand the finished response bytes back to the
//             reactor over the command queue (mutex + eventfd). Workers
//             never touch a socket.
//
// The per-request deadline starts at *admission*, not at worker pickup, so
// queue wait spends the caller's budget: an admitted request is answered
// or deadline-cancelled within its budget plus one scheduling quantum,
// which is what bounds admitted-traffic p99 under overload.
//
// Graceful drain (Shutdown, typically on SIGTERM): stop accepting, shed
// new engine requests (503 + Connection: close), let queued and in-flight
// requests finish; at drain_timeout_millis fire every in-flight
// CancelToken so stragglers complete as CANCELLED; every accepted request
// still gets a response before its connection closes. Shutdown blocks
// until the reactor and workers have joined.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/engine.h"
#include "net/admission.h"
#include "net/http_parser.h"

namespace xvr {

struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  // 0 binds an ephemeral port; read the real one back via port().
  uint16_t port = 0;
  int num_workers = 4;
  size_t max_connections = 1024;
  HttpParserLimits parser;
  AdmissionOptions admission;
  // Slowloris bound: a request must arrive completely within this many
  // milliseconds of its first byte or the connection gets a 408 and dies.
  int64_t read_timeout_millis = 5000;
  // Keep-alive connections idle longer than this are closed.
  int64_t idle_timeout_millis = 30000;
  // A response that cannot be flushed for this long marks the peer dead.
  int64_t write_timeout_millis = 5000;
  // Deadline applied when the request carries no X-Deadline-Ms.
  int64_t default_deadline_millis = 1000;
  // Upper clamp for X-Deadline-Ms (hostile callers do not get to pin a
  // worker for a minute).
  int64_t max_deadline_millis = 10000;
  // Shutdown grace: after this, in-flight requests are cancel()ed.
  int64_t drain_timeout_millis = 5000;
  // Slots per POST /batch body before a 400.
  size_t max_batch_slots = 256;
  AnswerStrategy default_strategy = AnswerStrategy::kHeuristicFiltered;
  // Test/bench knob: per admitted request the worker sleeps this long
  // (cancellation- and deadline-aware) before touching the engine — a
  // controllable service time for overload and drain tests.
  int64_t debug_handler_delay_millis = 0;
};

class HttpServer {
 public:
  // `engine` must outlive the server. Metrics land in the engine's
  // registry under xvr.server.* (obs/engine_metrics.h).
  HttpServer(Engine* engine, HttpServerOptions options);
  ~HttpServer();  // Shutdown() if still running

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds, listens and spawns the reactor + workers. Fails with IO_ERROR
  // when the socket cannot be bound.
  Status Start();

  // The bound port (after a successful Start).
  uint16_t port() const { return port_; }

  bool draining() const { return admission_.draining(); }

  // Graceful drain; blocks until every in-flight request was answered (or
  // deadline/drain-cancelled) and all threads joined. Idempotent.
  void Shutdown();

  const AdmissionController& admission() const { return admission_; }

 private:
  struct Connection;
  struct Job;
  struct Command;
  class Impl;  // reactor internals (epoll state, conns); defined in .cc

  void ReactorMain();
  void WorkerMain();

  // Builds the response for one admitted engine job (worker thread).
  std::string HandleJob(Job* job, bool* keep_alive);
  std::string HandleQuery(const Job& job, const QueryLimits& limits,
                          int* http_status);
  std::string HandleBatch(const Job& job, const QueryLimits& limits,
                          int* http_status);

  Engine* engine_;
  HttpServerOptions options_;
  AdmissionController admission_;
  uint16_t port_ = 0;

  // Serializes Engine::Parse: parsing interns labels into the document's
  // LabelDict, which is not internally synchronized.
  Mutex parse_mu_;

  std::unique_ptr<Impl> impl_;
  std::thread reactor_;
  std::vector<std::thread> workers_;

  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<std::unique_ptr<Job>> queue_ XVR_GUARDED_BY(queue_mu_);
  bool stop_workers_ XVR_GUARDED_BY(queue_mu_) = false;

  Mutex lifecycle_mu_;
  bool started_ XVR_GUARDED_BY(lifecycle_mu_) = false;
  bool stopped_ XVR_GUARDED_BY(lifecycle_mu_) = false;
};

}  // namespace xvr

#endif  // XVR_NET_SERVER_H_
