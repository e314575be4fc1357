#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "net/json.h"

namespace xvr {

namespace {

using SteadyClock = std::chrono::steady_clock;

int64_t MillisBetween(SteadyClock::time_point from,
                      SteadyClock::time_point to) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(to - from)
      .count();
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 431: return "Request Header Fields Too Large";
    case 499: return "Client Closed Request";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

// The engine's Status vocabulary on the wire. The JSON body additionally
// carries the exact StatusCode name, so clients never need to reverse-map.
int HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kNotAnswerable:
    case StatusCode::kCapacityExceeded:
    case StatusCode::kResourceExhausted: return 422;
    case StatusCode::kDeadlineExceeded: return 504;
    case StatusCode::kCancelled: return 499;
    case StatusCode::kIoError:
    case StatusCode::kInternal: return 500;
  }
  return 500;
}

std::string ErrorBody(std::string_view code, std::string_view message) {
  std::string body = "{\"error\":";
  AppendJsonString(&body, code);
  body += ",\"message\":";
  AppendJsonString(&body, message);
  body += "}";
  return body;
}

std::string StatusBody(const Status& status) {
  return ErrorBody(StatusCodeName(status.code()), status.message());
}

// The request's "strategy" member, `fallback` when it has none. A member
// that is not a strategy name is INVALID_ARGUMENT listing the valid ones.
Result<AnswerStrategy> RequestStrategy(const JsonValue& root,
                                       AnswerStrategy fallback) {
  const JsonValue* name = root.Find("strategy");
  if (name == nullptr) {
    return fallback;
  }
  return ParseAnswerStrategy(name->is_string() ? name->string_value : "");
}

// Strict non-negative integer header/JSON field, bounded to avoid overflow.
bool ParseBoundedUint(std::string_view text, uint64_t max, uint64_t* out) {
  if (text.empty() || text.size() > 12) {
    return false;
  }
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  if (value > max) {
    return false;
  }
  *out = value;
  return true;
}

std::string BuildHttpResponse(int status, std::string_view content_type,
                              std::string_view body, bool keep_alive,
                              std::string_view extra_headers) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(status);
  out += " ";
  out += ReasonPhrase(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\n";
  out += extra_headers;
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += body;
  return out;
}

}  // namespace

// One accepted socket, owned exclusively by the reactor thread: the
// parser, buffers, phase and deadlines are only ever touched there, so no
// lock exists. Workers see a Connection solely as an opaque token they
// hand back with the finished response bytes.
struct HttpServer::Connection {
  explicit Connection(const HttpParserLimits& limits) : parser(limits) {}

  enum class Phase : uint8_t { kReading, kBusy, kClosed };

  int fd = -1;
  Phase phase = Phase::kReading;
  HttpParser parser;

  std::string write_buf;
  size_t write_off = 0;
  bool write_pending = false;
  bool close_after_write = false;
  bool peer_closed = false;

  // Set while kBusy; shared with the worker's QueryLimits.
  std::shared_ptr<CancelToken> cancel;
  bool drain_cancelled = false;

  SteadyClock::time_point request_start{};
  SteadyClock::time_point write_start{};
  SteadyClock::time_point last_activity{};
};

// One admitted engine-bound request in the worker queue.
struct HttpServer::Job {
  std::shared_ptr<Connection> conn;
  std::string target;
  std::string body;
  bool keep_alive = true;
  // The caller's budget, started at admission: queue wait spends it.
  Deadline deadline;
  int64_t deadline_millis = 0;
  std::shared_ptr<CancelToken> cancel;
  SteadyClock::time_point enqueue_time{};
};

// Worker -> reactor handoff (and Shutdown's drain trigger).
struct HttpServer::Command {
  enum class Kind : uint8_t { kResponse, kBeginDrain };
  Kind kind = Kind::kResponse;
  std::shared_ptr<Connection> conn;
  std::string response;
  bool keep_alive = false;
};

// Reactor-side state: epoll set, live connections, drain progress, and the
// cached metric instruments. Everything here except the command queue is
// touched only by the reactor thread.
class HttpServer::Impl {
 public:
  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;

  std::unordered_map<int, std::shared_ptr<Connection>> conns;

  bool draining = false;
  bool drain_cancel_fired = false;
  SteadyClock::time_point drain_deadline{};

  Mutex cmd_mu;
  std::vector<Command> commands XVR_GUARDED_BY(cmd_mu);

  // xvr.server.* instruments (shared with EngineMetrics by name).
  Counter* accepted = nullptr;
  Counter* requests = nullptr;
  Counter* responses = nullptr;
  Counter* shed = nullptr;
  Counter* shed_queue_full = nullptr;
  Counter* shed_queue_wait = nullptr;
  Counter* shed_draining = nullptr;
  Counter* parse_reject = nullptr;
  Counter* disconnect_cancel = nullptr;
  Counter* read_timeout = nullptr;
  Counter* drains = nullptr;
  LatencyHistogram* queue_wait = nullptr;

  void Wake() {
    const uint64_t one = 1;
    const ssize_t written = write(wake_fd, &one, sizeof(one));
    (void)written;  // eventfd writes cannot meaningfully fail here
  }
};

HttpServer::HttpServer(Engine* engine, HttpServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      admission_(options_.admission),
      impl_(std::make_unique<Impl>()) {
  MetricsRegistry& registry = engine_->metrics();
  impl_->accepted = registry.GetCounter("xvr.server.accepted");
  impl_->requests = registry.GetCounter("xvr.server.requests");
  impl_->responses = registry.GetCounter("xvr.server.responses");
  impl_->shed = registry.GetCounter("xvr.server.shed");
  impl_->shed_queue_full = registry.GetCounter("xvr.server.shed_queue_full");
  impl_->shed_queue_wait = registry.GetCounter("xvr.server.shed_queue_wait");
  impl_->shed_draining = registry.GetCounter("xvr.server.shed_draining");
  impl_->parse_reject = registry.GetCounter("xvr.server.parse_reject");
  impl_->disconnect_cancel =
      registry.GetCounter("xvr.server.disconnect_cancel");
  impl_->read_timeout = registry.GetCounter("xvr.server.read_timeout");
  impl_->drains = registry.GetCounter("xvr.server.drain");
  impl_->queue_wait = registry.GetHistogram("xvr.server.queue_wait");
}

HttpServer::~HttpServer() { Shutdown(); }

Status HttpServer::Start() {
  {
    MutexLock lock(&lifecycle_mu_);
    if (started_) {
      return Status::InvalidArgument("server already started");
    }
  }

  const int listen_fd =
      socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) {
    return Status::IoError("socket(): " + std::string(std::strerror(errno)));
  }
  const int enable = 1;
  if (setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &enable,
                 sizeof(enable)) != 0) {
    close(listen_fd);
    return Status::IoError("setsockopt(SO_REUSEADDR) failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd);
    return Status::InvalidArgument("bad bind address " +
                                   options_.bind_address);
  }
  if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    close(listen_fd);
    return Status::IoError("bind(" + options_.bind_address + ":" +
                           std::to_string(options_.port) + "): " + err);
  }
  if (listen(listen_fd, 256) != 0) {
    const std::string err = std::strerror(errno);
    close(listen_fd);
    return Status::IoError("listen(): " + err);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) != 0) {
    close(listen_fd);
    return Status::IoError("getsockname() failed");
  }
  port_ = ntohs(bound.sin_port);

  const int epoll_fd = epoll_create1(EPOLL_CLOEXEC);
  const int wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd < 0 || wake_fd < 0) {
    close(listen_fd);
    if (epoll_fd >= 0) close(epoll_fd);
    if (wake_fd >= 0) close(wake_fd);
    return Status::IoError("epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev) != 0) {
    close(listen_fd);
    close(epoll_fd);
    close(wake_fd);
    return Status::IoError("epoll_ctl(listen) failed");
  }
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) != 0) {
    close(listen_fd);
    close(epoll_fd);
    close(wake_fd);
    return Status::IoError("epoll_ctl(wake) failed");
  }
  impl_->listen_fd = listen_fd;
  impl_->epoll_fd = epoll_fd;
  impl_->wake_fd = wake_fd;

  reactor_ = std::thread([this] { ReactorMain(); });
  const int workers = std::max(1, options_.num_workers);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  MutexLock lock(&lifecycle_mu_);
  started_ = true;
  return Status::Ok();
}

void HttpServer::Shutdown() {
  {
    MutexLock lock(&lifecycle_mu_);
    if (!started_ || stopped_) {
      return;
    }
    stopped_ = true;
  }
  {
    MutexLock lock(&impl_->cmd_mu);
    Command cmd;
    cmd.kind = Command::Kind::kBeginDrain;
    impl_->commands.push_back(std::move(cmd));
  }
  impl_->Wake();
  if (reactor_.joinable()) {
    reactor_.join();
  }
  {
    MutexLock lock(&queue_mu_);
    stop_workers_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  // Only now — with the reactor and every worker joined — is it safe to
  // close the fds they wake/wait on.
  if (impl_->epoll_fd >= 0) {
    close(impl_->epoll_fd);
    impl_->epoll_fd = -1;
  }
  if (impl_->wake_fd >= 0) {
    close(impl_->wake_fd);
    impl_->wake_fd = -1;
  }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

namespace {
constexpr int kMaxEpollEvents = 64;
constexpr int kEpollTickMillis = 20;
}  // namespace

void HttpServer::ReactorMain() {
  Impl& impl = *impl_;
  std::vector<epoll_event> events(kMaxEpollEvents);

  // Connection helpers. All of these run on this thread only.
  auto update_epoll = [&](const std::shared_ptr<Connection>& conn) {
    epoll_event ev{};
    ev.data.fd = conn->fd;
    if (conn->write_pending) {
      ev.events = EPOLLOUT;
    } else if (conn->phase == Connection::Phase::kReading) {
      ev.events = EPOLLIN | EPOLLRDHUP;
    } else {
      ev.events = EPOLLRDHUP;
    }
    epoll_ctl(impl.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  };

  // Takes its argument BY VALUE on purpose: callers often pass a reference
  // bound to the `impl.conns` map entry, and the erase below destroys that
  // entry — the local copy keeps the Connection (and the shared_ptr itself)
  // alive through the tail of this lambda.
  auto close_conn = [&](std::shared_ptr<Connection> conn) {
    if (conn->phase == Connection::Phase::kClosed) {
      return;
    }
    if (conn->cancel != nullptr && !conn->cancel->Cancelled()) {
      // A force-closed in-flight request must stop consuming the engine.
      conn->cancel->Cancel();
    }
    epoll_ctl(impl.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
    close(conn->fd);
    impl.conns.erase(conn->fd);
    conn->phase = Connection::Phase::kClosed;
  };

  // Response fully on the wire (or abandoned to a dead peer): advance the
  // keep-alive state machine. Returns true when the connection is ready to
  // service more buffered requests.
  auto after_response = [&](const std::shared_ptr<Connection>& conn) {
    impl.responses->Add();
    conn->write_buf.clear();
    conn->write_off = 0;
    conn->write_pending = false;
    if (conn->close_after_write || conn->peer_closed) {
      close_conn(conn);
      return false;
    }
    conn->phase = Connection::Phase::kReading;
    conn->cancel.reset();
    conn->parser.Reset();
    conn->last_activity = SteadyClock::now();
    if (conn->parser.MidRequest()) {
      conn->request_start = conn->last_activity;
    }
    update_epoll(conn);
    return true;
  };

  // Non-blocking flush; true when the buffer is fully written.
  auto flush_now = [&](const std::shared_ptr<Connection>& conn) {
    XVR_FAULT_POINT("net.write", {
      close_conn(conn);
      return false;
    });
    while (conn->write_off < conn->write_buf.size()) {
      const ssize_t n =
          send(conn->fd, conn->write_buf.data() + conn->write_off,
               conn->write_buf.size() - conn->write_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn->write_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        conn->write_pending = true;
        conn->write_start = SteadyClock::now();
        update_epoll(conn);
        return false;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      // Peer is gone; the response is undeliverable, not "dropped": the
      // client abandoned it.
      close_conn(conn);
      return false;
    }
    return true;
  };

  // Queues `response` on the connection and drives it as far as the socket
  // allows. Returns true when the connection can keep servicing requests.
  auto send_response = [&](const std::shared_ptr<Connection>& conn,
                           std::string response, bool keep_alive) {
    conn->write_buf = std::move(response);
    conn->write_off = 0;
    conn->close_after_write = !keep_alive || impl.draining;
    if (!flush_now(conn)) {
      return false;  // continued via EPOLLOUT, or the connection died
    }
    return after_response(conn);
  };

  auto send_error = [&](const std::shared_ptr<Connection>& conn, int status,
                        std::string_view code, std::string_view message) {
    const bool cont = send_response(
        conn,
        BuildHttpResponse(status, "application/json",
                          ErrorBody(code, message), false, ""),
        false);
    (void)cont;  // error responses always close; nothing left to service
  };

  // Routes one complete request. Returns true when the caller should try
  // to service further pipelined requests on this connection.
  auto dispatch = [&](const std::shared_ptr<Connection>& conn) {
    HttpRequest& req = *conn->parser.mutable_request();
    impl.requests->Add();
    const bool draining = impl.draining;

    if (req.target == "/healthz") {
      if (req.method != "GET") {
        send_error(conn, 405, "METHOD_NOT_ALLOWED", "use GET");
        return false;
      }
      return send_response(
          conn,
          BuildHttpResponse(draining ? 503 : 200, "text/plain",
                            draining ? "draining\n" : "ok\n",
                            req.keep_alive, ""),
          req.keep_alive);
    }
    if (req.target == "/metrics" || req.target == "/metrics.json") {
      if (req.method != "GET") {
        send_error(conn, 405, "METHOD_NOT_ALLOWED", "use GET");
        return false;
      }
      const bool json = req.target == "/metrics.json";
      return send_response(
          conn,
          BuildHttpResponse(200,
                            json ? "application/json" : "text/plain",
                            json ? engine_->MetricsJson()
                                 : engine_->MetricsText(),
                            req.keep_alive, ""),
          req.keep_alive);
    }
    if (req.target == "/query" || req.target == "/batch") {
      if (req.method != "POST") {
        send_error(conn, 405, "METHOD_NOT_ALLOWED", "use POST");
        return false;
      }
      // Per-request deadline: X-Deadline-Ms clamped into
      // [1, max_deadline_millis]; malformed values are a client bug worth
      // surfacing, not silently defaulting.
      int64_t deadline_ms = options_.default_deadline_millis;
      if (const std::string* header = req.Header("x-deadline-ms")) {
        uint64_t value = 0;
        if (!ParseBoundedUint(*header, 1'000'000'000, &value) || value == 0) {
          impl.parse_reject->Add();
          send_error(conn, 400, "BAD_DEADLINE",
                     "X-Deadline-Ms must be a positive integer");
          return false;
        }
        deadline_ms = static_cast<int64_t>(value);
      }
      deadline_ms =
          std::clamp<int64_t>(deadline_ms, 1, options_.max_deadline_millis);

      const AdmitDecision decision = admission_.TryAdmit();
      if (!Admitted(decision)) {
        impl.shed->Add();
        const char* cause = "overloaded";
        switch (decision) {
          case AdmitDecision::kShedQueueFull:
            impl.shed_queue_full->Add();
            cause = "queue full";
            break;
          case AdmitDecision::kShedQueueWait:
            impl.shed_queue_wait->Add();
            cause = "queue wait over bound";
            break;
          case AdmitDecision::kShedDraining:
            impl.shed_draining->Add();
            cause = "draining";
            break;
          case AdmitDecision::kAdmitted:
            break;
        }
        std::string retry = "Retry-After: " +
                            std::to_string(std::max(
                                1, options_.admission.retry_after_seconds)) +
                            "\r\n";
        const bool keep = req.keep_alive && !draining;
        return send_response(
            conn,
            BuildHttpResponse(503, "application/json",
                              ErrorBody("SHED", cause), keep, retry),
            keep);
      }

      auto job = std::make_unique<Job>();
      job->conn = conn;
      job->target = std::move(req.target);
      job->body = std::move(req.body);
      job->keep_alive = req.keep_alive;
      job->deadline = Deadline::AfterMicros(deadline_ms * 1000);
      job->deadline_millis = deadline_ms;
      job->cancel = std::make_shared<CancelToken>();
      job->enqueue_time = SteadyClock::now();
      conn->cancel = job->cancel;
      conn->phase = Connection::Phase::kBusy;
      update_epoll(conn);
      {
        MutexLock lock(&queue_mu_);
        queue_.push_back(std::move(job));
      }
      queue_cv_.NotifyOne();
      return false;
    }
    send_error(conn, 404, "NOT_FOUND", "no such endpoint");
    return false;
  };

  // Drives a readable connection through as many buffered requests as the
  // parser and socket yield.
  auto service = [&](const std::shared_ptr<Connection>& conn) {
    while (conn->phase == Connection::Phase::kReading &&
           !conn->write_pending) {
      if (conn->parser.state() == HttpParser::State::kError) {
        impl.parse_reject->Add();
        send_error(conn, conn->parser.error_code(), "BAD_REQUEST",
                   conn->parser.error_reason());
        return;
      }
      if (conn->parser.state() != HttpParser::State::kComplete) {
        return;
      }
      if (!dispatch(conn)) {
        return;
      }
    }
  };

  auto handle_readable = [&](const std::shared_ptr<Connection>& conn) {
    XVR_FAULT_POINT("net.read", {
      close_conn(conn);
      return;
    });
    char buf[16384];
    while (conn->phase == Connection::Phase::kReading &&
           conn->parser.state() == HttpParser::State::kNeedMore) {
      const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        if (!conn->parser.MidRequest()) {
          conn->request_start = SteadyClock::now();
        }
        conn->last_activity = SteadyClock::now();
        conn->parser.Feed(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        close_conn(conn);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      close_conn(conn);
      return;
    }
    service(conn);
  };

  auto accept_loop = [&] {
    while (true) {
      const int fd = accept4(impl.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        return;  // EAGAIN, or a transient accept error: try again on the
                 // next EPOLLIN
      }
      bool inject_drop = false;
      XVR_FAULT_POINT("net.accept", inject_drop = true);
      if (inject_drop) {
        close(fd);
        continue;
      }
      if (impl.conns.size() >= options_.max_connections) {
        // Hard connection cap: shed at the socket layer before buying the
        // connection any memory.
        close(fd);
        continue;
      }
      const int enable = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
      auto conn = std::make_shared<Connection>(options_.parser);
      conn->fd = fd;
      conn->last_activity = SteadyClock::now();
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP;
      ev.data.fd = fd;
      if (epoll_ctl(impl.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        close(fd);
        continue;
      }
      impl.conns[fd] = conn;
      impl.accepted->Add();
    }
  };

  auto handle_conn_event = [&](const std::shared_ptr<Connection>& conn,
                               uint32_t ev) {
    if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
      if (conn->phase == Connection::Phase::kBusy) {
        conn->peer_closed = true;
        if (!conn->cancel->Cancelled()) {
          conn->cancel->Cancel();
          impl.disconnect_cancel->Add();
        }
        epoll_ctl(impl.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
        return;
      }
      close_conn(conn);
      return;
    }
    if ((ev & EPOLLRDHUP) != 0 &&
        conn->phase == Connection::Phase::kBusy) {
      // Client walked away while its request is queued or executing: stop
      // spending engine time on it.
      conn->peer_closed = true;
      if (!conn->cancel->Cancelled()) {
        conn->cancel->Cancel();
        impl.disconnect_cancel->Add();
      }
      epoll_ctl(impl.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
      return;
    }
    if ((ev & EPOLLOUT) != 0 && conn->write_pending) {
      conn->write_pending = false;
      if (flush_now(conn)) {
        if (after_response(conn)) {
          service(conn);
        }
      }
      return;
    }
    if ((ev & (EPOLLIN | EPOLLRDHUP)) != 0 &&
        conn->phase == Connection::Phase::kReading) {
      handle_readable(conn);
    }
  };

  auto process_commands = [&] {
    std::vector<Command> batch;
    {
      MutexLock lock(&impl.cmd_mu);
      batch.swap(impl.commands);
    }
    for (Command& cmd : batch) {
      if (cmd.kind == Command::Kind::kBeginDrain) {
        if (impl.draining) {
          continue;
        }
        impl.draining = true;
        admission_.SetDraining(true);
        impl.drains->Add();
        impl.drain_deadline =
            SteadyClock::now() +
            std::chrono::milliseconds(options_.drain_timeout_millis);
        if (impl.listen_fd >= 0) {
          epoll_ctl(impl.epoll_fd, EPOLL_CTL_DEL, impl.listen_fd, nullptr);
          close(impl.listen_fd);
          impl.listen_fd = -1;
        }
        // Idle keep-alive connections have nothing in flight: close now.
        std::vector<std::shared_ptr<Connection>> idle;
        for (const auto& [fd, conn] : impl.conns) {
          if (conn->phase == Connection::Phase::kReading &&
              !conn->write_pending && !conn->parser.MidRequest()) {
            idle.push_back(conn);
          }
        }
        for (const auto& conn : idle) {
          close_conn(conn);
        }
        continue;
      }
      // kResponse: a worker finished an admitted request.
      const std::shared_ptr<Connection>& conn = cmd.conn;
      if (conn->phase != Connection::Phase::kBusy) {
        continue;  // connection died while the worker ran
      }
      if (conn->peer_closed) {
        close_conn(conn);
        continue;
      }
      if (send_response(conn, std::move(cmd.response), cmd.keep_alive)) {
        service(conn);
      }
    }
  };

  auto sweep_timeouts = [&] {
    const SteadyClock::time_point now = SteadyClock::now();
    std::vector<std::shared_ptr<Connection>> expired_read;
    std::vector<std::shared_ptr<Connection>> expired_idle;
    std::vector<std::shared_ptr<Connection>> expired_write;
    for (const auto& [fd, conn] : impl.conns) {
      if (conn->write_pending &&
          MillisBetween(conn->write_start, now) >
              options_.write_timeout_millis) {
        expired_write.push_back(conn);
      } else if (conn->phase == Connection::Phase::kReading &&
                 !conn->write_pending && conn->parser.MidRequest() &&
                 MillisBetween(conn->request_start, now) >
                     options_.read_timeout_millis) {
        expired_read.push_back(conn);
      } else if (conn->phase == Connection::Phase::kReading &&
                 !conn->write_pending && !conn->parser.MidRequest() &&
                 MillisBetween(conn->last_activity, now) >
                     options_.idle_timeout_millis) {
        expired_idle.push_back(conn);
      }
    }
    for (const auto& conn : expired_write) {
      close_conn(conn);
    }
    for (const auto& conn : expired_read) {
      // Slowloris: the request did not complete within the read deadline.
      impl.read_timeout->Add();
      send_error(conn, 408, "READ_TIMEOUT",
                 "request did not arrive within the read deadline");
    }
    for (const auto& conn : expired_idle) {
      close_conn(conn);
    }

    if (impl.draining && !impl.drain_cancel_fired &&
        now >= impl.drain_deadline) {
      // Drain grace expired: cancel everything still in flight so workers
      // finish promptly; their CANCELLED responses still go out.
      impl.drain_cancel_fired = true;
      for (const auto& [fd, conn] : impl.conns) {
        if (conn->phase == Connection::Phase::kBusy &&
            conn->cancel != nullptr && !conn->cancel->Cancelled()) {
          conn->cancel->Cancel();
          conn->drain_cancelled = true;
        }
        if (conn->phase == Connection::Phase::kReading &&
            !conn->write_pending) {
          // Half-arrived requests get no more patience during drain.
          expired_read.push_back(conn);
        }
      }
      for (const auto& conn : expired_read) {
        if (conn->phase == Connection::Phase::kReading) {
          close_conn(conn);
        }
      }
    }
    if (impl.draining && impl.drain_cancel_fired &&
        MillisBetween(impl.drain_deadline, now) >
            options_.write_timeout_millis) {
      // Final backstop: nothing may wedge Shutdown forever.
      std::vector<std::shared_ptr<Connection>> rest;
      rest.reserve(impl.conns.size());
      for (const auto& [fd, conn] : impl.conns) {
        rest.push_back(conn);
      }
      for (const auto& conn : rest) {
        close_conn(conn);
      }
    }
  };

  auto drain_complete = [&] {
    if (!impl.draining || !impl.conns.empty()) {
      return false;
    }
    MutexLock lock(&queue_mu_);
    return queue_.empty() && admission_.inflight() == 0;
  };

  while (true) {
    const int n = epoll_wait(impl.epoll_fd, events.data(),
                             kMaxEpollEvents, kEpollTickMillis);
    if (n < 0 && errno != EINTR) {
      XVR_LOG(ERROR) << "epoll_wait failed: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[static_cast<size_t>(i)].data.fd;
      const uint32_t ev = events[static_cast<size_t>(i)].events;
      if (fd == impl.wake_fd) {
        uint64_t drained = 0;
        const ssize_t r = read(impl.wake_fd, &drained, sizeof(drained));
        (void)r;
        continue;
      }
      if (fd == impl.listen_fd) {
        accept_loop();
        continue;
      }
      auto it = impl.conns.find(fd);
      if (it == impl.conns.end()) {
        continue;  // closed earlier in this batch
      }
      // Copy, don't reference: the handlers may close_conn(), which erases
      // the map entry this iterator points at.
      const std::shared_ptr<Connection> conn = it->second;
      handle_conn_event(conn, ev);
    }
    process_commands();
    sweep_timeouts();
    if (drain_complete()) {
      break;
    }
  }

  for (const auto& [fd, conn] : impl.conns) {
    close(fd);
    conn->phase = Connection::Phase::kClosed;
  }
  impl.conns.clear();
  if (impl.listen_fd >= 0) {
    close(impl.listen_fd);
    impl.listen_fd = -1;
  }
  // epoll_fd and wake_fd are NOT closed here: Shutdown() (and workers
  // posting completion commands) may still write() to wake_fd with no
  // ordering against this tail. Shutdown() closes both after joining
  // every thread that can touch them.
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

void HttpServer::WorkerMain() {
  while (true) {
    std::unique_ptr<Job> job;
    {
      MutexLock lock(&queue_mu_);
      while (queue_.empty() && !stop_workers_) {
        queue_cv_.Wait(&queue_mu_);
      }
      if (queue_.empty()) {
        return;  // stop_workers_ and nothing left
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    const int64_t wait_micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            SteadyClock::now() - job->enqueue_time)
            .count();
    admission_.OnDequeue(wait_micros);
    // Queue wait of *admitted* requests only: shed requests never reach
    // this queue, so overload cannot launder its rejects into the latency
    // signal that drives further shedding.
    impl_->queue_wait->RecordNanos(wait_micros * 1000);

    bool keep_alive = true;
    std::string response = HandleJob(job.get(), &keep_alive);
    Command cmd;
    cmd.kind = Command::Kind::kResponse;
    cmd.conn = job->conn;
    cmd.response = std::move(response);
    cmd.keep_alive = keep_alive;
    {
      MutexLock lock(&impl_->cmd_mu);
      impl_->commands.push_back(std::move(cmd));
    }
    impl_->Wake();
    admission_.OnComplete();
  }
}

std::string HttpServer::HandleJob(Job* job, bool* keep_alive) {
  *keep_alive = job->keep_alive && !admission_.draining();

  // Test/bench service-time knob; sleeps in cancellation-aware slices.
  for (int64_t slept = 0; slept < options_.debug_handler_delay_millis;
       ++slept) {
    if (job->cancel->Cancelled() || job->deadline.Expired()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  int http_status = 200;
  std::string body;
  if (job->cancel->Cancelled()) {
    // Disconnected client or drain-cancel: answer cheaply and correctly.
    http_status = admission_.draining() ? 503 : 499;
    body = ErrorBody("CANCELLED", admission_.draining()
                                      ? "cancelled by shutdown drain"
                                      : "client closed connection");
  } else if (job->deadline.Expired()) {
    // Spent its whole budget in the queue: answering now would only make
    // the overload worse.
    http_status = 504;
    body = ErrorBody("DEADLINE_EXCEEDED",
                     "deadline of " + std::to_string(job->deadline_millis) +
                         "ms expired before execution");
  } else {
    QueryLimits limits;
    limits.deadline = job->deadline;
    limits.cancel = job->cancel.get();
    body = job->target == "/query" ? HandleQuery(*job, limits, &http_status)
                                   : HandleBatch(*job, limits, &http_status);
  }
  if (http_status >= 500 && http_status != 503 && http_status != 504) {
    *keep_alive = false;
  }
  return BuildHttpResponse(http_status, "application/json", body,
                           *keep_alive, "");
}

namespace {

// Pulls the optional per-request budget fields out of a "limits" member.
void ApplyJsonLimits(const JsonValue& root, QueryLimits* limits) {
  const JsonValue* obj = root.Find("limits");
  if (obj == nullptr || !obj->is_object()) {
    return;
  }
  const auto as_size = [&](const char* key, size_t* out) {
    const JsonValue* v = obj->Find(key);
    if (v != nullptr && v->is_number() && v->number_value >= 0 &&
        v->number_value < 1e9) {
      *out = static_cast<size_t>(v->number_value);
    }
  };
  as_size("max_candidates", &limits->max_candidates);
  as_size("max_join_fragments", &limits->max_join_fragments);
  as_size("max_result_codes", &limits->max_result_codes);
}

void AppendAnswerJson(std::string* out, const QueryAnswer& answer) {
  // About 16 bytes per quoted code, plus the fixed fields.
  out->reserve(out->size() + 16 * answer.codes.size() + 160);
  out->append("{\"count\":");
  AppendJsonUint(out, answer.codes.size());
  out->append(",\"codes\":[");
  for (size_t i = 0; i < answer.codes.size(); ++i) {
    if (i > 0) {
      out->push_back(',');
    }
    // Codes are digits and dots: nothing to escape.
    out->push_back('"');
    answer.codes[i].AppendTo(out);
    out->push_back('"');
  }
  out->append("],\"stats\":{\"total_micros\":");
  AppendJsonNumber(out, answer.stats.total_micros);
  out->append(",\"views_selected\":");
  AppendJsonUint(out, answer.stats.views_selected);
  out->append(",\"plan_cache_hit\":");
  out->append(answer.stats.plan_cache_hit ? "true" : "false");
  out->append(",\"degraded_selection\":");
  out->append(answer.stats.degraded_selection ? "true" : "false");
  out->append("}}");
}

constexpr size_t kMaxXPathBytes = 4096;

}  // namespace

std::string HttpServer::HandleQuery(const Job& job, const QueryLimits& limits,
                                    int* http_status) {
  Result<JsonValue> parsed = ParseJson(job.body);
  if (!parsed.ok()) {
    *http_status = 400;
    return StatusBody(parsed.status());
  }
  const JsonValue& root = *parsed;
  const JsonValue* xpath = root.Find("xpath");
  if (!root.is_object() || xpath == nullptr || !xpath->is_string() ||
      xpath->string_value.empty() ||
      xpath->string_value.size() > kMaxXPathBytes) {
    *http_status = 400;
    return ErrorBody("BAD_REQUEST",
                     "body must be {\"xpath\": \"...\"} (non-empty, <= " +
                         std::to_string(kMaxXPathBytes) + " bytes)");
  }
  const Result<AnswerStrategy> strategy =
      RequestStrategy(root, options_.default_strategy);
  if (!strategy.ok()) {
    *http_status = 400;
    return ErrorBody("BAD_STRATEGY", strategy.status().message());
  }
  QueryLimits effective = limits;
  ApplyJsonLimits(root, &effective);

  Result<TreePattern> pattern = Status::Internal("unparsed");
  {
    MutexLock lock(&parse_mu_);
    pattern = engine_->Parse(xpath->string_value);
  }
  if (!pattern.ok()) {
    *http_status = HttpStatusFor(pattern.status().code());
    return StatusBody(pattern.status());
  }
  const Result<Engine::Answer> answer =
      engine_->AnswerQuery(*pattern, *strategy, effective);
  if (!answer.ok()) {
    *http_status = HttpStatusFor(answer.status().code());
    return StatusBody(answer.status());
  }
  *http_status = 200;
  std::string body;
  AppendAnswerJson(&body, *answer);
  return body;
}

std::string HttpServer::HandleBatch(const Job& job, const QueryLimits& limits,
                                    int* http_status) {
  Result<JsonValue> parsed = ParseJson(job.body);
  if (!parsed.ok()) {
    *http_status = 400;
    return StatusBody(parsed.status());
  }
  const JsonValue& root = *parsed;
  const JsonValue* queries = root.Find("queries");
  if (!root.is_object() || queries == nullptr || !queries->is_array() ||
      queries->items.empty() ||
      queries->items.size() > options_.max_batch_slots) {
    *http_status = 400;
    return ErrorBody(
        "BAD_REQUEST",
        "body must be {\"queries\": [...]} with 1 to " +
            std::to_string(options_.max_batch_slots) + " entries");
  }
  const Result<AnswerStrategy> strategy =
      RequestStrategy(root, options_.default_strategy);
  if (!strategy.ok()) {
    *http_status = 400;
    return ErrorBody("BAD_STRATEGY", strategy.status().message());
  }
  QueryLimits effective = limits;
  ApplyJsonLimits(root, &effective);

  // Per-slot parse: a bad slot fails that slot, never the batch.
  const size_t n = queries->items.size();
  std::vector<Result<TreePattern>> patterns;
  patterns.reserve(n);
  {
    MutexLock lock(&parse_mu_);
    for (const JsonValue& item : queries->items) {
      std::string_view xpath;
      if (item.is_string()) {
        xpath = item.string_value;
      } else if (item.is_object()) {
        xpath = item.StringOr("xpath", "");
      }
      if (xpath.empty() || xpath.size() > kMaxXPathBytes) {
        patterns.emplace_back(
            Status::InvalidArgument("slot has no valid xpath"));
        continue;
      }
      patterns.push_back(engine_->Parse(std::string(xpath)));
    }
  }
  // Slot by slot on this worker, through the worker's own context:
  // cross-request parallelism comes from the worker pool, and one runaway
  // batch must not grab extra threads. A failing slot fails that slot only.
  std::string body = "{\"results\":[";
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) {
      body.push_back(',');
    }
    if (!patterns[i].ok()) {
      body += StatusBody(patterns[i].status());
      continue;
    }
    const Result<Engine::Answer> answer =
        engine_->AnswerQuery(*patterns[i], *strategy, effective);
    if (!answer.ok()) {
      body += StatusBody(answer.status());
      continue;
    }
    AppendAnswerJson(&body, *answer);
  }
  body += "],\"count\":";
  AppendJsonUint(&body, n);
  body += "}";
  *http_status = 200;
  return body;
}

}  // namespace xvr
