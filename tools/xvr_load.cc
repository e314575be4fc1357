// xvr_load — concurrent mixed-traffic driver for xvr_serve.
//
// Each worker thread runs its own connection and fires a deterministic
// (seeded) mix of traffic at the server: well-formed /query and /batch
// posts, /metrics and /healthz probes, deliberately malformed requests
// (which must come back as clean 4xx), and mid-flight disconnects (close
// right after sending — the server is expected to cancel the in-flight
// work, not crash). Every well-formed request must receive a response;
// the tool exits nonzero if any went unanswered, which is exactly the
// "zero requests dropped without a response" acceptance bar.
//
// With --verify, every /query answered 200 is asked again with
// "strategy": "BN" (evaluation over the base document, no views) and the
// tool exits nonzero if the two code arrays differ in any way.
//
//   xvr_load --port P [--threads N] [--requests R] [--deadline-ms MS]
//            [--malformed-pct X] [--disconnect-pct Y] [--seed S] [--verify]
//
// Prints a one-line JSON summary (counts by status class, shed count,
// verified and mismatched answers, latency percentiles) for scripts to
// parse.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/random.h"
#include "net/client.h"

namespace xvr {
namespace {

struct LoadOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int threads = 4;
  int requests = 200;  // per thread
  int64_t deadline_ms = 1000;
  int malformed_pct = 0;
  int disconnect_pct = 0;
  uint64_t seed = 1;
  bool verify = false;
};

struct Tally {
  uint64_t ok = 0;           // 2xx
  uint64_t client_err = 0;   // 4xx (excluding 499)
  uint64_t shed = 0;         // 503
  uint64_t deadline = 0;     // 504
  uint64_t cancelled = 0;    // 499
  uint64_t server_err = 0;   // other 5xx
  uint64_t unanswered = 0;   // well-formed request, no response
  uint64_t disconnects = 0;  // deliberate mid-flight closes
  uint64_t verified = 0;     // 200 answers BN re-answered with equal codes
  uint64_t mismatched = 0;   // 200 answers BN re-answered differently
  std::vector<int64_t> latencies_micros;
};

const char* kQueries[] = {
    "/site/people/person[profile/interest]/name",
    "/site/regions//item[location]/name",
    "/site/open_auctions/open_auction[bidder]/reward",
    "//person[profile/interest]/name",
};

const char* PickQuery(Rng* rng) {
  return kQueries[rng->NextBounded(sizeof(kQueries) / sizeof(kQueries[0]))];
}

// {"xpath": X}, or {"xpath": X, "strategy": S} with a strategy.
std::string QueryBody(std::string_view xpath, std::string_view strategy = "") {
  std::string body = "{\"xpath\": \"";
  body += xpath;
  body += "\"";
  if (!strategy.empty()) {
    body += ", \"strategy\": \"";
    body += strategy;
    body += "\"";
  }
  body += "}";
  return body;
}

std::string BatchBody(Rng* rng) {
  std::string body = "{\"queries\": [";
  const int n = rng->NextInt(1, 4);
  for (int i = 0; i < n; ++i) {
    if (i > 0) {
      body += ", ";
    }
    body += "\"";
    body += PickQuery(rng);
    body += "\"";
  }
  body += "]}";
  return body;
}

// The raw "codes" array of a /query response, or "" if there is none. Every
// strategy's answer goes through one serializer, so equal code sets give
// equal bytes.
std::string_view CodesArray(std::string_view body) {
  constexpr std::string_view kKey = "\"codes\":[";
  const size_t begin = body.find(kKey);
  const size_t end =
      begin == std::string_view::npos ? begin : body.find(']', begin);
  return end == std::string_view::npos ? std::string_view()
                                       : body.substr(begin, end + 1 - begin);
}

// A grab-bag of requests the parser must reject without crashing.
const char* kMalformed[] = {
    "GARBAGE\r\n\r\n",
    "GET  /two-spaces  HTTP/1.1\r\n\r\n",
    "POST /query HTTP/9.9\r\nContent-Length: 0\r\n\r\n",
    "POST /query HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    "POST /query HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n",
    "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    "POST /query HTTP/1.1\r\n: empty-name\r\n\r\n",
};

void WorkerLoop(const LoadOptions& opts, uint64_t seed, Tally* tally) {
  Rng rng(seed);
  HttpClient client;
  for (int i = 0; i < opts.requests; ++i) {
    if (!client.connected()) {
      const Status connected = client.Connect(opts.host, opts.port);
      if (!connected.ok()) {
        // Server gone (or drained): everything else would be unanswered.
        tally->unanswered += static_cast<uint64_t>(opts.requests - i);
        return;
      }
    }
    const int roll = rng.NextInt(0, 99);
    if (roll < opts.malformed_pct) {
      // Malformed request: expect a 4xx/5xx and a server-side close.
      const char* image = kMalformed[rng.NextBounded(
          sizeof(kMalformed) / sizeof(kMalformed[0]))];
      if (!client.SendRaw(image).ok()) {
        client.Close();
        continue;
      }
      Result<HttpResponse> response = client.ReadResponse();
      if (response.ok() && response->status >= 400) {
        tally->client_err++;
      }
      client.Close();  // parser errors always close server-side
      continue;
    }
    if (roll < opts.malformed_pct + opts.disconnect_pct) {
      // Mid-flight disconnect: send a valid request, hang up immediately.
      std::string body = QueryBody(PickQuery(&rng));
      std::string wire = "POST /query HTTP/1.1\r\nHost: load\r\n"
                         "Content-Length: " +
                         std::to_string(body.size()) + "\r\n\r\n" + body;
      Status sent = client.SendRaw(wire);
      (void)sent;  // the disconnect is the point, delivery is best-effort
      client.Close();
      tally->disconnects++;
      continue;
    }

    std::string target = "/query";
    std::string body;
    const char* xpath = nullptr;
    if (roll >= 95) {
      target = "/metrics";
      body.clear();
    } else if (roll >= 85) {
      target = "/batch";
      body = BatchBody(&rng);
    } else {
      xpath = PickQuery(&rng);
      body = QueryBody(xpath);
    }
    const std::string method = target == "/metrics" ? "GET" : "POST";
    const std::string deadline_header =
        "X-Deadline-Ms: " + std::to_string(opts.deadline_ms) + "\r\n";
    const auto start = std::chrono::steady_clock::now();
    Result<HttpResponse> response = client.Roundtrip(
        method, target, body, method == "POST" ? deadline_header : "",
        /*timeout_millis=*/opts.deadline_ms * 4 + 2000);
    const int64_t micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (!response.ok()) {
      tally->unanswered++;
      client.Close();
      continue;
    }
    tally->latencies_micros.push_back(micros);
    const int status = response->status;
    if (status >= 200 && status < 300) {
      tally->ok++;
    } else if (status == 503) {
      tally->shed++;
    } else if (status == 504) {
      tally->deadline++;
    } else if (status == 499) {
      tally->cancelled++;
    } else if (status >= 400 && status < 500) {
      tally->client_err++;
    } else {
      tally->server_err++;
    }
    if (const std::string* connection = response->Header("connection")) {
      if (*connection == "close") {
        client.Close();
        continue;
      }
    }
    if (opts.verify && xpath != nullptr && status == 200) {
      Result<HttpResponse> base =
          client.Roundtrip("POST", "/query", QueryBody(xpath, "BN"),
                           deadline_header, opts.deadline_ms * 4 + 2000);
      if (!base.ok()) {
        tally->unanswered++;
        client.Close();
        continue;
      }
      const std::string_view codes = CodesArray(response->body);
      if (base->status == 200 && !codes.empty() &&
          codes == CodesArray(base->body)) {
        tally->verified++;
      } else if (base->status == 200) {
        tally->mismatched++;
        std::cerr << "answer mismatch for " << xpath << ": "
                  << response->body << " vs BN " << base->body << "\n";
      }
      if (const std::string* connection = base->Header("connection")) {
        if (*connection == "close") {
          client.Close();
        }
      }
    }
  }
}

int64_t Percentile(std::vector<int64_t>* sorted, double p) {
  if (sorted->empty()) {
    return 0;
  }
  std::sort(sorted->begin(), sorted->end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted->size() - 1) + 0.5);
  return (*sorted)[std::min(idx, sorted->size() - 1)];
}

int Main(int argc, char** argv) {
  LoadOptions opts;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> int64_t {
      if (i + 1 >= argc) {
        std::cerr << argv[i] << " needs a value\n";
        std::exit(2);
      }
      return std::atoll(argv[++i]);
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      opts.port = static_cast<uint16_t>(next());
    } else if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
      opts.host = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opts.threads = static_cast<int>(next());
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      opts.requests = static_cast<int>(next());
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      opts.deadline_ms = next();
    } else if (std::strcmp(argv[i], "--malformed-pct") == 0) {
      opts.malformed_pct = static_cast<int>(next());
    } else if (std::strcmp(argv[i], "--disconnect-pct") == 0) {
      opts.disconnect_pct = static_cast<int>(next());
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opts.seed = static_cast<uint64_t>(next());
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      opts.verify = true;
    } else {
      std::cerr << "unknown flag " << argv[i] << "\n";
      return 2;
    }
  }
  if (opts.port == 0) {
    std::cerr << "--port is required\n";
    return 2;
  }

  std::vector<Tally> tallies(static_cast<size_t>(opts.threads));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(opts.threads));
  for (int t = 0; t < opts.threads; ++t) {
    threads.emplace_back(WorkerLoop, opts,
                         opts.seed * 1000003 + static_cast<uint64_t>(t),
                         &tallies[static_cast<size_t>(t)]);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  Tally total;
  for (const Tally& tally : tallies) {
    total.ok += tally.ok;
    total.client_err += tally.client_err;
    total.shed += tally.shed;
    total.deadline += tally.deadline;
    total.cancelled += tally.cancelled;
    total.server_err += tally.server_err;
    total.unanswered += tally.unanswered;
    total.disconnects += tally.disconnects;
    total.verified += tally.verified;
    total.mismatched += tally.mismatched;
    total.latencies_micros.insert(total.latencies_micros.end(),
                                  tally.latencies_micros.begin(),
                                  tally.latencies_micros.end());
  }
  const int64_t p50 = Percentile(&total.latencies_micros, 0.50);
  const int64_t p99 = Percentile(&total.latencies_micros, 0.99);
  std::cout << "{\"ok\": " << total.ok
            << ", \"client_err\": " << total.client_err
            << ", \"shed\": " << total.shed
            << ", \"deadline\": " << total.deadline
            << ", \"cancelled\": " << total.cancelled
            << ", \"server_err\": " << total.server_err
            << ", \"unanswered\": " << total.unanswered
            << ", \"disconnects\": " << total.disconnects
            << ", \"verified\": " << total.verified
            << ", \"mismatched\": " << total.mismatched
            << ", \"p50_micros\": " << p50 << ", \"p99_micros\": " << p99
            << "}\n";
  return total.unanswered == 0 && total.mismatched == 0 ? 0 : 1;
}

}  // namespace
}  // namespace xvr

int main(int argc, char** argv) { return xvr::Main(argc, argv); }
