// bench_loadgen: open-loop load generator for the network query service.
// Arrivals are scheduled on a fixed clock (an overloaded server does not
// slow the offered rate — queueing shows up in the latency tail instead),
// issued over real loopback sockets by a pool of connections, and measured
// from scheduled arrival to final poll response, so coordinated omission
// is accounted for.
//
// Three modes:
//   --self                in-process servers: a Pers phase and a DBLP
//                         phase (each its own Engine + QueryServer), with
//                         a cache-miss mix, a deadline spread, and —
//                         with --failpoints — low-probability fault
//                         injection at service.submit / exec.batch.
//                         With --saturation, a stepped rate sweep follows,
//                         doubling the offered QPS until achieved
//                         throughput drops below 90% of offered.
//   --connect host:port   drive an already-running sjos_serve (the CI
//                         smoke path); one phase, Pers workload.
//                         --write-fraction F turns that fraction of
//                         arrivals into update-verb inserts (with an
//                         occasional flush) for mixed read/write load.
//   --chaos --server-bin ./sjos_serve
//                         chaos-restart harness: supervises a real
//                         sjos_serve child, SIGKILLs and restarts it
//                         mid-load (rotating SJOS_FAILPOINTS per
//                         incarnation) while resilient clients ride
//                         through and a raw injector tears frames
//                         mid-payload. Asserts every query reached a
//                         definite terminal state, replays are
//                         duplicate-free, and no quota slot leaked;
//                         prints a `chaos: ... unresolved=0 duplicates=0
//                         leaked_slots=0` tally for CI to grep, and
//                         records per-restart recovery times. --metrics-out
//                         and --server-metrics-out dump the client-side
//                         and server-side Prometheus text for promcheck.
//
// Reports per-phase p50/p95/p99/mean/max latency and achieved QPS, and
// writes the whole run as BENCH_service.json (override with --json).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "net/client.h"
#include "net/json.h"
#include "net/resilient_client.h"
#include "net/server.h"
#include "query/workload.h"
#include "service/engine.h"

using namespace sjos;

namespace {

using Clock = std::chrono::steady_clock;

struct Config {
  bool self = true;
  std::string connect_host;
  uint16_t connect_port = 0;
  double qps = 50.0;
  double duration_s = 3.0;
  size_t connections = 4;
  double miss_fraction = 0.3;    // requests sent with use_plan_cache=false
  double write_fraction = 0.0;   // arrivals sent as update-verb inserts
  bool deadline_spread = true;   // rotate {none, 100ms, 5ms}
  bool failpoints = false;       // self mode: arm low-probability faults
  bool saturation = false;       // stepped rate sweep after the phases
  uint64_t nodes = 20'000;       // self-mode dataset size
  uint64_t quota_in_flight = 32; // self-mode per-tenant in-flight cap
  std::string json_path = "BENCH_service.json";
  /// Self mode: JSONL audit sink for the in-process Engines ("" keeps the
  /// log in-memory only). The background writer keeps file I/O off the
  /// query path, so enabling this should not move the latency numbers.
  std::string query_log_path;

  // Chaos mode (see file comment).
  bool chaos = false;
  std::string server_bin;          // --server-bin: the sjos_serve to spawn
  size_t chaos_restarts = 2;       // SIGKILL/restart cycles mid-load
  std::string metrics_out;         // client-side Prometheus dump path
  std::string server_metrics_out;  // server-side Prometheus dump path
};

struct PhaseResult {
  std::string name;
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t deadline_cut = 0;
  uint64_t errors = 0;
  uint64_t writes = 0;  // update-verb arrivals (counted inside requests)
  std::vector<double> latencies_ms;  // completed (ok) requests only

  double Percentile(double q) const {
    if (latencies_ms.empty()) return 0.0;
    std::vector<double> sorted = latencies_ms;
    std::sort(sorted.begin(), sorted.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
  }
  double Mean() const {
    if (latencies_ms.empty()) return 0.0;
    double sum = 0.0;
    for (double v : latencies_ms) sum += v;
    return sum / static_cast<double>(latencies_ms.size());
  }
  double Max() const {
    double m = 0.0;
    for (double v : latencies_ms) m = std::max(m, v);
    return m;
  }
};

std::vector<std::string> WorkloadQueries(const std::string& dataset) {
  std::vector<std::string> queries;
  for (const BenchQuery& q : PaperWorkload()) {
    if (q.dataset == dataset) queries.push_back(q.pattern_text);
  }
  SJOS_CHECK(!queries.empty(), "no workload queries for dataset");
  return queries;
}

std::string BuildSubmit(const std::string& id, const std::string& query,
                        bool use_cache, uint64_t deadline_ms) {
  std::string out = "{\"verb\":\"submit\",\"id\":";
  net::AppendJsonString(id, &out);
  out += ",\"query\":";
  net::AppendJsonString(query, &out);
  if (!use_cache) out += ",\"use_plan_cache\":false";
  if (deadline_ms > 0) {
    out += ",\"deadline_ms\":";
    net::AppendJsonUint(deadline_ms, &out);
  }
  out += "}";
  return out;
}

/// Mixed read/write load: one small subtree appended under the document
/// root, or — every ~50th write — a flush folding the overlay back into
/// the base arrays.
std::string BuildUpdate(const std::string& id, bool flush) {
  std::string out = "{\"verb\":\"update\",\"id\":";
  net::AppendJsonString(id, &out);
  if (flush) {
    out += ",\"action\":\"flush\"}";
  } else {
    out += ",\"action\":\"insert\",\"parent\":0,\"xml\":";
    net::AppendJsonString("<lgw><item>x</item></lgw>", &out);
    out += "}";
  }
  return out;
}

const net::JsonValue* Field(const net::JsonValue& v, const char* key) {
  return v.is_object() ? v.Find(key) : nullptr;
}

bool FieldBool(const net::JsonValue& v, const char* key) {
  const net::JsonValue* f = Field(v, key);
  return f != nullptr && f->is_bool() && f->bool_value();
}

std::string FieldString(const net::JsonValue& v, const char* key) {
  const net::JsonValue* f = Field(v, key);
  return f != nullptr && f->is_string() ? std::string(f->string_value())
                                        : std::string();
}

/// One worker: claims arrival slots off the shared schedule, runs each
/// request to completion (submit + blocking polls) on its own connection.
void Worker(const std::string& host, uint16_t port, size_t worker_index,
            const std::vector<std::string>& queries, const Config& config,
            Clock::time_point start, uint64_t total_arrivals,
            std::atomic<uint64_t>* next_arrival, std::mutex* result_mu,
            PhaseResult* result) {
  Result<net::Client> connected = net::Client::Connect(host, port);
  if (!connected.ok()) {
    std::lock_guard<std::mutex> lock(*result_mu);
    result->errors += 1;  // count the dead worker once, not per arrival
    return;
  }
  net::Client client = std::move(connected).value();
  const double interval_s = 1.0 / config.qps;

  uint64_t local_ok = 0, local_shed = 0, local_deadline = 0, local_errors = 0,
           local_requests = 0, local_writes = 0;
  std::vector<double> local_latencies;

  for (;;) {
    const uint64_t i = next_arrival->fetch_add(1, std::memory_order_relaxed);
    if (i >= total_arrivals) break;
    const Clock::time_point scheduled =
        start + std::chrono::microseconds(
                    static_cast<uint64_t>(i * interval_s * 1e6));
    std::this_thread::sleep_until(scheduled);
    ++local_requests;

    const std::string id =
        "lg-" + std::to_string(worker_index) + "-" + std::to_string(i);

    // Bresenham-style selection: arrival i is a write when the running
    // total floor(i * fraction) ticks up, spreading writes evenly through
    // the arrival sequence (i % 100 style windows would front-load them).
    if (config.write_fraction > 0.0 &&
        static_cast<uint64_t>(static_cast<double>(i + 1) *
                              config.write_fraction) >
            static_cast<uint64_t>(static_cast<double>(i) *
                                  config.write_fraction)) {
      // Update verbs are synchronous — one round trip, no poll loop.
      Result<net::JsonValue> done =
          client.Call(BuildUpdate(id, (local_writes % 50) == 49));
      ++local_writes;
      if (!done.ok()) {
        ++local_errors;
        break;  // transport broken; stop this worker
      }
      if (FieldBool(done.value(), "ok")) {
        ++local_ok;
        local_latencies.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
                .count());
      } else if (FieldString(done.value(), "code") == "ResourceExhausted") {
        ++local_shed;
      } else {
        ++local_errors;
      }
      continue;
    }

    const bool use_cache =
        config.miss_fraction <= 0.0 ||
        static_cast<double>(i % 100) >= config.miss_fraction * 100.0;
    uint64_t deadline_ms = 0;
    if (config.deadline_spread) {
      switch (i % 3) {
        case 1: deadline_ms = 100; break;
        case 2: deadline_ms = 5; break;
        default: break;
      }
    }

    Result<net::JsonValue> submitted = client.Call(
        BuildSubmit(id, queries[i % queries.size()], use_cache, deadline_ms));
    if (!submitted.ok()) {
      ++local_errors;
      break;  // transport broken; stop this worker
    }
    if (!FieldBool(submitted.value(), "ok")) {
      if (FieldString(submitted.value(), "code") == "ResourceExhausted") {
        ++local_shed;
      } else {
        ++local_errors;
      }
      continue;
    }

    bool finished = false;
    bool transport_down = false;
    while (!finished) {
      std::string poll = "{\"verb\":\"poll\",\"id\":";
      net::AppendJsonString(id, &poll);
      poll += ",\"wait_ms\":2000}";
      Result<net::JsonValue> response = client.Call(poll);
      if (!response.ok()) {
        ++local_errors;
        transport_down = true;
        break;
      }
      const net::JsonValue& r = response.value();
      if (FieldBool(r, "ok") && !FieldBool(r, "done")) continue;
      finished = true;
      if (FieldBool(r, "ok")) {
        ++local_ok;
        local_latencies.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      scheduled)
                .count());
      } else if (FieldString(r, "verdict") == "deadline") {
        ++local_deadline;
      } else {
        ++local_errors;
      }
    }
    if (transport_down) break;
  }

  std::lock_guard<std::mutex> lock(*result_mu);
  result->requests += local_requests;
  result->ok += local_ok;
  result->shed += local_shed;
  result->deadline_cut += local_deadline;
  result->errors += local_errors;
  result->writes += local_writes;
  result->latencies_ms.insert(result->latencies_ms.end(),
                              local_latencies.begin(), local_latencies.end());
}

PhaseResult RunPhase(const std::string& name, const std::string& host,
                     uint16_t port, const std::vector<std::string>& queries,
                     const Config& config) {
  PhaseResult result;
  result.name = name;
  result.offered_qps = config.qps;

  const uint64_t total_arrivals =
      std::max<uint64_t>(1, static_cast<uint64_t>(config.qps *
                                                  config.duration_s));
  std::atomic<uint64_t> next_arrival{0};
  std::mutex result_mu;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);

  std::vector<std::thread> workers;
  workers.reserve(config.connections);
  for (size_t w = 0; w < config.connections; ++w) {
    workers.emplace_back(Worker, host, port, w, std::cref(queries),
                         std::cref(config), start, total_arrivals,
                         &next_arrival, &result_mu, &result);
  }
  for (std::thread& t : workers) t.join();

  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.achieved_qps =
      elapsed_s > 0.0 ? static_cast<double>(result.ok) / elapsed_s : 0.0;
  return result;
}

void PrintPhase(const PhaseResult& r) {
  std::printf(
      "%-10s offered %7.1f qps  achieved %7.1f qps  n=%llu ok=%llu "
      "shed=%llu deadline=%llu err=%llu writes=%llu\n"
      "           p50=%.2fms p95=%.2fms p99=%.2fms mean=%.2fms max=%.2fms\n",
      r.name.c_str(), r.offered_qps, r.achieved_qps,
      static_cast<unsigned long long>(r.requests),
      static_cast<unsigned long long>(r.ok),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.deadline_cut),
      static_cast<unsigned long long>(r.errors),
      static_cast<unsigned long long>(r.writes), r.Percentile(0.50),
      r.Percentile(0.95), r.Percentile(0.99), r.Mean(), r.Max());
}

/// Self mode only: the server-side per-query wall-time histogram, with
/// quantiles estimated from its log2 buckets — the same numbers \metrics
/// digests in the shell. Cumulative across phases (the registry is
/// process-global).
void PrintServerQuantiles() {
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  for (const MetricsSnapshot::HistogramData& h : snap.histograms) {
    if (h.name != "sjos_engine_query_wall_us" || h.count == 0) continue;
    std::printf(
        "           server wall (log2 hist, cumulative): p50=%.2fms "
        "p95=%.2fms p99=%.2fms n=%llu\n",
        h.Quantile(0.50) / 1000.0, h.Quantile(0.95) / 1000.0,
        h.Quantile(0.99) / 1000.0, static_cast<unsigned long long>(h.count));
  }
}

void AppendPhaseJson(const PhaseResult& r, std::string* out) {
  *out += "{\"name\":";
  net::AppendJsonString(r.name, out);
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      ",\"offered_qps\":%.2f,\"achieved_qps\":%.2f,\"requests\":%llu,"
      "\"ok\":%llu,\"shed\":%llu,\"deadline_cut\":%llu,\"errors\":%llu,"
      "\"writes\":%llu,"
      "\"latency_ms\":{\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f,"
      "\"mean\":%.3f,\"max\":%.3f}}",
      r.offered_qps, r.achieved_qps,
      static_cast<unsigned long long>(r.requests),
      static_cast<unsigned long long>(r.ok),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.deadline_cut),
      static_cast<unsigned long long>(r.errors),
      static_cast<unsigned long long>(r.writes), r.Percentile(0.50),
      r.Percentile(0.95), r.Percentile(0.99), r.Mean(), r.Max());
  *out += buf;
}

struct ChaosSummary;
void AppendChaosJson(const ChaosSummary& c, std::string* out);

bool WriteReport(const Config& config, const std::vector<PhaseResult>& phases,
                 const std::vector<PhaseResult>& saturation_steps,
                 double saturation_qps, const ChaosSummary* chaos) {
  std::string out = "{\"bench\":\"service_loadgen\",\"mode\":";
  net::AppendJsonString(
      config.chaos ? "chaos" : (config.self ? "self" : "connect"), &out);
  out += ",\"connections\":";
  net::AppendJsonUint(config.connections, &out);
  out += ",\"phases\":[";
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) out += ',';
    AppendPhaseJson(phases[i], &out);
  }
  out += "],\"saturation\":{\"steps\":[";
  for (size_t i = 0; i < saturation_steps.size(); ++i) {
    if (i > 0) out += ',';
    AppendPhaseJson(saturation_steps[i], &out);
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "],\"saturation_qps\":%.2f}",
                saturation_qps);
  out += buf;
  if (chaos != nullptr) {
    out += ",\"chaos\":";
    AppendChaosJson(*chaos, &out);
  }
  out += "}";
  out += '\n';

  std::FILE* f = std::fopen(config.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", config.json_path.c_str());
    return false;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", config.json_path.c_str());
  return true;
}

/// In-process server for the self-mode phases; the dataset name doubles
/// as the workload selector.
struct SelfServer {
  Engine engine;
  net::QueryServer server;

  SelfServer(const std::string& dataset, const Config& config)
      : engine(MakeEngineOptions(config)),
        server(&engine, MakeOptions(config)) {
    DatasetScale scale;
    scale.base_nodes = config.nodes;
    Result<Database> db = MakePaperDataset(dataset, scale);
    SJOS_CHECK(db.ok(), "dataset construction failed");
    SJOS_CHECK(engine.OpenDatabase(std::move(db).value()).ok(), "open");
    SJOS_CHECK(server.Start().ok(), "server start");
  }

  static EngineOptions MakeEngineOptions(const Config& config) {
    EngineOptions options;
    options.max_in_flight = 4;
    options.query_log.path = config.query_log_path;
    return options;
  }

  static net::ServerOptions MakeOptions(const Config& config) {
    net::ServerOptions options;
    options.default_quota.max_in_flight = config.quota_in_flight;
    // The broad Pers workload twigs legitimately return ~100k-row results
    // (~8 MB serialized); the bench measures service latency, not the
    // frame-size guard, so give responses room.
    options.max_frame_bytes = 16 * 1024 * 1024;
    return options;
  }
};

double SaturationSweep(const Config& base, const std::string& host,
                       uint16_t port, const std::vector<std::string>& queries,
                       std::vector<PhaseResult>* steps) {
  double saturated_at = 0.0;
  Config step = base;
  step.duration_s = std::min(base.duration_s, 1.5);
  step.deadline_spread = false;  // measure capacity, not governor cuts
  // Start below the base rate: heavy workloads saturate under the steady
  // phase's offered QPS, and a sweep that opens past the knee would report
  // nothing. One overloaded step past the knee still runs so the sweep
  // brackets the capacity instead of stopping at the last clean step.
  step.qps = std::max(2.0, base.qps / 8.0);
  for (int k = 0; k < 6; ++k) {
    PhaseResult r = RunPhase("step" + std::to_string(k), host, port, queries,
                             step);
    PrintPhase(r);
    steps->push_back(r);
    // Saturation QPS is the peak sustained completion rate observed; the
    // keeping-up test only decides when to stop climbing.
    saturated_at = std::max(saturated_at, r.achieved_qps);
    if (r.achieved_qps < 0.9 * r.offered_qps) break;
    step.qps *= 2.0;
  }
  return saturated_at;
}

// ---------------------------------------------------------------------------
// Chaos-restart harness
// ---------------------------------------------------------------------------

/// Everything the chaos phase asserts on, plus its latency profile.
struct ChaosSummary {
  PhaseResult phase;               // ok latencies measured ride-through
  std::vector<double> recovery_ms; // kill → first successful ping, per cycle
  uint64_t restarts = 0;
  uint64_t unresolved = 0;   // queries with no definite terminal state
  uint64_t duplicates = 0;   // replayed terminal disagreed with the original
  uint64_t leaked_slots = 0; // server live_queries after everything finished
  uint64_t torn_frames = 0;  // raw half-frame connections injected
  bool drain_shed_seen = false;  // post-drain submit was shed as expected
};

/// One spawned sjos_serve incarnation. stdin is held open (the server
/// exits on stdin EOF); stdout is scraped for "LISTENING <port>".
struct ServerProcess {
  pid_t pid = -1;
  int stdin_fd = -1;
  int stdout_fd = -1;

  void CloseFds() {
    if (stdin_fd >= 0) ::close(stdin_fd);
    if (stdout_fd >= 0) ::close(stdout_fd);
    stdin_fd = stdout_fd = -1;
  }
};

/// Reads the child's stdout until a "LISTENING <port>" line arrives (the
/// server prints it once bound). Returns 0 on timeout or child death.
uint16_t ScrapePort(int stdout_fd, uint64_t timeout_ms) {
  std::string buffer;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return 0;
    pollfd pfd = {stdout_fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return 0;
    char chunk[256];
    const ssize_t n = ::read(stdout_fd, chunk, sizeof(chunk));
    if (n <= 0) return 0;  // child died before binding
    buffer.append(chunk, static_cast<size_t>(n));
    size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (line.rfind("LISTENING ", 0) == 0) {
        return static_cast<uint16_t>(
            std::strtoul(line.c_str() + 10, nullptr, 10));
      }
    }
  }
}

/// Forks and execs the server under test. `port` 0 lets the child pick
/// (scrape the choice); a concrete port pins restarts to the address the
/// riding clients are re-dialing. `failpoints` seeds SJOS_FAILPOINTS for
/// this incarnation only.
bool SpawnServer(const Config& config, uint16_t port,
                 const std::string& failpoints, ServerProcess* proc,
                 uint16_t* bound_port) {
  int to_child[2], from_child[2];
  if (::pipe(to_child) != 0) return false;
  if (::pipe(from_child) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    if (failpoints.empty()) {
      ::unsetenv("SJOS_FAILPOINTS");
    } else {
      ::setenv("SJOS_FAILPOINTS", failpoints.c_str(), 1);
    }
    const std::string port_str = std::to_string(port);
    const std::string nodes_str = std::to_string(config.nodes);
    ::execl(config.server_bin.c_str(), config.server_bin.c_str(),  //
            "--dataset", "Pers", "--nodes", nodes_str.c_str(),     //
            "--port", port_str.c_str(),                            //
            "--admission-threshold-ms", "250",                     //
            "--idle-timeout-ms", "5000",                           //
            "--drain-deadline-ms", "2000", (char*)nullptr);
    _exit(127);  // exec failed
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  proc->pid = pid;
  proc->stdin_fd = to_child[1];
  proc->stdout_fd = from_child[0];
  *bound_port = ScrapePort(proc->stdout_fd, 30'000);
  if (*bound_port == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    proc->CloseFds();
    return false;
  }
  return true;
}

void KillServer(ServerProcess* proc) {
  if (proc->pid > 0) {
    ::kill(proc->pid, SIGKILL);
    ::waitpid(proc->pid, nullptr, 0);
    proc->pid = -1;
  }
  proc->CloseFds();
}

/// Waits for a voluntary exit (post-drain), escalating to SIGKILL.
void ReapServer(ServerProcess* proc, uint64_t timeout_ms) {
  if (proc->pid > 0) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      if (::waitpid(proc->pid, nullptr, WNOHANG) != 0) {
        proc->pid = -1;
        break;
      }
      if (Clock::now() >= deadline) {
        KillServer(proc);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  proc->CloseFds();
}

/// Blocks until the server answers a ping (fresh connection per probe —
/// the previous incarnation's sockets are gone). Returns elapsed ms, or
/// a negative value on timeout.
double AwaitRecovery(const std::string& host, uint16_t port,
                     Clock::time_point since, uint64_t timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    Result<net::Client> probe = net::Client::Connect(host, port);
    if (probe.ok()) {
      Result<net::JsonValue> pong =
          probe.value().Call("{\"verb\":\"ping\",\"id\":\"chaos-probe\"}");
      if (pong.ok() && FieldBool(pong.value(), "ok")) {
        return std::chrono::duration<double, std::milli>(Clock::now() - since)
            .count();
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return -1.0;
}

/// Torn-frame injector: connects raw and abandons a frame half-sent —
/// alternately a header that promises more payload than ever arrives and
/// a half-written header. The server must tear these down (idle reaper /
/// Unavailable read) without disturbing well-behaved connections.
void TornFrameInjector(const std::string& host, uint16_t port,
                       const std::atomic<bool>* stop, uint64_t* injected) {
  bool half_header = false;
  while (!stop->load(std::memory_order_relaxed)) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0) {
      sockaddr_in addr;
      std::memset(&addr, 0, sizeof(addr));
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        if (half_header) {
          const uint8_t partial[2] = {0x00, 0x00};
          (void)::send(fd, partial, sizeof(partial), MSG_NOSIGNAL);
        } else {
          // Header claims 64 payload bytes; send 16 and vanish.
          const uint8_t header[4] = {0x00, 0x00, 0x00, 0x40};
          (void)::send(fd, header, sizeof(header), MSG_NOSIGNAL);
          const char junk[16] = {0};
          (void)::send(fd, junk, sizeof(junk), MSG_NOSIGNAL);
        }
        ++*injected;
        half_header = !half_header;
      }
      ::close(fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
}

/// Retry policy for clients that must ride through restarts: enough
/// attempts and budget to span a kill → respawn window, breaker wide open
/// (the harness asserts terminal states; the breaker is exercised by
/// retry_policy_test instead).
net::ResilientClientOptions ChaosClientOptions() {
  net::ResilientClientOptions options;
  options.retry.max_attempts = 12;
  options.retry.base_backoff_ms = 20;
  options.retry.max_backoff_ms = 400;
  options.retry.budget_tokens = 1e9;
  options.retry.budget_refill_per_s = 1e6;
  options.retry.breaker_failure_threshold = 1'000'000;
  options.poll_wait_ms = 500;
  return options;
}

/// Chaos worker: same open-loop arrival claiming as Worker, but each
/// request rides net::ResilientClient::Execute to a definite terminal
/// state across restarts; a second poll of each ok id checks the replay
/// ring returns the same result (duplicate detection).
void ChaosWorker(const std::string& host, uint16_t port, size_t worker_index,
                 const std::vector<std::string>& queries, const Config& config,
                 Clock::time_point start, uint64_t total_arrivals,
                 std::atomic<uint64_t>* next_arrival, std::mutex* result_mu,
                 ChaosSummary* summary) {
  net::ResilientClient client(host, port, ChaosClientOptions());
  const double interval_s = 1.0 / config.qps;

  uint64_t local_ok = 0, local_shed = 0, local_deadline = 0, local_errors = 0,
           local_requests = 0, local_unresolved = 0, local_duplicates = 0;
  std::vector<double> local_latencies;

  for (;;) {
    const uint64_t i = next_arrival->fetch_add(1, std::memory_order_relaxed);
    if (i >= total_arrivals) break;
    const Clock::time_point scheduled =
        start + std::chrono::microseconds(
                    static_cast<uint64_t>(i * interval_s * 1e6));
    std::this_thread::sleep_until(scheduled);
    ++local_requests;

    const std::string id =
        "chaos-" + std::to_string(worker_index) + "-" + std::to_string(i);
    const std::string submit =
        BuildSubmit(id, queries[i % queries.size()], /*use_cache=*/true,
                    /*deadline_ms=*/0);

    // Execute retries internally; the outer loop spans whole restart
    // windows the inner policy gave up on. Only a query that exhausts
    // both is unresolved — the count the harness asserts to be zero.
    Result<net::JsonValue> terminal = Status::Internal("unreached");
    for (int attempt = 0; attempt < 6; ++attempt) {
      terminal = client.Execute(id, submit);
      if (terminal.ok()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
    if (!terminal.ok()) {
      ++local_unresolved;
      continue;
    }
    const net::JsonValue& r = terminal.value();
    if (!FieldBool(r, "ok")) {
      const std::string code = FieldString(r, "code");
      if (code == "ResourceExhausted" || code == "Unavailable") {
        ++local_shed;
      } else if (FieldString(r, "verdict") == "deadline") {
        ++local_deadline;
      } else {
        ++local_errors;
      }
      continue;
    }
    ++local_ok;
    local_latencies.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
            .count());

    // Idempotent-replay check: the terminal just consumed moved to the
    // completed ring, so one more poll must replay the same row count —
    // a different answer would mean a duplicate execution was delivered.
    // Skipped silently when the ring died with the incarnation (NotFound
    // or transport loss).
    const net::JsonValue* first_result = Field(r, "result");
    std::string poll = "{\"verb\":\"poll\",\"id\":";
    net::AppendJsonString(id, &poll);
    poll += ",\"wait_ms\":0}";
    Result<net::JsonValue> replay = client.Call(poll);
    if (replay.ok() && FieldBool(replay.value(), "ok") &&
        FieldBool(replay.value(), "done") && first_result != nullptr) {
      const net::JsonValue* replay_result = Field(replay.value(), "result");
      const net::JsonValue* a = Field(*first_result, "row_count");
      const net::JsonValue* b =
          replay_result != nullptr ? Field(*replay_result, "row_count")
                                   : nullptr;
      if (a != nullptr && b != nullptr &&
          a->number_value() != b->number_value()) {
        ++local_duplicates;
      }
    }
  }

  std::lock_guard<std::mutex> lock(*result_mu);
  summary->phase.requests += local_requests;
  summary->phase.ok += local_ok;
  summary->phase.shed += local_shed;
  summary->phase.deadline_cut += local_deadline;
  summary->phase.errors += local_errors;
  summary->unresolved += local_unresolved;
  summary->duplicates += local_duplicates;
  summary->phase.latencies_ms.insert(summary->phase.latencies_ms.end(),
                                     local_latencies.begin(),
                                     local_latencies.end());
}

bool DumpTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

/// The chaos phase end to end: spawn, load, kill/restart on schedule with
/// rotating failpoints, then the post-load audit (slot-leak check, drain,
/// drain-shed probe, metric dumps). Returns false only when the harness
/// itself could not run (no server, no port) — assertion failures are
/// reported in the summary for main() to turn into the exit code.
bool RunChaos(const Config& config, ChaosSummary* summary) {
  const std::string host = "127.0.0.1";
  // Each incarnation rotates to the next failpoint profile: a clean run,
  // submit-time errors, then batch delays (which stretch the queue and
  // exercise adaptive admission).
  const std::vector<std::string> kFailpointRotation = {
      "", "service.submit=prob:0.02", "exec.batch=delay:1"};

  ServerProcess proc;
  uint16_t port = 0;
  if (!SpawnServer(config, 0, kFailpointRotation[0], &proc, &port)) {
    std::fprintf(stderr, "chaos: cannot spawn %s\n", config.server_bin.c_str());
    return false;
  }
  std::printf("chaos: serving on port %u (pid %d)\n", port,
              static_cast<int>(proc.pid));

  const std::vector<std::string> queries = WorkloadQueries("Pers");
  const uint64_t total_arrivals = std::max<uint64_t>(
      1, static_cast<uint64_t>(config.qps * config.duration_s));
  std::atomic<uint64_t> next_arrival{0};
  std::mutex result_mu;
  summary->phase.name = "chaos";
  summary->phase.offered_qps = config.qps;

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::atomic<bool> stop_injector{false};
  std::thread injector(TornFrameInjector, host, port, &stop_injector,
                       &summary->torn_frames);
  std::vector<std::thread> workers;
  workers.reserve(config.connections);
  for (size_t w = 0; w < config.connections; ++w) {
    workers.emplace_back(ChaosWorker, host, port, w, std::cref(queries),
                         std::cref(config), start, total_arrivals,
                         &next_arrival, &result_mu, summary);
  }

  // Kill/restart schedule: evenly spaced through the load window, next
  // failpoint profile on each respawn, recovery clocked kill → first pong.
  for (size_t k = 0; k < config.chaos_restarts; ++k) {
    const double at_s = config.duration_s *
                        static_cast<double>(k + 1) /
                        static_cast<double>(config.chaos_restarts + 1);
    std::this_thread::sleep_until(
        start + std::chrono::microseconds(static_cast<uint64_t>(at_s * 1e6)));
    const Clock::time_point killed_at = Clock::now();
    std::printf("chaos: SIGKILL pid %d (restart %zu/%zu)\n",
                static_cast<int>(proc.pid), k + 1, config.chaos_restarts);
    KillServer(&proc);
    const std::string& failpoints =
        kFailpointRotation[(k + 1) % kFailpointRotation.size()];
    uint16_t bound = 0;
    if (!SpawnServer(config, port, failpoints, &proc, &bound) ||
        bound != port) {
      std::fprintf(stderr, "chaos: respawn on port %u failed\n", port);
      stop_injector.store(true, std::memory_order_relaxed);
      for (std::thread& t : workers) t.join();
      injector.join();
      return false;
    }
    const double recovery = AwaitRecovery(host, port, killed_at, 30'000);
    summary->recovery_ms.push_back(recovery);
    summary->restarts += 1;
    std::printf("chaos: recovered in %.0f ms (failpoints: %s)\n", recovery,
                failpoints.empty() ? "none" : failpoints.c_str());
  }

  for (std::thread& t : workers) t.join();
  stop_injector.store(true, std::memory_order_relaxed);
  injector.join();

  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  summary->phase.achieved_qps =
      elapsed_s > 0.0 ? static_cast<double>(summary->phase.ok) / elapsed_s
                      : 0.0;

  // Post-load audit on the surviving incarnation: quota slots must all be
  // free (live_queries drains to 0 via done-callbacks), then a graceful
  // drain must shed a late submit with a hint.
  net::ResilientClient audit(host, port, ChaosClientOptions());
  for (int i = 0; i < 100; ++i) {
    Result<net::JsonValue> stats =
        audit.Call("{\"verb\":\"stats\",\"id\":\"chaos-audit\"}");
    if (stats.ok()) {
      const net::JsonValue* live = Field(stats.value(), "live_queries");
      summary->leaked_slots =
          live != nullptr ? static_cast<uint64_t>(live->number_value()) : 0;
      if (summary->leaked_slots == 0) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Server-side Prometheus text, fetched before the drain (guaranteed)
  // and refreshed after the shed probe when the grace window allows, so
  // the dump carries sjos_server_drain_shed_total > 0 when it can.
  std::string server_prom;
  {
    Result<net::JsonValue> stats =
        audit.Call("{\"verb\":\"stats\",\"id\":\"chaos-metrics\"}");
    if (stats.ok()) server_prom = FieldString(stats.value(), "prometheus");
  }

  // The drain closes the listener at once, so the shed probe must already
  // be connected — and must be a raw client: the resilient one would obey
  // the shed's retry hint and retry until the server is gone.
  Result<net::Client> probe = net::Client::Connect(host, port);
  Result<net::JsonValue> drained =
      audit.Call("{\"verb\":\"drain\",\"id\":\"chaos-drain\"}");
  if (probe.ok() && drained.ok() && FieldBool(drained.value(), "ok")) {
    Result<net::JsonValue> late =
        probe.value().Call(BuildSubmit("chaos-late", queries[0], true, 0));
    summary->drain_shed_seen = late.ok() &&
                               !FieldBool(late.value(), "ok") &&
                               Field(late.value(), "retry_after_ms") != nullptr;
    Result<net::JsonValue> refreshed =
        probe.value().Call("{\"verb\":\"stats\",\"id\":\"chaos-metrics2\"}");
    if (refreshed.ok() && FieldBool(refreshed.value(), "ok")) {
      server_prom = FieldString(refreshed.value(), "prometheus");
    }
  }
  if (!config.server_metrics_out.empty() && !server_prom.empty()) {
    DumpTextFile(config.server_metrics_out, server_prom);
  }
  audit.Close();
  ReapServer(&proc, 10'000);  // drain finishes → voluntary exit

  if (!config.metrics_out.empty()) {
    DumpTextFile(config.metrics_out,
                 MetricsRegistry::Global().Snapshot().ToPrometheus());
  }
  return true;
}

void PrintChaos(const ChaosSummary& c) {
  PrintPhase(c.phase);
  double worst_recovery = 0.0;
  for (double r : c.recovery_ms) worst_recovery = std::max(worst_recovery, r);
  std::printf(
      "chaos: restarts=%llu torn_frames=%llu worst_recovery=%.0fms "
      "drain_shed=%s\n"
      "chaos: unresolved=%llu duplicates=%llu leaked_slots=%llu\n",
      static_cast<unsigned long long>(c.restarts),
      static_cast<unsigned long long>(c.torn_frames), worst_recovery,
      c.drain_shed_seen ? "yes" : "no",
      static_cast<unsigned long long>(c.unresolved),
      static_cast<unsigned long long>(c.duplicates),
      static_cast<unsigned long long>(c.leaked_slots));
}

void AppendChaosJson(const ChaosSummary& c, std::string* out) {
  *out += "{\"restarts\":";
  net::AppendJsonUint(c.restarts, out);
  *out += ",\"unresolved\":";
  net::AppendJsonUint(c.unresolved, out);
  *out += ",\"duplicates\":";
  net::AppendJsonUint(c.duplicates, out);
  *out += ",\"leaked_slots\":";
  net::AppendJsonUint(c.leaked_slots, out);
  *out += ",\"torn_frames\":";
  net::AppendJsonUint(c.torn_frames, out);
  *out += ",\"drain_shed_seen\":";
  *out += c.drain_shed_seen ? "true" : "false";
  *out += ",\"recovery_ms\":[";
  char buf[32];
  for (size_t i = 0; i < c.recovery_ms.size(); ++i) {
    if (i > 0) *out += ',';
    std::snprintf(buf, sizeof(buf), "%.1f", c.recovery_ms[i]);
    *out += buf;
  }
  *out += "],\"phase\":";
  AppendPhaseJson(c.phase, out);
  *out += "}";
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--self") {
      config.self = true;
    } else if (arg == "--connect") {
      const std::string target = next("--connect");
      const size_t colon = target.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--connect wants host:port\n");
        return 2;
      }
      config.self = false;
      config.connect_host = target.substr(0, colon);
      config.connect_port = static_cast<uint16_t>(
          std::strtoul(target.c_str() + colon + 1, nullptr, 10));
    } else if (arg == "--qps") {
      config.qps = std::strtod(next("--qps").c_str(), nullptr);
    } else if (arg == "--duration") {
      config.duration_s = std::strtod(next("--duration").c_str(), nullptr);
    } else if (arg == "--connections") {
      config.connections = std::strtoul(next("--connections").c_str(),
                                        nullptr, 10);
    } else if (arg == "--miss-fraction") {
      config.miss_fraction =
          std::strtod(next("--miss-fraction").c_str(), nullptr);
    } else if (arg == "--write-fraction") {
      config.write_fraction =
          std::strtod(next("--write-fraction").c_str(), nullptr);
    } else if (arg == "--no-deadline-spread") {
      config.deadline_spread = false;
    } else if (arg == "--failpoints") {
      config.failpoints = true;
    } else if (arg == "--saturation") {
      config.saturation = true;
    } else if (arg == "--nodes") {
      config.nodes = std::strtoull(next("--nodes").c_str(), nullptr, 10);
    } else if (arg == "--quota-in-flight") {
      config.quota_in_flight =
          std::strtoull(next("--quota-in-flight").c_str(), nullptr, 10);
    } else if (arg == "--json") {
      config.json_path = next("--json");
    } else if (arg == "--query-log") {
      config.query_log_path = next("--query-log");
    } else if (arg == "--chaos") {
      config.chaos = true;
      config.self = false;
    } else if (arg == "--server-bin") {
      config.server_bin = next("--server-bin");
    } else if (arg == "--restarts") {
      config.chaos_restarts =
          std::strtoul(next("--restarts").c_str(), nullptr, 10);
    } else if (arg == "--metrics-out") {
      config.metrics_out = next("--metrics-out");
    } else if (arg == "--server-metrics-out") {
      config.server_metrics_out = next("--server-metrics-out");
    } else {
      std::fprintf(
          stderr,
          "usage: bench_loadgen [--self | --connect host:port |\n"
          "  --chaos --server-bin BIN] [--qps N]\n"
          "  [--duration S] [--connections K] [--miss-fraction F]\n"
          "  [--write-fraction F]\n"
          "  [--no-deadline-spread] [--failpoints] [--saturation]\n"
          "  [--nodes N] [--quota-in-flight N] [--json FILE]\n"
          "  [--query-log FILE] [--restarts N] [--metrics-out FILE]\n"
          "  [--server-metrics-out FILE]\n");
      return 2;
    }
  }
  if (config.qps <= 0.0 || config.connections == 0) {
    std::fprintf(stderr, "--qps and --connections must be positive\n");
    return 2;
  }
  if (config.chaos && config.server_bin.empty()) {
    std::fprintf(stderr, "--chaos needs --server-bin\n");
    return 2;
  }

  std::vector<PhaseResult> phases;
  std::vector<PhaseResult> saturation_steps;
  double saturation_qps = 0.0;

  if (config.chaos) {
    ChaosSummary chaos;
    if (!RunChaos(config, &chaos)) return 1;
    PrintChaos(chaos);
    phases.push_back(chaos.phase);
    if (!WriteReport(config, phases, saturation_steps, saturation_qps,
                     &chaos)) {
      return 1;
    }
    // The harness's contract: every query terminal, nothing delivered
    // twice, every quota slot returned, and at least one complete
    // kill/recover cycle observed.
    bool failed = false;
    if (chaos.unresolved != 0) {
      std::fprintf(stderr, "chaos FAILED: %llu queries unresolved\n",
                   static_cast<unsigned long long>(chaos.unresolved));
      failed = true;
    }
    if (chaos.duplicates != 0) {
      std::fprintf(stderr, "chaos FAILED: %llu duplicate deliveries\n",
                   static_cast<unsigned long long>(chaos.duplicates));
      failed = true;
    }
    if (chaos.leaked_slots != 0) {
      std::fprintf(stderr, "chaos FAILED: %llu quota slots leaked\n",
                   static_cast<unsigned long long>(chaos.leaked_slots));
      failed = true;
    }
    if (chaos.restarts < config.chaos_restarts) {
      std::fprintf(stderr, "chaos FAILED: only %llu/%zu restarts completed\n",
                   static_cast<unsigned long long>(chaos.restarts),
                   config.chaos_restarts);
      failed = true;
    }
    for (double r : chaos.recovery_ms) {
      if (r < 0) {
        std::fprintf(stderr, "chaos FAILED: a restart never recovered\n");
        failed = true;
      }
    }
    if (chaos.phase.ok == 0) {
      std::fprintf(stderr, "chaos FAILED: no query completed ok\n");
      failed = true;
    }
    return failed ? 1 : 0;
  }

  if (config.self) {
    if (config.failpoints) {
      // Low-probability faults: occasional submit-time errors, occasional
      // per-batch stalls — the sustained-load soak profile.
      SJOS_CHECK(FailpointRegistry::Global()
                     .Enable("service.submit", "prob:0.01")
                     .ok(),
                 "arm service.submit");
      SJOS_CHECK(
          FailpointRegistry::Global().Enable("exec.batch", "delay:1").ok(),
          "arm exec.batch");
    }
    for (const char* dataset : {"Pers", "DBLP"}) {
      SelfServer self(dataset, config);
      PhaseResult r = RunPhase(dataset, "127.0.0.1", self.server.port(),
                               WorkloadQueries(dataset), config);
      PrintPhase(r);
      PrintServerQuantiles();
      phases.push_back(std::move(r));
      if (config.saturation && std::strcmp(dataset, "Pers") == 0) {
        FailpointRegistry::Global().DisableAll();
        saturation_qps =
            SaturationSweep(config, "127.0.0.1", self.server.port(),
                            WorkloadQueries(dataset), &saturation_steps);
        std::printf("saturation: %.1f qps\n", saturation_qps);
        if (config.failpoints) {
          // Re-arm: the sweep measures clean capacity, but later phases
          // keep the soak profile.
          SJOS_CHECK(FailpointRegistry::Global()
                         .Enable("service.submit", "prob:0.01")
                         .ok(),
                     "re-arm service.submit");
          SJOS_CHECK(
              FailpointRegistry::Global().Enable("exec.batch", "delay:1").ok(),
              "re-arm exec.batch");
        }
      }
      self.server.Stop();
    }
    FailpointRegistry::Global().DisableAll();
  } else {
    PhaseResult r = RunPhase("remote", config.connect_host,
                             config.connect_port, WorkloadQueries("Pers"),
                             config);
    PrintPhase(r);
    phases.push_back(std::move(r));
  }

  const bool wrote = WriteReport(config, phases, saturation_steps,
                                 saturation_qps, nullptr);
  uint64_t completed = 0;
  for (const PhaseResult& r : phases) completed += r.ok;
  if (!wrote) return 1;
  if (completed == 0) {
    std::fprintf(stderr, "no request completed — server unreachable?\n");
    return 1;
  }
  return 0;
}
