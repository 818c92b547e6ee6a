#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "common/metrics.h"
#include "common/timer.h"
#include "net/frame.h"
#include "net/json.h"
#include "plan/plan_printer.h"
#include "query/pattern_parser.h"
#include "query/xpath.h"

namespace sjos {
namespace net {

namespace {

struct ServerMetrics {
  Counter& connections;
  Counter& disconnect_cancels;
  Counter& drain_shed;
  Counter& idle_closed;
  Counter& attaches;
  Counter& replays;
  Gauge& connections_active;
  Gauge& live_queries;

  static ServerMetrics& Get() {
    static ServerMetrics* m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      reg.SetHelp("sjos_server_connections_total",
                  "Connections accepted by the query server");
      reg.SetHelp("sjos_server_requests_total",
                  "Wire requests decoded, by verb");
      reg.SetHelp("sjos_server_drain_shed_total",
                  "Submissions shed because the server is draining");
      reg.SetHelp("sjos_server_idle_closed_total",
                  "Connections reaped by the read/idle timeout");
      reg.SetHelp("sjos_server_replayed_responses_total",
                  "Re-sent update ids answered from the replay ring");
      return new ServerMetrics{
          reg.GetCounter("sjos_server_connections_total"),
          reg.GetCounter("sjos_server_disconnect_cancels_total"),
          reg.GetCounter("sjos_server_drain_shed_total"),
          reg.GetCounter("sjos_server_idle_closed_total"),
          reg.GetCounter("sjos_server_submit_attaches_total"),
          reg.GetCounter("sjos_server_replayed_responses_total"),
          reg.GetGauge("sjos_server_connections_active"),
          reg.GetGauge("sjos_server_live_queries")};
    }();
    return *m;
  }
};

/// The query text of a submit or explain, parsed as XPath or as the
/// pattern syntax per the request's xpath flag.
Result<Pattern> ParseWireQuery(const WireRequest& req) {
  if (!req.xpath) return ParsePattern(req.query);
  Result<XPathQuery> q = ParseXPath(req.query);
  if (!q.ok()) return q.status();
  return std::move(q).value().pattern;
}

/// One request of `verb`. The label set is the fixed verb list: a
/// client-chosen tenant name never mints a series.
void CountRequest(Verb verb) {
  MetricsRegistry::Global()
      .GetCounter("sjos_server_requests_total", {{"verb", VerbName(verb)}})
      .Add();
}

}  // namespace

QueryServer::QueryServer(Engine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)),
      completed_(options_.completed_ring_capacity) {
  // Eager metric registration: drain/idle/attach counters must exist (at
  // 0) in any export sjos_promcheck sees, not only after the first event.
  ServerMetrics::Get();
}

QueryServer::~QueryServer() {
  std::thread drainer;
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (drain_thread_.joinable()) drainer = std::move(drain_thread_);
  }
  if (drainer.joinable()) drainer.join();
  Stop();
}

Status QueryServer::Start() {
  SJOS_CHECK(!started_.load(), "QueryServer::Start called twice");
  Result<ListenSocket> listener = Listen(options_.host, options_.port, 64);
  if (!listener.ok()) return listener.status();
  listen_fd_ = listener.value().fd;
  port_ = listener.value().port;
  started_.store(true);
  stopping_.store(false);
  accept_thread_ = std::thread(&QueryServer::AcceptLoop, this);
  return Status::OK();
}

void QueryServer::Stop() {
  if (!started_.exchange(false)) return;
  stopping_.store(true);
  // Shut the listener down to unblock accept(), and close it only once the
  // accept loop has exited: closing first would let accept() run on a
  // descriptor number the process may already have reused.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (auto& conn : connections_) {
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
  connections_.clear();
}

void QueryServer::BeginDrain(uint64_t deadline_ms) {
  if (draining_.exchange(true)) return;
  if (!started_.load()) {
    drained_.store(true, std::memory_order_release);
    return;
  }
  std::lock_guard<std::mutex> lock(drain_mu_);
  drain_thread_ = std::thread(&QueryServer::DrainImpl, this, deadline_ms);
}

void QueryServer::Drain(uint64_t deadline_ms) {
  BeginDrain(deadline_ms);
  std::thread drainer;
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (drain_thread_.joinable()) drainer = std::move(drain_thread_);
  }
  if (drainer.joinable()) {
    drainer.join();
  } else {
    // Another caller owns the drain thread; wait for its completion flag.
    while (!drained_.load(std::memory_order_acquire) &&
           started_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

void QueryServer::DrainImpl(uint64_t deadline_ms) {
  if (deadline_ms == 0) deadline_ms = options_.drain_deadline_ms;
  // Stop accepting: shutting the listener down unblocks accept(), and the
  // accept loop exits on its error. The submit gate is already closed
  // (draining_ was set before this thread started).
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);

  const uint64_t start_us = SteadyNowMicros();
  while (live_queries_.load(std::memory_order_relaxed) > 0 &&
         SteadyNowMicros() - start_us < deadline_ms * 1000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (live_queries_.load(std::memory_order_relaxed) > 0) {
    // Deadline: cancel the stragglers and wait them out so their slots
    // release before shutdown.
    std::vector<QueryHandle> handles;
    {
      std::lock_guard<std::mutex> lock(queries_mu_);
      handles.reserve(queries_.size());
      for (auto& [id, lq] : queries_) {
        if (!lq.handle.Done()) lq.handle.Cancel();
        handles.push_back(lq.handle);
      }
    }
    for (QueryHandle& handle : handles) handle.Wait();
  }
  // Grace window: every query is terminal; let clients collect results
  // before their connections die.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(kDrainGraceMs));
  Stop();
  drained_.store(true, std::memory_order_release);
}

void QueryServer::ReapFinishedLocked() {
  auto it = connections_.begin();
  while (it != connections_.end()) {
    Connection* conn = it->get();
    if (conn->finished.load(std::memory_order_acquire)) {
      if (conn->thread.joinable()) conn->thread.join();
      if (conn->fd >= 0) ::close(conn->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void QueryServer::AcceptLoop() {
  // Stop resets listen_fd_ only after joining this thread.
  const int listen_fd = listen_fd_;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop/drain (or a fatal accept error)
    }
    if (stopping_.load(std::memory_order_relaxed) ||
        draining_.load(std::memory_order_relaxed)) {
      ::close(fd);
      if (stopping_.load(std::memory_order_relaxed)) break;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
    if (options_.idle_timeout_ms > 0) {
      // The read/idle reaper: recv() returns EAGAIN after this long,
      // which RecvFrame maps to DeadlineExceeded and the serve loop
      // treats as "close the connection". Catches both idle clients and
      // slow-loris peers trickling a frame byte by byte.
      SetSocketTimeout(fd, SO_RCVTIMEO, options_.idle_timeout_ms);
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    ReapFinishedLocked();
    if (connections_.size() >= options_.max_connections) {
      // Shed the connection itself, with the same explicit contract as
      // the drain gate: one clean response, then close.
      (void)SendFrame(fd, EncodeErrorResponse(
                              "", Status::ResourceExhausted(
                                      "server at its connection limit"),
                              /*retry_after_ms=*/100));
      ::close(fd);
      continue;
    }
    ServerMetrics::Get().connections.Add();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    Connection* raw = conn.get();
    conn->thread = std::thread(&QueryServer::ServeConnection, this, raw);
    connections_.push_back(std::move(conn));
  }
}

void ReplayRing::Push(std::string id, std::string response) {
  if (capacity_ == 0) return;
  bytes_ += response.size();
  entries_.push_back({std::move(id), std::move(response)});
  while (entries_.size() > capacity_ ||
         (bytes_ > kReplayRingMaxBytes && entries_.size() > 1)) {
    bytes_ -= entries_.front().response.size();
    entries_.pop_front();
  }
}

const ReplayRing::Entry* ReplayRing::Find(const std::string& id) const {
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->id == id) return &*it;
  }
  return nullptr;
}

void QueryServer::ServeConnection(Connection* conn) {
  ServerMetrics::Get().connections_active.Add(1);
  std::string payload;
  bool clean_eof = false;
  while (!stopping_.load(std::memory_order_relaxed)) {
    Status st = RecvFrame(conn->fd, options_.max_frame_bytes, &payload,
                          &clean_eof);
    if (!st.ok()) {
      if (st.code() == StatusCode::kResourceExhausted) {
        // Oversize length prefix: the stream cannot be resynchronized, so
        // answer once, then close.
        (void)SendFrame(conn->fd, EncodeErrorResponse("", st));
      } else if (st.code() == StatusCode::kDeadlineExceeded) {
        // The idle/slow-loris reaper fired (SO_RCVTIMEO): tell the peer
        // why before hanging up — it may be half-open and never see it.
        ServerMetrics::Get().idle_closed.Add();
        (void)SendFrame(
            conn->fd,
            EncodeErrorResponse(
                "", Status::DeadlineExceeded("connection idle too long")));
      }
      break;
    }
    if (clean_eof) break;
    if (!SendFrame(conn->fd, HandleRequest(conn, payload)).ok()) break;
  }

  // Cancel-on-disconnect: every query this connection still owns (a query
  // re-attached or polled by a newer connection has a different owner and
  // is spared) is cancelled if unfinished and leaves the table in the same
  // step, so a poll answers NotFound and a re-submit runs it fresh. Each is
  // then drained outside the lock so its live slot releases
  // deterministically.
  std::vector<QueryHandle> owned;
  uint64_t cancelled = 0;
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    for (const std::string& id : conn->owned_ids) {
      auto it = queries_.find(id);
      if (it == queries_.end() || it->second.owner_conn != conn->id) continue;
      if (!it->second.handle.Done()) {
        it->second.handle.Cancel();
        ++cancelled;
      }
      owned.push_back(std::move(it->second.handle));
      queries_.erase(it);
    }
  }
  for (QueryHandle& handle : owned) handle.Wait();
  conn->owned_ids.clear();
  if (cancelled > 0) ServerMetrics::Get().disconnect_cancels.Add(cancelled);
  // Signal EOF to a peer still reading (e.g. after an oversize-frame
  // error response); the fd itself is closed by the reaper or Stop().
  ::shutdown(conn->fd, SHUT_RDWR);
  ServerMetrics::Get().connections_active.Sub(1);
  conn->finished.store(true, std::memory_order_release);
}

std::string QueryServer::HandleRequest(Connection* conn,
                                       std::string_view payload) {
  Result<WireRequest> decoded = DecodeRequest(payload);
  if (!decoded.ok()) return EncodeErrorResponse("", decoded.status());
  const WireRequest& req = decoded.value();
  CountRequest(req.verb);
  switch (req.verb) {
    case Verb::kPing: return HandlePing(req);
    case Verb::kSubmit: return HandleSubmit(conn, req);
    case Verb::kPoll: return HandlePoll(conn, req);
    case Verb::kCancel: return HandleCancel(conn, req);
    case Verb::kExplain: return HandleExplain(req);
    case Verb::kStats: return HandleStats(req);
    case Verb::kDrain: return HandleDrain(req);
    case Verb::kUpdate: return HandleUpdate(req);
  }
  return EncodeErrorResponse(req.id, Status::Internal("unreachable verb"));
}

std::string QueryServer::HandleSubmit(Connection* conn,
                                      const WireRequest& req) {
  // Drain gate: a draining server takes no new work, only lets the
  // in-flight finish. The hint paces clients toward a live replica (or a
  // restarted self).
  if (draining_.load(std::memory_order_relaxed)) {
    ServerMetrics::Get().drain_shed.Add();
    return EncodeErrorResponse(
        req.id, Status::Unavailable("server is draining — no new submits"),
        kDrainRetryAfterMs);
  }

  // Idempotency: a re-submit of a live id attaches (reconnected client
  // resuming after a torn reply) and creates no new work. A consumed id is
  // gone from the table, so its re-submit runs the read again.
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    auto it = queries_.find(req.id);
    if (it != queries_.end()) {
      if (it->second.handle.CancelRequested()) {
        // Doomed by an explicit cancel: the client clearly still wants
        // the result, so replace the entry with a fresh run below. The old
        // handle unwinds on its own — its done callback releases its own
        // live slot — and the generation bump keeps a poll of the old run
        // from consuming the new entry.
        queries_.erase(it);
      } else {
        it->second.owner_conn = conn->id;
        conn->Own(req.id);
        ServerMetrics::Get().attaches.Add();
        std::string out;
        AppendOkHead(req.id, &out);
        out += ",\"queued\":true,\"attached\":true}";
        return out;
      }
    }
  }

  Timer parse_timer;
  Result<Pattern> parsed = ParseWireQuery(req);
  if (!parsed.ok()) return EncodeErrorResponse(req.id, parsed.status());
  Pattern pattern = std::move(parsed).value();

  QueryOptions options = req.ToQueryOptions();
  // Text→Pattern time happened here, outside the Engine; hand it over so
  // the audit record's parse phase is honest.
  options.parse_ms = parse_timer.ElapsedMs();

  QueryHandle handle = engine_->Submit(std::move(pattern), std::move(options));
  live_queries_.fetch_add(1, std::memory_order_relaxed);
  ServerMetrics::Get().live_queries.Add(1);
  handle.SetDoneCallback([this] {
    live_queries_.fetch_sub(1, std::memory_order_relaxed);
    ServerMetrics::Get().live_queries.Sub(1);
  });
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    LiveQuery& lq = queries_[req.id];
    lq.handle = handle;
    lq.owner_conn = conn->id;
    lq.generation = next_generation_++;
  }
  conn->Own(req.id);

  std::string out;
  AppendOkHead(req.id, &out);
  out += ",\"queued\":true}";
  return out;
}

std::string QueryServer::HandlePoll(Connection* conn,
                                    const WireRequest& req) {
  QueryHandle handle;
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    auto it = queries_.find(req.id);
    if (it == queries_.end()) {
      // Never submitted, already consumed, or cancelled by its
      // connection's drop: a re-submit under the same id runs it.
      return EncodeErrorResponse(
          req.id, Status::NotFound("no query with id '" + req.id + "'"));
    }
    // Polling adopts the query: once a (possibly reconnected) client is
    // following an id, the previous connection's disconnect must not
    // cancel it out from under them.
    it->second.owner_conn = conn->id;
    handle = it->second.handle;
    generation = it->second.generation;
  }
  conn->Own(req.id);

  bool done = handle.Done();
  if (!done && req.wait_ms > 0) {
    done = handle.WaitFor(std::min(req.wait_ms, kMaxPollWaitMs));
  }
  if (!done) {
    std::string out;
    AppendOkHead(req.id, &out);
    out += ",\"done\":false}";
    return out;
  }
  {
    // Consume: the id leaves the table — unless a newer generation took
    // it over in the meantime. The reply is encoded after the lock is
    // released; this poll's handle keeps the result alive.
    std::lock_guard<std::mutex> lock(queries_mu_);
    auto it = queries_.find(req.id);
    if (it != queries_.end() && it->second.generation == generation) {
      queries_.erase(it);
    }
  }
  const Result<QueryResult>& result = handle.Wait();
  return result.ok()
             ? EncodeDoneResult(req.id, result.value(),
                                options_.max_frame_bytes)
             : EncodeDoneError(req.id, result.status(), handle.error_info());
}

std::string QueryServer::HandleCancel(Connection* conn,
                                      const WireRequest& req) {
  (void)conn;
  QueryHandle handle;
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    auto it = queries_.find(req.id);
    if (it == queries_.end()) {
      return EncodeErrorResponse(
          req.id, Status::NotFound("no live query with id '" + req.id + "'"));
    }
    handle = it->second.handle;
  }
  handle.Cancel();
  std::string out;
  AppendOkHead(req.id, &out);
  out += ",\"cancelled\":true,\"done\":";
  out += handle.Done() ? "true" : "false";
  out += "}";
  return out;
}

std::string QueryServer::HandleExplain(const WireRequest& req) {
  Result<Pattern> parsed = ParseWireQuery(req);
  if (!parsed.ok()) return EncodeErrorResponse(req.id, parsed.status());
  const Pattern& pattern = parsed.value();
  Result<PlannedQuery> planned = engine_->Plan(pattern, req.ToQueryOptions());
  if (!planned.ok()) return EncodeErrorResponse(req.id, planned.status());

  std::string out;
  AppendOkHead(req.id, &out);
  out += ",\"algorithm\":";
  AppendJsonString(planned.value().algorithm, &out);
  out += ",\"cache_hit\":";
  out += planned.value().cache_hit ? "true" : "false";
  out += ",\"fallback_from\":";
  AppendJsonString(planned.value().fallback_from, &out);
  out += ",\"plan\":";
  AppendJsonString(PrintPlan(planned.value().plan, pattern), &out);
  out += "}";
  return out;
}

std::string QueryServer::HandleStats(const WireRequest& req) {
  std::string out;
  AppendOkHead(req.id, &out);
  out += ",\"live_queries\":";
  AppendJsonUint(live_queries_.load(std::memory_order_relaxed), &out);
  out += ",\"draining\":";
  out += draining_.load(std::memory_order_relaxed) ? "true" : "false";
  // In-flight and recent-slow views for the shell's remote \top and \slow
  // (same data /statusz serves over HTTP).
  out += ',';
  AppendInFlightAndSlow(*engine_, req.wait_ms > 0 ? req.wait_ms : 16, &out);
  out += ",\"prometheus\":";
  AppendJsonString(MetricsRegistry::Global().Snapshot().ToPrometheus(), &out);
  out += "}";
  return out;
}

std::string QueryServer::HandlePing(const WireRequest& req) {
  std::string out;
  AppendOkHead(req.id, &out);
  out += ",\"server\":\"sjos\"";
  if (engine_->has_database()) {
    out += ",\"db\":";
    AppendJsonString(engine_->db().name(), &out);
    out += ",\"nodes\":";
    AppendJsonUint(engine_->db().LiveNodeCount(), &out);
  }
  out += "}";
  return out;
}

std::string QueryServer::HandleUpdate(const WireRequest& req) {
  // Writes obey the same drain gate as submits: a draining server only
  // finishes what it already accepted.
  if (draining_.load(std::memory_order_relaxed)) {
    ServerMetrics::Get().drain_shed.Add();
    return EncodeErrorResponse(
        req.id, Status::Unavailable("server is draining — no new updates"),
        kDrainRetryAfterMs);
  }

  // One write at a time: apply-then-record must be atomic per id, or a
  // concurrent retry of the same id could slip past the replay check
  // below and mutate twice.
  std::lock_guard<std::mutex> write_lock(update_mu_);
  // Idempotency: a mutation id that already completed replays its stored
  // response byte for byte instead of mutating again — a client retrying
  // after a torn reply must not double-insert.
  if (const ReplayRing::Entry* done = completed_.Find(req.id)) {
    ServerMetrics::Get().replays.Add();
    return done->response;
  }

  Mutation mutation;
  if (req.action == "insert") {
    mutation = InsertSubtree{static_cast<NodeId>(req.parent),
                             req.position == ~0ull
                                 ? static_cast<size_t>(-1)
                                 : static_cast<size_t>(req.position),
                             req.xml};
  } else if (req.action == "delete") {
    mutation = DeleteSubtree{static_cast<NodeId>(req.node)};
  } else {
    mutation = FlushDifferential{};
  }

  Result<MutationResult> result = engine_->Apply(std::move(mutation));
  if (!result.ok()) {
    // Failed mutations changed nothing and are not recorded: the client
    // may retry the same id after fixing the request.
    return EncodeErrorResponse(req.id, result.status());
  }
  const MutationResult& mr = result.value();

  std::string out;
  AppendOkHead(req.id, &out);
  out += ",\"update\":";
  AppendJsonString(req.action, &out);
  out += ",\"nodes_added\":";
  AppendJsonUint(mr.nodes_added, &out);
  out += ",\"nodes_removed\":";
  AppendJsonUint(mr.nodes_removed, &out);
  out += ",\"histogram_deltas\":";
  AppendJsonUint(mr.histogram_deltas, &out);
  out += ",\"estimator_rebuilt\":";
  out += mr.estimator_rebuilt ? "true" : "false";
  out += ",\"cache_invalidated\":";
  AppendJsonUint(mr.cache_invalidated, &out);
  out += ",\"scope\":";
  AppendJsonString(mr.scope, &out);
  out += ",\"nodes\":";
  AppendJsonUint(engine_->has_database() ? engine_->db().LiveNodeCount() : 0,
                 &out);
  out += "}";
  completed_.Push(req.id, out);
  return out;
}

std::string QueryServer::HandleDrain(const WireRequest& req) {
  // wait_ms doubles as the drain deadline (0 → ServerOptions default).
  BeginDrain(req.wait_ms);
  std::string out;
  AppendOkHead(req.id, &out);
  out += ",\"draining\":true}";
  return out;
}

}  // namespace net
}  // namespace sjos
