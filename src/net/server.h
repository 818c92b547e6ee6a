// QueryServer: the wire on sjos::Engine. A framed-TCP (4-byte big-endian
// length prefix + JSON, see net/frame.h and net/codec.h) request/response
// server mapping the protocol verbs onto the service facade:
//
//   submit  → Engine::Submit (async; response acknowledges queueing)
//   poll    → QueryHandle::Done/WaitFor + result serialization
//   cancel  → QueryHandle::Cancel
//   explain → Engine::Plan (plan text, no execution)
//   update  → Engine::Apply (insert/delete/flush; serialized writes,
//             idempotent replay through the completed ring)
//   stats   → MetricsRegistry Prometheus text export
//   ping    → liveness + database identity
//   drain   → BeginDrain (graceful shutdown; see below)
//
// Admission: a draining server sheds every submit and update with an
// explicit Unavailable response and a retry_after_ms hint — shed, never
// queued — and a connection past max_connections is answered with one
// ResourceExhausted frame and closed. Every admitted query runs with a
// byte bound (kMaxQueryLiveBytes, applied in WireRequest::ToQueryOptions).
// Admitted queries leave the live count through the QueryHandle
// done-callback, so completion (success, failure, or cancel) frees the
// slot without requiring a poll.
//
// Idempotency: queries live in one server-wide table keyed by the
// client-supplied wire id, which must be unique per server lifetime. A
// re-submit of a live id attaches to the running query (no re-execution)
// and transfers ownership to the submitting connection; polls work from
// any connection and also transfer ownership.
// Terminal responses are retained in a recently-completed ring bounded by
// entries and by bytes (ReplayRing):
// re-submitting a completed id replays the stored response byte for byte,
// except entries that were cancelled by a disconnect — those were never
// delivered, so a re-submit re-runs them and a poll answers NotFound
// (telling the client to re-submit).
//
// Connections: one thread per connection, one in-flight request per
// connection (submitted queries complete in the background; concurrency
// comes from multiple connections). A client disconnect cancels every
// live query the connection still owns and drains them so their slots are
// freed deterministically. An optional per-connection
// receive timeout reaps idle and half-open connections (slow-loris
// defense).
//
// Lifetime: the server must be destroyed (or Stop()ed) before the Engine
// it wraps.

#ifndef SJOS_NET_SERVER_H_
#define SJOS_NET_SERVER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "net/codec.h"
#include "service/engine.h"

namespace sjos {
namespace net {

struct ServerOptions {
  /// Listen address. Tests and perfbench use the loopback default; 0
  /// picks an ephemeral port (read it back with port()).
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// Per-frame payload ceiling; an over-long length prefix is answered
  /// with one error response and the connection closed (the stream cannot
  /// be resynchronized).
  size_t max_frame_bytes = 1u << 20;

  /// Concurrent connections; one past the limit is answered with a
  /// kResourceExhausted frame and closed.
  size_t max_connections = 64;

  /// Per-connection receive timeout (SO_RCVTIMEO): a connection that
  /// stays silent — or stalls mid-frame, the slow-loris shape — longer
  /// than this is closed and counted in sjos_server_idle_closed_total.
  /// 0 disables (the default; long-polling clients may sit idle).
  uint64_t idle_timeout_ms = 0;

  /// Capacity of the recently-completed ring (terminal responses kept for
  /// idempotent replay). Oldest entries are evicted first, also while the
  /// retained responses exceed kReplayRingMaxBytes; a client re-submitting
  /// an evicted id re-runs the query.
  size_t completed_ring_capacity = 256;

  /// Default drain deadline when the wire 'drain' verb carries no
  /// wait_ms: in-flight queries still running after this are cancelled.
  uint64_t drain_deadline_ms = 5'000;
};

/// Upper bound on a poll's wait_ms block (keeps one connection thread from
/// sleeping unboundedly).
inline constexpr uint64_t kMaxPollWaitMs = 10'000;

/// After the last query finishes during drain, connections stay up this
/// long so clients can collect final results before their sockets close.
inline constexpr uint64_t kDrainGraceMs = 250;

/// Retry hint attached to submits and updates shed by the drain gate.
inline constexpr uint64_t kDrainRetryAfterMs = 500;

/// Byte cap on the responses the replay ring retains, on top of its entry
/// capacity: 256 entries of maximum-size frames would otherwise pin
/// gigabytes.
inline constexpr size_t kReplayRingMaxBytes = size_t{32} << 20;

/// Byte bound on every wire query's live intermediate set (the governor's
/// max_live_bytes): WireRequest::ToQueryOptions runs each query with
/// min(requested, this), and a request of 0 gets this cap. It sits about
/// 110x above the 2.3 MB peak live set of the perfbench pers_wire
/// workload (~1e5-row Pers results), so it bounds a runaway query without
/// touching a real one.
inline constexpr uint64_t kMaxQueryLiveBytes = uint64_t{256} << 20;

/// One encoded response frame payload. A terminal response is shared, not
/// copied: the reply that sends it, its replay-ring entry and every replay
/// hold the same buffer.
using SharedResponse = std::shared_ptr<const std::string>;

/// The recently-completed ring: terminal responses kept for idempotent
/// replay, oldest first. It holds at most `capacity` entries and evicts
/// the oldest while the retained response bytes exceed
/// kReplayRingMaxBytes — never the newest entry, so the latest response
/// always replays (one response over the cap stays until the next push).
/// Not thread-safe; the server guards it with its query-table mutex.
class ReplayRing {
 public:
  struct Entry {
    std::string id;
    SharedResponse response;
    /// True when a disconnect cancelled the query before its result was
    /// ever delivered: re-submits re-run instead of replaying, and polls
    /// answer NotFound.
    bool disconnect_cancelled = false;
  };

  explicit ReplayRing(size_t capacity) : capacity_(capacity) {}

  void Push(std::string id, SharedResponse response,
            bool disconnect_cancelled);

  /// Newest entry under `id` (a re-run under a replayed id resolves to its
  /// latest terminal response), or nullptr.
  const Entry* Find(const std::string& id) const;

  /// Drops the entry Find(id) returns, if any.
  void Erase(const std::string& id);

  size_t size() const { return entries_.size(); }
  /// Total response bytes retained.
  size_t bytes() const { return bytes_; }

 private:
  const size_t capacity_;
  std::deque<Entry> entries_;
  size_t bytes_ = 0;
};

class QueryServer {
 public:
  /// `engine` must outlive this server.
  QueryServer(Engine* engine, ServerOptions options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and starts the accept loop. Fails (without leaking
  /// the socket) when the address cannot be bound.
  Status Start();

  /// Shuts down the listener and every connection, cancels and drains all
  /// live queries, joins all threads. Idempotent; called by the
  /// destructor.
  void Stop();

  /// Graceful drain: stops accepting, sheds new submits with retry
  /// hints, lets in-flight queries finish (cancelling any still running
  /// at `deadline_ms`; 0 uses ServerOptions::drain_deadline_ms), then
  /// stops the server. Non-blocking and idempotent; observe completion
  /// with drained() or block with Drain().
  void BeginDrain(uint64_t deadline_ms = 0);

  /// BeginDrain + block until the server has fully stopped.
  void Drain(uint64_t deadline_ms = 0);

  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }
  bool drained() const { return drained_.load(std::memory_order_acquire); }

  /// The bound port (after Start); useful with ServerOptions::port == 0.
  uint16_t port() const { return port_; }

  /// Submitted-but-unreleased queries across all connections — returns to
  /// 0 once every query finished (the soak test's leak check).
  size_t live_queries() const {
    return live_queries_.load(std::memory_order_relaxed);
  }

 private:
  /// One server-wide live query, keyed by wire id in queries_ below.
  struct LiveQuery {
    QueryHandle handle;
    /// Connection currently responsible for it (disconnect-cancel checks
    /// this before dooming a query another connection took over).
    uint64_t owner_conn = 0;
    /// Bumped on every insert under an id; consumers re-check it before
    /// erasing so a replaced entry is never clobbered.
    uint64_t generation = 0;
    /// Set (under queries_mu_) when the owner's disconnect cancelled the
    /// query. A poll then answers NotFound, exactly as it will once the
    /// teardown parks the entry in the replay ring, and never adopts it.
    bool disconnect_cancelled = false;
  };

  /// One accepted connection: the fd, its serving thread, and the wire
  /// ids of queries it owns (touched only by that thread).
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    std::thread thread;
    std::atomic<bool> finished{false};
    std::vector<std::string> owned_ids;

    void Own(const std::string& id) {
      if (std::find(owned_ids.begin(), owned_ids.end(), id) ==
          owned_ids.end()) {
        owned_ids.push_back(id);
      }
    }
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  /// Joins and frees finished connections (accept-loop housekeeping).
  void ReapFinishedLocked();
  /// Drain worker: waits queries out (deadline-cancelling stragglers),
  /// grants the poll grace, then Stop()s.
  void DrainImpl(uint64_t deadline_ms);

  SharedResponse HandleRequest(Connection* conn, std::string_view payload);
  SharedResponse HandleSubmit(Connection* conn, const WireRequest& req);
  SharedResponse HandlePoll(Connection* conn, const WireRequest& req);
  std::string HandleCancel(Connection* conn, const WireRequest& req);
  std::string HandleExplain(const WireRequest& req);
  std::string HandleStats(const WireRequest& req);
  std::string HandlePing(const WireRequest& req);
  std::string HandleDrain(const WireRequest& req);
  SharedResponse HandleUpdate(const WireRequest& req);

  Engine* engine_;
  const ServerOptions options_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  std::mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 1;

  /// The server-wide query table and completed ring (see file comment).
  std::mutex queries_mu_;
  std::unordered_map<std::string, LiveQuery> queries_;
  ReplayRing completed_;
  uint64_t next_generation_ = 1;

  /// Serializes update-verb mutations server-wide: Engine::Apply holds the
  /// database write lock anyway, so admitting writes one at a time keeps
  /// the replay ring's store-then-respond step atomic per id.
  std::mutex update_mu_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::mutex drain_mu_;
  std::thread drain_thread_;

  std::atomic<size_t> live_queries_{0};
};

}  // namespace net
}  // namespace sjos

#endif  // SJOS_NET_SERVER_H_
