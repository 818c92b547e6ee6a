// Wire protocol structs and the request codec (DESIGN.md §10). One frame
// carries one JSON object. Requests:
//
//   {"verb":"submit","id":"q1","tenant":"acme","query":"a[//b]",
//    "optimizer":"dpp","deadline_ms":100,"max_live_bytes":0,
//    "use_plan_cache":true,"xpath":false}
//   {"verb":"poll","id":"q1","wait_ms":50}
//   {"verb":"cancel","id":"q1"}
//   {"verb":"explain","id":"e1","query":"a[//b]","optimizer":"dp"}
//   {"verb":"update","id":"u1","action":"insert","parent":0,
//    "xml":"<x/>"}           (actions: insert | delete | flush)
//   {"verb":"stats"}        {"verb":"ping"}
//
// Responses always carry "id" (echoed, possibly empty) and "ok". Errors
// add "code" (StatusCodeName), "error", and — for load shedding — a
// "retry_after_ms" hint:
//
//   {"id":"q1","ok":false,"code":"Unavailable",
//    "error":"server is draining — no new submits","retry_after_ms":500}
//
// A finished query's terminal poll reply carries its rows in canonical
// form (TupleSet::CanonicalOrder: columns by ascending pattern-node id,
// rows sorted), so equal results are equal bytes. The encoder sizes the
// reply exactly, then writes every row once, straight from the result
// through that permutation:
//
//   {"id":"q1","ok":true,"done":true,"result":{"slots":[0,1],
//    "rows":[[3,4],[3,9]],"row_count":2,"stats":{...},"algorithm":"DPP",
//    "cache_hit":true,"fallback_from":"","query_id":"q1"}}
//
// Decoding is total: any malformed payload yields an error Status the
// server answers with EncodeErrorResponse — never a crash or silent drop.

#ifndef SJOS_NET_CODEC_H_
#define SJOS_NET_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "service/query_options.h"

namespace sjos {

class Engine;
struct QueryErrorInfo;
struct QueryResult;

namespace net {

enum class Verb : uint8_t {
  kPing,
  kSubmit,
  kPoll,
  kCancel,
  kExplain,
  kStats,
  kDrain,
  kUpdate,
};

const char* VerbName(Verb verb);

/// One decoded request. Option fields default like QueryOptions.
struct WireRequest {
  Verb verb = Verb::kPing;
  std::string id;      // query identity for submit/poll/cancel/explain
  std::string tenant;  // "" → the server's default tenant bucket
  std::string query;   // pattern (or XPath) text for submit/explain
  bool xpath = false;  // parse `query` as XPath instead of a pattern
  std::string optimizer;  // "" → dpp; else an OptimizerKindName
  uint64_t deadline_ms = 0;
  uint64_t max_live_bytes = 0;
  uint64_t max_join_output_rows = 0;
  bool use_plan_cache = true;
  uint64_t wait_ms = 0;  // poll: block up to this long for completion

  // Update-verb fields.
  std::string action;  // "insert" | "delete" | "flush"
  uint64_t parent = 0;       // insert: order key of the parent node
  uint64_t position = ~0ull; // insert: child index (default = append)
  std::string xml;           // insert: the fragment to parse
  uint64_t node = 0;         // delete: order key of the subtree root

  /// Service-layer options derived from the wire fields (tenant label
  /// included). max_live_bytes becomes min(requested, kMaxQueryLiveBytes),
  /// and a request of 0 gets the cap, so every wire query has a byte bound.
  QueryOptions ToQueryOptions() const;
};

/// Parses and validates one request payload. InvalidArgument/ParseError
/// on malformed JSON, a non-object payload, a missing/unknown verb, bad
/// field types, an over-long id (> 256 bytes), a 'parent' or 'node' key
/// past the 32-bit NodeId range, a missing id or query on verbs that need
/// one, or an unknown optimizer name.
Result<WireRequest> DecodeRequest(std::string_view payload);

/// `{"id":<id>,"ok":false,"code":...,"error":...[,"retry_after_ms":N]}`.
/// retry_after_ms is emitted only when non-zero.
std::string EncodeErrorResponse(std::string_view id, const Status& status,
                                uint64_t retry_after_ms = 0);

/// Appends `{"id":<id>,"ok":true` — the head of every success response.
void AppendOkHead(std::string_view id, std::string* out);

/// The terminal reply of a query that succeeded, rows in canonical form.
/// A reply whose exact size exceeds `max_payload` (or the absolute frame
/// ceiling) becomes a ResourceExhausted EncodeErrorResponse instead.
std::string EncodeDoneResult(std::string_view id, const QueryResult& qr,
                             size_t max_payload);

/// The terminal reply of a query that failed: code, message, governor
/// verdict and query id.
std::string EncodeDoneError(std::string_view id, const Status& status,
                            const QueryErrorInfo& info);

/// Appends `"in_flight":[...],"slow":[...]`: the engine's in-flight
/// queries and its `max_slow` most recent slow-log records. The `stats`
/// verb and the HTTP /statusz page both serve this view.
void AppendInFlightAndSlow(const Engine& engine, size_t max_slow,
                           std::string* out);

}  // namespace net
}  // namespace sjos

#endif  // SJOS_NET_CODEC_H_
