#include "net/codec.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <vector>

#include "common/str_util.h"
#include "net/frame.h"
#include "net/json.h"
#include "net/server.h"
#include "service/engine.h"

namespace sjos {
namespace net {

namespace {

constexpr size_t kMaxIdBytes = 256;

/// Decimal digits of `id`.
uint32_t DigitCount(NodeId id) {
  return 1u + (id >= 10) + (id >= 100) + (id >= 1000) + (id >= 10000) +
         (id >= 100000) + (id >= 1000000) + (id >= 10000000) +
         (id >= 100000000) + (id >= 1000000000);
}

/// Bytes `[[a,b,...],...]`'s inner rows take: every id's digits, plus the
/// brackets and arity - 1 commas of each row and the commas between rows.
/// The digits do not depend on the row order, so they are summed in
/// storage order.
size_t RowsBytes(const TupleSet& tuples) {
  const size_t n = tuples.size();
  if (n == 0) return 0;
  const NodeId* id = tuples.Row(0);
  const NodeId* const end = id + n * tuples.arity();
  size_t digits = 0;
  while (id != end) {
    // 32-bit sums vectorize; a block's digits stay far below 2^32.
    const NodeId* const block_end =
        id + std::min<size_t>(static_cast<size_t>(end - id), size_t{1} << 24);
    uint32_t block = 0;
    for (; id != block_end; ++id) block += DigitCount(*id);
    digits += block;
  }
  return digits + n * (tuples.arity() + 1) + (n - 1);
}

/// Writes `[[a,b,...],...]`'s inner rows in `order` at `p`, which has
/// exactly RowsBytes(tuples) bytes before `end`; returns the end of the
/// rows.
char* WriteRows(const TupleSet& tuples, const TupleSet::Order& order,
                char* p, char* const end) {
  const size_t* const cols = order.columns.data();
  const size_t arity = order.columns.size();
  for (size_t i = 0; i < order.rows.size(); ++i) {
    if (i > 0) *p++ = ',';
    *p++ = '[';
    const NodeId* row = tuples.Row(order.rows[i]);
    for (size_t c = 0; c < arity; ++c) {
      if (c > 0) *p++ = ',';
      p = std::to_chars(p, end, row[cols[c]]).ptr;
    }
    *p++ = ']';
  }
  return p;
}

Result<Verb> ParseVerb(std::string_view name) {
  if (name == "ping") return Verb::kPing;
  if (name == "submit") return Verb::kSubmit;
  if (name == "poll") return Verb::kPoll;
  if (name == "cancel") return Verb::kCancel;
  if (name == "explain") return Verb::kExplain;
  if (name == "stats") return Verb::kStats;
  if (name == "drain") return Verb::kDrain;
  if (name == "update") return Verb::kUpdate;
  return Status::InvalidArgument(
      "unknown verb '" + std::string(name) +
      "' (expected ping|submit|poll|cancel|explain|stats|drain|update)");
}

}  // namespace

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kPing: return "ping";
    case Verb::kSubmit: return "submit";
    case Verb::kPoll: return "poll";
    case Verb::kCancel: return "cancel";
    case Verb::kExplain: return "explain";
    case Verb::kStats: return "stats";
    case Verb::kDrain: return "drain";
    case Verb::kUpdate: return "update";
  }
  return "?";
}

QueryOptions WireRequest::ToQueryOptions() const {
  QueryOptions options;
  if (!optimizer.empty()) {
    // Validated in DecodeRequest; a bad name cannot reach here.
    options.optimizer = ParseOptimizerKind(optimizer).value();
  }
  options.deadline_ms = deadline_ms;
  options.max_live_bytes = max_live_bytes == 0
                               ? kMaxQueryLiveBytes
                               : std::min(max_live_bytes, kMaxQueryLiveBytes);
  options.max_join_output_rows = max_join_output_rows;
  options.use_plan_cache = use_plan_cache;
  options.tenant = tenant.empty() ? "default" : tenant;
  // The client-chosen wire id IS the query's identity end to end: trace
  // spans, audit log, /statusz, and QueryErrorInfo all carry it.
  options.query_id = id;
  return options;
}

Result<WireRequest> DecodeRequest(std::string_view payload) {
  Result<JsonValue> parsed = ParseJson(payload);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  if (!root.is_object()) {
    return Status::InvalidArgument("request payload must be a JSON object");
  }

  const JsonValue* verb_field = root.Find("verb");
  if (verb_field == nullptr) {
    return Status::InvalidArgument("request is missing the 'verb' field");
  }
  if (!verb_field->is_string()) {
    return Status::InvalidArgument("field 'verb' must be a string");
  }
  Result<Verb> verb = ParseVerb(verb_field->string_value());
  if (!verb.ok()) return verb.status();

  WireRequest req;
  req.verb = verb.value();

#define SJOS_NET_ASSIGN(dst, expr)          \
  do {                                      \
    auto _r = (expr);                       \
    if (!_r.ok()) return _r.status();       \
    (dst) = std::move(_r).value();          \
  } while (0)

  SJOS_NET_ASSIGN(req.id, root.GetString("id", ""));
  SJOS_NET_ASSIGN(req.tenant, root.GetString("tenant", ""));
  SJOS_NET_ASSIGN(req.query, root.GetString("query", ""));
  SJOS_NET_ASSIGN(req.xpath, root.GetBool("xpath", false));
  SJOS_NET_ASSIGN(req.optimizer, root.GetString("optimizer", ""));
  SJOS_NET_ASSIGN(req.deadline_ms, root.GetUint("deadline_ms", 0));
  SJOS_NET_ASSIGN(req.max_live_bytes, root.GetUint("max_live_bytes", 0));
  SJOS_NET_ASSIGN(req.max_join_output_rows,
                  root.GetUint("max_join_output_rows", 0));
  SJOS_NET_ASSIGN(req.use_plan_cache, root.GetBool("use_plan_cache", true));
  SJOS_NET_ASSIGN(req.wait_ms, root.GetUint("wait_ms", 0));
  SJOS_NET_ASSIGN(req.action, root.GetString("action", ""));
  SJOS_NET_ASSIGN(req.parent, root.GetUint("parent", 0));
  SJOS_NET_ASSIGN(req.position, root.GetUint("position", ~0ull));
  SJOS_NET_ASSIGN(req.xml, root.GetString("xml", ""));
  SJOS_NET_ASSIGN(req.node, root.GetUint("node", 0));
#undef SJOS_NET_ASSIGN

  if (req.id.size() > kMaxIdBytes) {
    return Status::InvalidArgument("field 'id' exceeds " +
                                   std::to_string(kMaxIdBytes) + " bytes");
  }
  if (req.tenant.size() > kMaxIdBytes) {
    return Status::InvalidArgument("field 'tenant' exceeds " +
                                   std::to_string(kMaxIdBytes) + " bytes");
  }
  // Order keys are NodeIds (32 bits): a wider value must not wrap onto
  // another node.
  constexpr uint64_t kMaxKey = std::numeric_limits<NodeId>::max();
  if (req.parent > kMaxKey || req.node > kMaxKey) {
    return Status::InvalidArgument(
        std::string("field '") + (req.parent > kMaxKey ? "parent" : "node") +
        "' exceeds the 32-bit node key range");
  }

  switch (req.verb) {
    case Verb::kSubmit:
    case Verb::kExplain:
      if (req.id.empty()) {
        return Status::InvalidArgument(std::string(VerbName(req.verb)) +
                                       " requires a non-empty 'id'");
      }
      if (req.query.empty()) {
        return Status::InvalidArgument(std::string(VerbName(req.verb)) +
                                       " requires a non-empty 'query'");
      }
      if (!req.optimizer.empty()) {
        Result<OptimizerKind> kind = ParseOptimizerKind(req.optimizer);
        if (!kind.ok()) return kind.status();
      }
      break;
    case Verb::kPoll:
    case Verb::kCancel:
      if (req.id.empty()) {
        return Status::InvalidArgument(std::string(VerbName(req.verb)) +
                                       " requires a non-empty 'id'");
      }
      break;
    case Verb::kUpdate:
      if (req.id.empty()) {
        return Status::InvalidArgument("update requires a non-empty 'id'");
      }
      if (req.action != "insert" && req.action != "delete" &&
          req.action != "flush") {
        return Status::InvalidArgument(
            "update requires 'action' of insert|delete|flush");
      }
      if (req.action == "insert" && req.xml.empty()) {
        return Status::InvalidArgument(
            "update action 'insert' requires a non-empty 'xml'");
      }
      break;
    case Verb::kPing:
    case Verb::kStats:
    case Verb::kDrain:
      break;
  }
  return req;
}

std::string EncodeErrorResponse(std::string_view id, const Status& status,
                                uint64_t retry_after_ms) {
  std::string out = "{\"id\":";
  AppendJsonString(id, &out);
  out += ",\"ok\":false,\"code\":";
  AppendJsonString(StatusCodeName(status.code()), &out);
  out += ",\"error\":";
  AppendJsonString(status.message(), &out);
  if (retry_after_ms > 0) {
    out += ",\"retry_after_ms\":";
    AppendJsonUint(retry_after_ms, &out);
  }
  out += "}";
  return out;
}

void AppendOkHead(std::string_view id, std::string* out) {
  *out += "{\"id\":";
  AppendJsonString(id, out);
  *out += ",\"ok\":true";
}

std::string EncodeDoneResult(std::string_view id, const QueryResult& qr,
                             size_t max_payload) {
  const TupleSet& tuples = qr.tuples;
  const size_t nrows = tuples.size();
  std::vector<PatternNodeId> slots = tuples.slots();
  std::sort(slots.begin(), slots.end());

  std::string head;
  AppendOkHead(id, &head);
  head += ",\"done\":true,\"result\":{\"slots\":[";
  for (size_t i = 0; i < slots.size(); ++i) {
    if (i > 0) head += ',';
    AppendJsonUint(static_cast<uint64_t>(slots[i]), &head);
  }
  head += "],\"rows\":[";

  std::string tail = "],\"row_count\":";
  AppendJsonUint(nrows, &tail);
  tail += ",\"stats\":{\"result_rows\":";
  AppendJsonUint(qr.stats.result_rows, &tail);
  tail += ",\"wall_ms\":" + FormatDouble(qr.stats.wall_ms, 3);
  tail += ",\"peak_live_rows\":";
  AppendJsonUint(qr.stats.peak_live_rows, &tail);
  tail += ",\"peak_live_bytes\":";
  AppendJsonUint(qr.stats.peak_live_bytes, &tail);
  tail += ",\"max_q_error\":" + FormatDouble(qr.stats.max_q_error, 4);
  tail += "},\"algorithm\":";
  AppendJsonString(qr.planned.algorithm, &tail);
  tail += ",\"cache_hit\":";
  tail += qr.planned.cache_hit ? "true" : "false";
  tail += ",\"fallback_from\":";
  AppendJsonString(qr.planned.fallback_from, &tail);
  tail += ",\"query_id\":";
  AppendJsonString(qr.query_id, &tail);
  tail += "}}";

  // A response the framing layer could never carry must degrade to an
  // explicit error, not an SJOS_CHECK abort inside SendFrame. The size is
  // exact, so it also sizes the buffer the rows are written into.
  const size_t rows_bytes = RowsBytes(tuples);
  const size_t bytes = head.size() + rows_bytes + tail.size();
  if (bytes > std::min(max_payload, kFrameAbsoluteMaxPayload)) {
    return EncodeErrorResponse(
        id, Status::ResourceExhausted(
                "result of " + std::to_string(nrows) +
                " rows is too large for one response frame — tighten the "
                "query or raise max_frame_bytes"));
  }
  const TupleSet::Order order = tuples.CanonicalOrder();
  std::string out(bytes, '\0');
  char* p = std::copy(head.begin(), head.end(), out.data());
  char* const rows_end = p + rows_bytes;
  p = WriteRows(tuples, order, p, rows_end);
  SJOS_CHECK(p == rows_end, "EncodeDoneResult: row bytes miscounted");
  std::copy(tail.begin(), tail.end(), p);
  return out;
}

std::string EncodeDoneError(std::string_view id, const Status& status,
                            const QueryErrorInfo& info) {
  std::string out = "{\"id\":";
  AppendJsonString(id, &out);
  out += ",\"ok\":false,\"done\":true,\"code\":";
  AppendJsonString(StatusCodeName(status.code()), &out);
  out += ",\"error\":";
  AppendJsonString(status.message(), &out);
  out += ",\"verdict\":";
  AppendJsonString(info.verdict, &out);
  out += ",\"query_id\":";
  AppendJsonString(info.query_id, &out);
  out += "}";
  return out;
}

void AppendInFlightAndSlow(const Engine& engine, size_t max_slow,
                           std::string* out) {
  *out += "\"in_flight\":[";
  const std::vector<InFlightInfo> in_flight = engine.InFlightQueries();
  for (size_t i = 0; i < in_flight.size(); ++i) {
    if (i > 0) *out += ',';
    *out += "{\"query_id\":";
    AppendJsonString(in_flight[i].query_id, out);
    *out += ",\"tenant\":";
    AppendJsonString(in_flight[i].tenant, out);
    *out += ",\"optimizer\":";
    AppendJsonString(in_flight[i].optimizer, out);
    *out += ",\"elapsed_ms\":" + FormatDouble(in_flight[i].elapsed_ms, 3);
    *out += ",\"live_bytes\":";
    AppendJsonUint(in_flight[i].live_bytes, out);
    *out += '}';
  }
  *out += "],\"slow\":[";
  const std::vector<QueryLogRecord> slow =
      engine.query_log().RecentSlow(max_slow);
  for (size_t i = 0; i < slow.size(); ++i) {
    if (i > 0) *out += ',';
    *out += slow[i].ToJsonl();  // one JSON object per record
  }
  *out += ']';
}

}  // namespace net
}  // namespace sjos
