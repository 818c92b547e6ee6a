#include "net/codec.h"

#include <algorithm>
#include <charconv>
#include <vector>

#include "common/str_util.h"
#include "net/frame.h"
#include "net/json.h"
#include "service/engine.h"

namespace sjos {
namespace net {

namespace {

constexpr size_t kMaxIdBytes = 256;

/// Appends `[[a,b,...],...]`'s inner rows from a flat row-major buffer.
/// A row of k ids takes at most 11k + 2 bytes (a NodeId has at most 10
/// digits; the brackets, k - 1 commas and the comma before the row), so
/// the rows are written straight into one resize of `out`.
void AppendRows(const std::vector<NodeId>& rows, size_t arity,
                std::string* out) {
  const size_t n = arity == 0 ? 0 : rows.size() / arity;
  const size_t start = out->size();
  out->resize(start + n * (11 * arity + 2));
  char* p = out->data() + start;
  const NodeId* id = rows.data();
  for (size_t r = 0; r < n; ++r) {
    if (r > 0) *p++ = ',';
    *p++ = '[';
    for (size_t c = 0; c < arity; ++c, ++id) {
      if (c > 0) *p++ = ',';
      p = std::to_chars(p, p + 10, *id).ptr;
    }
    *p++ = ']';
  }
  out->resize(static_cast<size_t>(p - out->data()));
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
  options.max_live_bytes = max_live_bytes;
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
  const size_t nrows = qr.tuples.size();
  const size_t arity = qr.tuples.arity();
  // A response the framing layer could never carry must degrade to an
  // explicit error, not an SJOS_CHECK abort inside SendFrame. The
  // estimate is also an upper bound on the bytes the rows take, so it
  // sizes the buffer.
  const size_t approx_bytes = nrows * (arity + 1) * 12 + 4096;
  if (approx_bytes > std::min(max_payload, kFrameAbsoluteMaxPayload)) {
    return EncodeErrorResponse(
        id, Status::ResourceExhausted(
                "result of " + std::to_string(nrows) +
                " rows is too large for one response frame — tighten the "
                "query or raise max_frame_bytes"));
  }
  std::vector<PatternNodeId> slots = qr.tuples.slots();
  std::sort(slots.begin(), slots.end());
  const std::vector<NodeId> rows = qr.tuples.CanonicalRows();

  std::string out;
  out.reserve(approx_bytes);
  AppendOkHead(id, &out);
  out += ",\"done\":true,\"result\":{\"slots\":[";
  for (size_t i = 0; i < slots.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonUint(static_cast<uint64_t>(slots[i]), &out);
  }
  out += "],\"rows\":[";
  AppendRows(rows, arity, &out);
  out += "],\"row_count\":";
  AppendJsonUint(nrows, &out);
  out += ",\"stats\":{\"result_rows\":";
  AppendJsonUint(qr.stats.result_rows, &out);
  out += ",\"wall_ms\":" + FormatDouble(qr.stats.wall_ms, 3);
  out += ",\"peak_live_rows\":";
  AppendJsonUint(qr.stats.peak_live_rows, &out);
  out += ",\"peak_live_bytes\":";
  AppendJsonUint(qr.stats.peak_live_bytes, &out);
  out += ",\"max_q_error\":" + FormatDouble(qr.stats.max_q_error, 4);
  out += "},\"algorithm\":";
  AppendJsonString(qr.planned.algorithm, &out);
  out += ",\"cache_hit\":";
  out += qr.planned.cache_hit ? "true" : "false";
  out += ",\"fallback_from\":";
  AppendJsonString(qr.planned.fallback_from, &out);
  out += ",\"query_id\":";
  AppendJsonString(qr.query_id, &out);
  out += "}}";
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
  if (info.retry_after_ms > 0) {
    out += ",\"retry_after_ms\":";
    AppendJsonUint(info.retry_after_ms, &out);
  }
  // The flight recorder rides along so a failed remote query can be
  // diagnosed without shell access to the server's audit log.
  if (!info.flight.empty()) out += ",\"flight\":" + info.flight.ToJson();
  out += "}";
  return out;
}

}  // namespace net
}  // namespace sjos
