// Minimal JSON for the wire protocol: a strict recursive-descent parser
// into a small value tree, plus append-style writers. Deliberately tiny —
// the request codec needs objects/arrays/strings/numbers/bools/null and
// nothing else (no streaming, no comments, no NaN/Inf). Every malformed
// input is rejected with Status::ParseError naming the byte offset, so
// the server can answer garbage frames with a clean error response
// instead of disconnecting.
//
// A result frame is mostly numbers (a 1e5-row result holds ~4e5 of them),
// so the value tree is laid out for them: a JsonValue is 48 bytes holding
// its kind, bool, number and array inline, and strings and object members
// live behind one side allocation that only string and object values
// make. The parser builds every element in place in its parent. After the
// grammar check, a number converts digit by digit when it is an integer of
// at most 15 digits (exact in a double), and through std::from_chars on the
// accepted span otherwise, which rounds as strtod does. The writers format
// integers with std::to_chars.

#ifndef SJOS_NET_JSON_H_
#define SJOS_NET_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sjos {
namespace net {

/// One parsed JSON value. Object member order is preserved.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue();
  JsonValue(const JsonValue& other);
  JsonValue& operator=(const JsonValue& other);
  JsonValue(JsonValue&& other) noexcept;
  JsonValue& operator=(JsonValue&& other) noexcept;
  ~JsonValue();

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_null() const { return kind_ == Kind::kNull; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  /// The string of a string value; empty for every other kind.
  const std::string& string_value() const;
  const std::vector<JsonValue>& array() const { return array_; }
  /// The members of an object value; empty for every other kind.
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// First member named `key`, or null when absent (objects only).
  const JsonValue* Find(std::string_view key) const;

  /// Typed member accessors for the codec: missing key → `fallback`;
  /// present with the wrong type (or, for Uint, negative/fractional/out of
  /// range) → InvalidArgument naming the key.
  Result<std::string> GetString(std::string_view key,
                                std::string fallback) const;
  Result<uint64_t> GetUint(std::string_view key, uint64_t fallback) const;
  Result<bool> GetBool(std::string_view key, bool fallback) const;

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool b);
  static JsonValue MakeNumber(double n);
  static JsonValue MakeString(std::string s);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  friend class JsonParser;

  /// The string and member storage, allocated only by string and object
  /// values.
  struct Side;

  Side& MakeSide();

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::vector<JsonValue> array_;
  std::unique_ptr<Side> side_;
};

/// Parses exactly one JSON document: leading/trailing whitespace allowed,
/// trailing garbage rejected, nesting capped at `max_depth` (guards stack
/// use on hostile input — a depth breach is a ParseError, not a crash).
Result<JsonValue> ParseJson(std::string_view text, size_t max_depth = 64);

/// Appends `text` JSON-escaped (quotes included) to `*out`. Control
/// characters are \u-escaped; input is treated as raw bytes.
void AppendJsonString(std::string_view text, std::string* out);

/// Renders a uint64 exactly (JSON writers elsewhere in the repo go
/// through doubles, which would corrupt large node ids).
void AppendJsonUint(uint64_t value, std::string* out);

}  // namespace net
}  // namespace sjos

#endif  // SJOS_NET_JSON_H_
