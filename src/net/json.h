// Minimal JSON for the wire protocol: a strict recursive-descent parser
// into a small value tree, plus append-style writers. Deliberately tiny —
// the request codec needs objects/arrays/strings/numbers/bools/null and
// nothing else (no streaming, no comments, no NaN/Inf). Every malformed
// input is rejected with Status::ParseError naming the byte offset, so
// the server can answer garbage frames with a clean error response
// instead of disconnecting.
//
// A result frame is mostly numbers (a 1e5-row result holds ~5e5 of them),
// so one parse makes O(1) heap allocations, not one per value. A value is
// one 16-byte trivially-copyable node: kind, bool, an owner flag, a 32-bit
// count and a union of number / items / members / chars. The root owns one
// bump arena, a chain of 64 KiB blocks (a run longer than a block gets a
// block of its own). Only the root owns, so no value carries an owner
// pointer: an owning root sets its flag, and its run starts 8 bytes into
// its allocation, after a header naming the arena. A root with no run (a
// scalar, an empty string or container) owns nothing. When a root dies its
// 64 KiB blocks go to one process-wide free list (under one mutex, bounded
// by kJsonBlockPoolMaxBytes), and the next parse on any thread takes its
// blocks from there before the heap, so a client decoding result after
// result stops faulting in a fresh ~11 MB tree each time. Blocks past the
// bound, and blocks sized to fit one longer run, go back to the heap.
// Under AddressSanitizer a listed block is poisoned, so a view that
// outlives its root still reports. Every string's decoded text and
// every array's items or object's members live there as one contiguous
// run: the parser collects a container's children on a stack it reuses
// and copies them into the arena when the container closes, except that a
// result row (an array of short unsigned integers) is written straight
// into the free tail of the arena's current block by a pointer loop. Its
// digit loop has no end check: an item that starts at or after the text's
// last non-digit is left to the general loop. Values inside the arena own
// nothing, so moving the root (or the Result holding it) never moves the
// children; copying any value deep-copies its tree into a fresh arena,
// sized to fit, that the copy owns. Counts are 32-bit, so a
// document over 4 GiB is rejected (frames cap at 64 MiB). After the
// grammar check, a number converts digit by digit when it is an integer of
// at most 15 digits (exact in a double), and through std::from_chars on the
// accepted span otherwise, which rounds as strtod does. The writers,
// AppendJsonString and AppendJsonUint, are common/str_util's, re-exported
// here for the codec and its callers.

#ifndef SJOS_NET_JSON_H_
#define SJOS_NET_JSON_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/str_util.h"

namespace sjos {
namespace net {

/// One parsed JSON value. Object member order is preserved. The views
/// string_value(), array() and members() return, and pointers into them,
/// stay valid while the root of their tree lives, however it is moved.
class JsonValue {
 public:
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  /// An object member: the key and its value.
  using Member = std::pair<std::string_view, JsonValue>;

  JsonValue() = default;
  JsonValue(const JsonValue& other);
  JsonValue& operator=(const JsonValue& other);
  JsonValue(JsonValue&& other) noexcept;
  JsonValue& operator=(JsonValue&& other) noexcept;
  ~JsonValue();

  Kind kind() const { return node_.kind; }
  bool is_object() const { return node_.kind == Kind::kObject; }
  bool is_array() const { return node_.kind == Kind::kArray; }
  bool is_string() const { return node_.kind == Kind::kString; }
  bool is_number() const { return node_.kind == Kind::kNumber; }
  bool is_bool() const { return node_.kind == Kind::kBool; }
  bool is_null() const { return node_.kind == Kind::kNull; }

  bool bool_value() const { return node_.boolean; }
  double number_value() const { return is_number() ? node_.number : 0.0; }
  /// The string of a string value; empty for every other kind.
  std::string_view string_value() const {
    return is_string() ? std::string_view(node_.chars, node_.size)
                       : std::string_view();
  }
  /// The items of an array value; empty for every other kind.
  std::span<const JsonValue> array() const {
    return is_array() ? std::span<const JsonValue>(node_.items, node_.size)
                      : std::span<const JsonValue>();
  }
  /// The members of an object value; empty for every other kind.
  std::span<const Member> members() const {
    return is_object() ? std::span<const Member>(node_.members, node_.size)
                       : std::span<const Member>();
  }

  /// First member named `key`, or null when absent (objects only).
  const JsonValue* Find(std::string_view key) const;

  /// Typed member accessors for the codec: missing key → `fallback`;
  /// present with the wrong type (or, for Uint, negative/fractional/out of
  /// range) → InvalidArgument naming the key.
  Result<std::string> GetString(std::string_view key,
                                std::string fallback) const;
  Result<uint64_t> GetUint(std::string_view key, uint64_t fallback) const;
  Result<bool> GetBool(std::string_view key, bool fallback) const;

  /// Test factories; each container or string builds into its own arena.
  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool b);
  static JsonValue MakeNumber(double n);
  static JsonValue MakeString(std::string s);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  friend class JsonParser;

  /// The bump arena a root owns; defined in json.cc.
  class Arena;

  struct Node {
    Kind kind = Kind::kNull;
    bool boolean = false;
    /// Set on a root that owns its tree's arena. Its run (items, members
    /// or chars) then starts kRunHeaderBytes into an arena allocation
    /// whose first 8 bytes hold the Arena*.
    bool owner = false;
    /// String bytes, array items or object members.
    uint32_t size = 0;
    union {
      double number = 0.0;
      const JsonValue* items;
      const Member* members;
      const char* chars;
    };
  };

  /// The header before an owning root's run: the arena's address.
  static constexpr size_t kRunHeaderBytes = 8;

  /// A value that owns nothing: an element inside an arena, or a view the
  /// factories deep-copy from.
  explicit JsonValue(const Node& node) : node_(node) {}

  /// The arena this value owns: null unless it is an owning root.
  Arena* owned_arena() const;

  /// Bytes a deep copy of `node`'s children and strings takes in an arena.
  static size_t TreeBytes(const Node& node);
  /// `node` with its children and strings deep-copied into `arena`; an
  /// `owner` copy's run gets the header naming `arena`.
  static Node Clone(const Node& node, Arena* arena, bool owner);

  Node node_;
};

/// Bound on the 64 KiB parse-tree blocks kept for reuse once their trees die:
/// about three times the ~11 MB tree of a 1e5-row result frame (Q.Pers.2.c's
/// 111K rows of 5 ids: 8.9 MB of numbers in blocks and a 1.8 MB rows run).
inline constexpr size_t kJsonBlockPoolMaxBytes = size_t{32} << 20;

/// Bytes of parse-tree blocks on the free list now (at most
/// kJsonBlockPoolMaxBytes).
size_t JsonBlockPoolBytes();

/// Parses exactly one JSON document: leading/trailing whitespace allowed,
/// trailing garbage rejected, nesting capped at `max_depth` (guards stack
/// use on hostile input — a depth breach is a ParseError, not a crash).
Result<JsonValue> ParseJson(std::string_view text, size_t max_depth = 64);

/// The JSON writers live in common/str_util; net:: callers keep their
/// spelling.
using ::sjos::AppendJsonString;
using ::sjos::AppendJsonUint;

}  // namespace net
}  // namespace sjos

#endif  // SJOS_NET_JSON_H_
