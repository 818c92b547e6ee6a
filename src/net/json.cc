#include "net/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <system_error>
#include <type_traits>

namespace sjos {
namespace net {

static_assert(sizeof(JsonValue) <= 24,
              "JsonValue must stay small: result frames hold ~1e5 numbers");

/// A chain of blocks handing out 8-aligned runs that are freed all at once.
/// The arena object sits at the front of its first block, so a root's whole
/// tree costs one allocation per block.
class JsonValue::Arena {
 public:
  static constexpr size_t kBlockBytes = size_t{64} << 10;

  /// A new arena whose first block has room for `bytes`.
  static Arena* Create(size_t bytes) {
    static_assert(sizeof(Arena) % 8 == 0,
                  "the first block's runs start right after the arena");
    void* memory = ::operator new(sizeof(Arena) + bytes);
    char* data = static_cast<char*>(memory) + sizeof(Arena);
    return new (memory) Arena(data, data + bytes);
  }

  static void Destroy(Arena* arena) {
    for (Block* b = arena->blocks_; b != nullptr;) {
      Block* next = b->next;
      ::operator delete(b);
      b = next;
    }
    arena->~Arena();
    ::operator delete(arena);
  }

  /// `bytes` rounded up to the arena's alignment; every run takes this
  /// many, so TreeBytes can size a copy's arena exactly.
  static size_t Rounded(size_t bytes) { return (bytes + 7) & ~size_t{7}; }

  void* Allocate(size_t bytes) {
    bytes = Rounded(bytes);
    if (static_cast<size_t>(end_ - cur_) < bytes) return AllocateSlow(bytes);
    void* run = cur_;
    cur_ += bytes;
    return run;
  }

  /// The free tail of the current block, where a run of unknown length is
  /// built in place; `*bytes` is its size. Nothing is taken until Take(),
  /// so otherwise the next run reuses the tail.
  char* Tail(size_t* bytes) {
    *bytes = static_cast<size_t>(end_ - cur_);
    return cur_;
  }

  /// Takes the first `bytes` of the tail.
  void Take(size_t bytes) { cur_ += Rounded(bytes); }

  /// Gives up the current block's tail for a new block whose tail holds at
  /// least `bytes`: a block of exactly that size when it is longer than a
  /// block.
  void StartBlock(size_t bytes) {
    const size_t size = std::max(bytes, kBlockBytes);
    Block* block = static_cast<Block*>(::operator new(sizeof(Block) + size));
    block->next = blocks_;
    blocks_ = block;
    cur_ = reinterpret_cast<char*>(block + 1);
    end_ = cur_ + size;
  }

  /// A copy of `text` in the arena; empty text takes no space.
  std::string_view Copy(std::string_view text) {
    if (text.empty()) return {};
    char* chars = static_cast<char*>(Allocate(text.size()));
    std::memcpy(chars, text.data(), text.size());
    return {chars, text.size()};
  }

 private:
  struct Block {
    Block* next;
  };
  static_assert(sizeof(Block) % 8 == 0);

  Arena(char* cur, char* end) : cur_(cur), end_(end) {}

  /// Starts a block for a run that does not fit the current one.
  void* AllocateSlow(size_t bytes) {
    StartBlock(bytes);
    void* run = cur_;
    cur_ += bytes;
    return run;
  }

  char* cur_;
  char* end_;
  /// Blocks after the first, newest first.
  Block* blocks_ = nullptr;
};

size_t JsonValue::TreeBytes(const Node& node) {
  size_t bytes = 0;
  switch (node.kind) {
    case Kind::kString:
      bytes = Arena::Rounded(node.size);
      break;
    case Kind::kArray:
      bytes = node.size * sizeof(JsonValue);
      for (uint32_t i = 0; i < node.size; ++i) {
        bytes += TreeBytes(node.items[i].node_);
      }
      break;
    case Kind::kObject:
      bytes = node.size * sizeof(Member);
      for (uint32_t i = 0; i < node.size; ++i) {
        bytes += Arena::Rounded(node.members[i].first.size()) +
                 TreeBytes(node.members[i].second.node_);
      }
      break;
    default:
      break;
  }
  return bytes;
}

JsonValue::Node JsonValue::Clone(const Node& node, Arena* arena) {
  static_assert(std::is_trivially_copyable_v<Node>);
  Node out = node;
  if (node.size == 0) return out;  // a scalar, or nothing to copy
  switch (node.kind) {
    case Kind::kString:
      out.chars = arena->Copy({node.chars, node.size}).data();
      break;
    case Kind::kArray: {
      JsonValue* items = static_cast<JsonValue*>(
          arena->Allocate(node.size * sizeof(JsonValue)));
      for (uint32_t i = 0; i < node.size; ++i) {
        new (items + i) JsonValue(Clone(node.items[i].node_, arena));
      }
      out.items = items;
      break;
    }
    case Kind::kObject: {
      Member* members =
          static_cast<Member*>(arena->Allocate(node.size * sizeof(Member)));
      for (uint32_t i = 0; i < node.size; ++i) {
        const Member& m = node.members[i];
        new (members + i)
            Member(arena->Copy(m.first), JsonValue(Clone(m.second.node_, arena)));
      }
      out.members = members;
      break;
    }
    default:
      break;
  }
  return out;
}

JsonValue::JsonValue(const JsonValue& other) : node_(other.node_) {
  const size_t bytes = TreeBytes(other.node_);
  if (bytes == 0) return;  // the node is the whole value
  arena_ = Arena::Create(bytes);
  node_ = Clone(other.node_, arena_);
}

JsonValue& JsonValue::operator=(const JsonValue& other) {
  if (this != &other) *this = JsonValue(other);
  return *this;
}

JsonValue::JsonValue(JsonValue&& other) noexcept
    : node_(other.node_), arena_(std::exchange(other.arena_, nullptr)) {
  if (arena_ != nullptr) other.node_ = Node();
}

JsonValue& JsonValue::operator=(JsonValue&& other) noexcept {
  if (this != &other) {
    if (arena_ != nullptr) Arena::Destroy(arena_);
    node_ = other.node_;
    arena_ = std::exchange(other.arena_, nullptr);
    if (arena_ != nullptr) other.node_ = Node();
  }
  return *this;
}

JsonValue::~JsonValue() {
  if (arena_ != nullptr) Arena::Destroy(arena_);
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members()) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<std::string> JsonValue::GetString(std::string_view key,
                                         std::string fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a string");
  }
  return std::string(v->string_value());
}

Result<uint64_t> JsonValue::GetUint(std::string_view key,
                                    uint64_t fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a number");
  }
  const double n = v->number_value();
  if (n < 0 || n != std::floor(n) || n > 9.007199254740992e15) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a non-negative integer");
  }
  return static_cast<uint64_t>(n);
}

Result<bool> JsonValue::GetBool(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a boolean");
  }
  return v->bool_value();
}

JsonValue JsonValue::MakeBool(bool b) {
  Node node;
  node.kind = Kind::kBool;
  node.boolean = b;
  return JsonValue(node);
}

JsonValue JsonValue::MakeNumber(double n) {
  return JsonValue(Node{.kind = Kind::kNumber, .number = n});
}

// The string and container factories describe their argument with a view
// and return a copy of it, which owns an arena sized to fit.

JsonValue JsonValue::MakeString(std::string s) {
  const JsonValue view(Node{.kind = Kind::kString,
                            .size = static_cast<uint32_t>(s.size()),
                            .chars = s.data()});
  return JsonValue(view);
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  const JsonValue view(Node{.kind = Kind::kArray,
                            .size = static_cast<uint32_t>(items.size()),
                            .items = items.data()});
  return JsonValue(view);
}

JsonValue JsonValue::MakeObject(
    std::vector<std::pair<std::string, JsonValue>> members) {
  std::vector<Member> run;
  run.reserve(members.size());
  for (auto& [key, value] : members) run.emplace_back(key, std::move(value));
  const JsonValue view(Node{.kind = Kind::kObject,
                            .size = static_cast<uint32_t>(run.size()),
                            .members = run.data()});
  return JsonValue(view);
}

/// The recursive-descent parser. Each container collects its children on
/// a stack the parser reuses (nested containers push above their parent's
/// children) and copies them into the arena as one run when it closes.
/// Internal steps return false after recording the first error.
class JsonParser {
 public:
  JsonParser(std::string_view text, size_t max_depth)
      : begin_(text.data()),
        p_(text.data()),
        end_(text.data() + text.size()),
        max_depth_(max_depth) {}

  ~JsonParser() {
    if (arena_ != nullptr) Arena::Destroy(arena_);
  }
  JsonParser(const JsonParser&) = delete;
  JsonParser& operator=(const JsonParser&) = delete;

  Result<JsonValue> Parse() {
    Node root;
    if (!ParseDocument(&root)) return error_;
    JsonValue value(root);
    value.arena_ = std::exchange(arena_, nullptr);
    return value;
  }

 private:
  using Kind = JsonValue::Kind;
  using Node = JsonValue::Node;
  using Arena = JsonValue::Arena;
  using Member = JsonValue::Member;

  /// An object member whose value is not in the arena yet.
  struct PendingMember {
    std::string_view key;
    Node value;
  };

  /// Integers of at most this many digits are below 2^53, so converting
  /// them digit by digit is exact and needs no from_chars.
  static constexpr size_t kMaxExactDigits = 15;

  bool Fail(const char* why) {
    error_ = Status::ParseError("JSON error at byte " +
                                std::to_string(p_ - begin_) + ": " + why);
    return false;
  }

  /// The tree's arena, made on first use.
  Arena& arena() {
    if (arena_ == nullptr) arena_ = Arena::Create(Arena::kBlockBytes);
    return *arena_;
  }

  void SkipWs() {
    if (p_ != end_ && static_cast<unsigned char>(*p_) > ' ') return;
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (static_cast<size_t>(end_ - p_) >= word.size() &&
        std::memcmp(p_, word.data(), word.size()) == 0) {
      p_ += word.size();
      return true;
    }
    return false;
  }

  bool AtDigit() const {
    return p_ != end_ && static_cast<unsigned char>(*p_ - '0') < 10;
  }

  void SkipDigits() {
    while (AtDigit()) ++p_;
  }

  bool ParseDocument(Node* root) {
    if (static_cast<size_t>(end_ - begin_) >
        std::numeric_limits<uint32_t>::max()) {
      return Fail("document larger than 4 GiB");
    }
    SkipWs();
    if (!ParseValue(root, 0)) return false;
    SkipWs();
    return p_ == end_ || Fail("trailing characters after the JSON document");
  }

  bool ParseValue(Node* out, size_t depth) {
    if (depth > max_depth_) return Fail("nesting too deep");
    if (p_ == end_) return Fail("unexpected end of input");
    switch (*p_) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': {
        std::string_view s;
        if (!ParseString(&s)) return false;
        out->kind = Kind::kString;
        out->size = static_cast<uint32_t>(s.size());
        out->chars = s.data();
        return true;
      }
      case 't':
        if (!ConsumeWord("true")) return Fail("invalid literal");
        out->kind = Kind::kBool;
        out->boolean = true;
        return true;
      case 'f':
        if (!ConsumeWord("false")) return Fail("invalid literal");
        out->kind = Kind::kBool;
        return true;
      case 'n':
        if (!ConsumeWord("null")) return Fail("invalid literal");
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(Node* out, size_t depth) {
    ++p_;  // '{'
    out->kind = Kind::kObject;
    out->members = nullptr;
    SkipWs();
    if (Consume('}')) return true;
    const size_t base = members_.size();
    while (true) {
      SkipWs();
      if (p_ == end_ || *p_ != '"') return Fail("expected a string object key");
      PendingMember member;
      if (!ParseString(&member.key)) return false;
      SkipWs();
      if (!Consume(':')) return Fail("expected ':' after object key");
      SkipWs();
      if (!ParseValue(&member.value, depth + 1)) return false;
      members_.push_back(member);
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Fail("expected ',' or '}' in object");
    }
    const size_t n = members_.size() - base;
    Member* run = static_cast<Member*>(arena().Allocate(n * sizeof(Member)));
    for (size_t i = 0; i < n; ++i) {
      const PendingMember& m = members_[base + i];
      new (run + i) Member(m.key, JsonValue(m.value));
    }
    members_.resize(base);
    out->size = static_cast<uint32_t>(n);
    out->members = run;
    return true;
  }

  bool ParseArray(Node* out, size_t depth) {
    ++p_;  // '['
    out->kind = Kind::kArray;
    out->items = nullptr;
    SkipWs();
    if (Consume(']')) return true;
    const size_t base = items_.size();
    if (depth < max_depth_ && AtDigit() && ParseIntegerRow(out)) return true;
    while (true) {
      SkipWs();
      Node item;
      // Result rows are arrays of integers: parse those without dispatch.
      if (depth < max_depth_ && AtDigit()) {
        if (!ParseNumber(&item)) return false;
      } else if (!ParseValue(&item, depth + 1)) {
        return false;
      }
      items_.push_back(item);
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Fail("expected ',' or ']' in array");
    }
    const size_t n = items_.size() - base;
    JsonValue* run =
        static_cast<JsonValue*>(arena().Allocate(n * sizeof(JsonValue)));
    for (size_t i = 0; i < n; ++i) new (run + i) JsonValue(items_[base + i]);
    items_.resize(base);
    out->size = static_cast<uint32_t>(n);
    out->items = run;
    return true;
  }

  /// Reads the items of a result row, an array of short unsigned
  /// integers, from p_ (at its first item) straight into the arena's free
  /// tail. Returns true with the array in `out` and p_ past its ']'. At
  /// the first item that is not an integer of at most kMaxExactDigits
  /// digits followed at once by ',' or ']' (a sign, fraction, exponent,
  /// whitespace, a longer integer or any other value), returns false with
  /// the items before it on items_ and p_ at it, so the general loop goes
  /// on from there and reports any error as it would have.
  bool ParseIntegerRow(Node* out) {
    Arena& a = arena();
    size_t bytes = 0;
    JsonValue* run = reinterpret_cast<JsonValue*>(a.Tail(&bytes));
    size_t capacity = bytes / sizeof(JsonValue);
    size_t n = 0;
    const char* p = p_;
    const char* const end = end_;
    while (p != end && static_cast<unsigned char>(*p - '0') < 10) {
      const char* const item = p;
      uint64_t value = static_cast<uint64_t>(*p++ - '0');
      if (value != 0) {
        while (p != end && static_cast<unsigned char>(*p - '0') < 10 &&
               static_cast<size_t>(p - item) <= kMaxExactDigits) {
          value = value * 10 + static_cast<uint64_t>(*p++ - '0');
        }
      }
      if (p == end || (*p != ',' && *p != ']') ||
          static_cast<size_t>(p - item) > kMaxExactDigits) {
        p = item;
        break;
      }
      if (n == capacity) {
        // Move the row to a block with room for twice as many items.
        a.StartBlock(2 * n * sizeof(JsonValue));
        JsonValue* moved = reinterpret_cast<JsonValue*>(a.Tail(&bytes));
        for (size_t i = 0; i < n; ++i) new (moved + i) JsonValue(run[i].node_);
        run = moved;
        capacity = bytes / sizeof(JsonValue);
      }
      new (run + n++) JsonValue(
          Node{.kind = Kind::kNumber, .number = static_cast<double>(value)});
      if (*p++ == ']') {
        a.Take(n * sizeof(JsonValue));
        out->size = static_cast<uint32_t>(n);
        out->items = run;
        p_ = p;
        return true;
      }
    }
    for (size_t i = 0; i < n; ++i) items_.push_back(run[i].node_);
    p_ = p;
    return false;
  }

  /// Parses the string at p_ into the arena. Text without escapes is
  /// copied straight from the input; otherwise it is decoded into a
  /// scratch buffer first.
  bool ParseString(std::string_view* text) {
    ++p_;  // '"'
    const char* const start = p_;
    while (p_ != end_ && *p_ != '"' && *p_ != '\\' &&
           static_cast<unsigned char>(*p_) >= 0x20) {
      ++p_;
    }
    if (p_ != end_ && *p_ == '"') {
      *text = arena().Copy({start, static_cast<size_t>(p_ - start)});
      ++p_;
      return true;
    }
    std::string* out = &scratch_;
    out->assign(start, p_);
    while (true) {
      if (p_ == end_) return Fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(*p_);
      if (c == '"') {
        ++p_;
        *text = arena().Copy(*out);
        return true;
      }
      if (c < 0x20) return Fail("unescaped control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++p_;
        continue;
      }
      ++p_;  // backslash
      if (p_ == end_) return Fail("truncated escape");
      const char esc = *p_++;
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t code = 0;
          if (!ParseHex4(&code)) return false;
          // Surrogate pair?
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u') {
              return Fail("unpaired high surrogate");
            }
            p_ += 2;
            uint32_t low = 0;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Fail("unpaired low surrogate");
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
  }

  bool ParseHex4(uint32_t* out) {
    if (end_ - p_ < 4) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = *p_++;
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<uint32_t>(c - 'A' + 10);
      else return Fail("invalid \\u escape digit");
    }
    *out = value;
    return true;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  /// Checks the JSON number grammar, then converts the accepted span: a
  /// short integer digit by digit (accumulated while its digits are
  /// checked), anything else with std::from_chars, which rounds exactly
  /// as strtod does. An overflow is an error; an underflow reads as
  /// strtod returns it.
  bool ParseNumber(Node* out) {
    const char* const start = p_;
    const bool negative = Consume('-');
    if (!AtDigit()) return Fail("invalid number");
    const char* const int_begin = p_;
    uint64_t n = 0;  // wraps past 19 digits, but is then unused
    if (*p_ == '0') {
      ++p_;
    } else {
      do {
        n = n * 10 + static_cast<uint64_t>(*p_ - '0');
        ++p_;
      } while (AtDigit());
    }
    const char* const int_end = p_;
    if (Consume('.')) {
      if (!AtDigit()) return Fail("invalid number: missing fraction digits");
      SkipDigits();
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (!AtDigit()) return Fail("invalid number: missing exponent digits");
      SkipDigits();
    }
    out->kind = Kind::kNumber;
    if (p_ == int_end &&
        static_cast<size_t>(int_end - int_begin) <= kMaxExactDigits) {
      // Result rows are short integers, and those are exact in a double.
      const double value = static_cast<double>(n);
      out->number = negative ? -value : value;
      return true;
    }
    double value = 0.0;
    const auto [end, ec] = std::from_chars(start, p_, value);
    if (ec == std::errc::result_out_of_range) {
      // from_chars reports underflow and overflow alike. Only hostile
      // input gets here, so let strtod tell them apart: underflow reads
      // as a (signed) zero or subnormal, overflow as an infinity.
      value = std::strtod(std::string(start, p_).c_str(), nullptr);
    } else if (ec != std::errc() || end != p_) {
      return Fail("number out of range");
    }
    if (!std::isfinite(value)) return Fail("number out of range");
    out->number = value;
    return true;
  }

  const char* const begin_;
  const char* p_;
  const char* const end_;
  const size_t max_depth_;
  Status error_;
  /// The arena of the tree being built; handed to the root on success.
  Arena* arena_ = nullptr;
  /// Children of the containers still open, innermost last.
  std::vector<Node> items_;
  std::vector<PendingMember> members_;
  /// Decoding buffer for strings with escapes.
  std::string scratch_;
};

Result<JsonValue> ParseJson(std::string_view text, size_t max_depth) {
  return JsonParser(text, max_depth).Parse();
}

}  // namespace net
}  // namespace sjos
