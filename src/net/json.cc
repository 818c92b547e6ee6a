#include "net/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

namespace sjos {
namespace net {

struct JsonValue::Side {
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> members;
};

static_assert(sizeof(JsonValue) <= 48,
              "JsonValue must stay small: result frames hold ~1e5 numbers");

JsonValue::JsonValue(const JsonValue& other)
    : kind_(other.kind_),
      bool_(other.bool_),
      number_(other.number_),
      array_(other.array_),
      side_(other.side_ == nullptr ? nullptr
                                   : std::make_unique<Side>(*other.side_)) {}

JsonValue& JsonValue::operator=(const JsonValue& other) {
  if (this != &other) *this = JsonValue(other);
  return *this;
}

JsonValue::JsonValue(JsonValue&& other) noexcept = default;
JsonValue& JsonValue::operator=(JsonValue&& other) noexcept = default;
JsonValue::JsonValue() = default;
JsonValue::~JsonValue() = default;

JsonValue::Side& JsonValue::MakeSide() {
  if (side_ == nullptr) side_ = std::make_unique<Side>();
  return *side_;
}

const std::string& JsonValue::string_value() const {
  static const std::string kEmpty;
  return side_ == nullptr ? kEmpty : side_->string;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  static const std::vector<std::pair<std::string, JsonValue>> kEmpty;
  return side_ == nullptr ? kEmpty : side_->members;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
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
  return v->string_value();
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
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::MakeNumber(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::MakeString(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.MakeSide().string = std::move(s);
  return v;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::MakeObject(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.MakeSide().members = std::move(members);
  return v;
}

/// The recursive-descent parser. It builds each value in place: the
/// caller hands it a fresh JsonValue (an element it has just appended to
/// an array or object), so no value is parsed into a temporary and moved.
class JsonParser {
 public:
  JsonParser(std::string_view text, size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  Result<JsonValue> Parse() {
    SkipWs();
    JsonValue value;
    SJOS_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after the JSON document");
    }
    return value;
  }

 private:
  using Kind = JsonValue::Kind;

  /// Arrays in result frames are rows of a few ids; reserving this many
  /// elements up front saves the first regrowths of every row.
  static constexpr size_t kInitialArrayCapacity = 4;

  /// Integers of at most this many digits are below 2^53, so converting
  /// them digit by digit is exact and needs no from_chars.
  static constexpr size_t kMaxExactDigits = 15;

  Status Fail(const std::string& why) const {
    return Status::ParseError("JSON error at byte " + std::to_string(pos_) +
                              ": " + why);
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AtDigit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  void SkipDigits() {
    while (AtDigit()) ++pos_;
  }

  Status ParseValue(JsonValue* out, size_t depth) {
    if (depth > max_depth_) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"':
        out->kind_ = Kind::kString;
        return ParseString(&out->MakeSide().string);
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          out->kind_ = Kind::kBool;
          out->bool_ = true;
          return Status::OK();
        }
        return Fail("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          out->kind_ = Kind::kBool;
          return Status::OK();
        }
        return Fail("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          return Status::OK();
        }
        return Fail("invalid literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, size_t depth) {
    ++pos_;  // '{'
    out->kind_ = Kind::kObject;
    std::vector<std::pair<std::string, JsonValue>>& members =
        out->MakeSide().members;
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected a string object key");
      }
      std::pair<std::string, JsonValue>& member = members.emplace_back();
      SJOS_RETURN_IF_ERROR(ParseString(&member.first));
      SkipWs();
      if (!Consume(':')) return Fail("expected ':' after object key");
      SkipWs();
      SJOS_RETURN_IF_ERROR(ParseValue(&member.second, depth + 1));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Fail("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, size_t depth) {
    ++pos_;  // '['
    out->kind_ = Kind::kArray;
    std::vector<JsonValue>& items = out->array_;
    SkipWs();
    if (Consume(']')) return Status::OK();
    items.reserve(kInitialArrayCapacity);
    while (true) {
      SkipWs();
      SJOS_RETURN_IF_ERROR(ParseValue(&items.emplace_back(), depth + 1));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Fail("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Fail("unescaped control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return Fail("truncated escape");
      const char esc = text_[pos_++];
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
          SJOS_RETURN_IF_ERROR(ParseHex4(&code));
          // Surrogate pair?
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("unpaired high surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            SJOS_RETURN_IF_ERROR(ParseHex4(&low));
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

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<uint32_t>(c - 'A' + 10);
      else return Fail("invalid \\u escape digit");
    }
    *out = value;
    return Status::OK();
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
  /// short integer digit by digit, anything else with std::from_chars,
  /// which rounds exactly as strtod does. An overflow is an error; an
  /// underflow reads as strtod returns it.
  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    const bool negative = Consume('-');
    if (!AtDigit()) return Fail("invalid number");
    const size_t int_begin = pos_;
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      SkipDigits();
    }
    const size_t int_end = pos_;
    if (Consume('.')) {
      if (!AtDigit()) return Fail("invalid number: missing fraction digits");
      SkipDigits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!AtDigit()) return Fail("invalid number: missing exponent digits");
      SkipDigits();
    }
    out->kind_ = Kind::kNumber;
    if (pos_ == int_end && int_end - int_begin <= kMaxExactDigits) {
      // Result rows are short integers, and those are exact in a double.
      uint64_t n = 0;
      for (size_t i = int_begin; i < int_end; ++i) {
        n = n * 10 + static_cast<uint64_t>(text_[i] - '0');
      }
      const double value = static_cast<double>(n);
      out->number_ = negative ? -value : value;
      return Status::OK();
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double value = 0.0;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::result_out_of_range) {
      // from_chars reports underflow and overflow alike. Only hostile
      // input gets here, so let strtod tell them apart: underflow reads
      // as a (signed) zero or subnormal, overflow as an infinity.
      value = std::strtod(std::string(first, last).c_str(), nullptr);
    } else if (ec != std::errc() || end != last) {
      return Fail("number out of range");
    }
    if (!std::isfinite(value)) return Fail("number out of range");
    out->number_ = value;
    return Status::OK();
  }

  std::string_view text_;
  size_t max_depth_;
  size_t pos_ = 0;
};

Result<JsonValue> ParseJson(std::string_view text, size_t max_depth) {
  return JsonParser(text, max_depth).Parse();
}

void AppendJsonString(std::string_view text, std::string* out) {
  static constexpr char kHexDigits[] = "0123456789abcdef";
  out->push_back('"');
  for (unsigned char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (c < 0x20) {
          const char escape[] = {'\\', 'u', '0', '0', kHexDigits[c >> 4],
                                 kHexDigits[c & 0xF]};
          out->append(escape, sizeof(escape));
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

void AppendJsonUint(uint64_t value, std::string* out) {
  char digits[20];
  const char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  out->append(digits, static_cast<size_t>(end - digits));
}

}  // namespace net
}  // namespace sjos
