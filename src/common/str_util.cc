#include "common/str_util.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace sjos {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t begin = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t b = 0;
  size_t e = text.size();
  while (b < e && (text[b] == ' ' || text[b] == '\t' || text[b] == '\n' ||
                   text[b] == '\r')) {
    ++b;
  }
  while (e > b && (text[e - 1] == ' ' || text[e - 1] == '\t' ||
                   text[e - 1] == '\n' || text[e - 1] == '\r')) {
    --e;
  }
  return text.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string FormatDouble(double v, int decimals) {
  return StrFormat("%.*f", decimals, v);
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

}  // namespace sjos
