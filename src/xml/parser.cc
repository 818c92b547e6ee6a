#include "xml/parser.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "xml/builder.h"

namespace sjos {

namespace {

/// Recursive-descent scanner over the raw bytes. Single pass, no lookaside
/// allocations except the entity-decoded text buffer.
class XmlScanner {
 public:
  XmlScanner(std::string_view input, const ParseOptions& options)
      : in_(input), options_(options) {}

  Result<Document> Parse() {
    SkipProlog();
    if (!error_.ok()) return error_;
    if (!AtStartTag()) {
      return Fail("expected root element");
    }
    ParseElement();
    if (!error_.ok()) return error_;
    SkipMisc();
    if (!error_.ok()) return error_;
    if (pos_ != in_.size()) {
      return Fail("trailing content after root element");
    }
    return std::move(builder_).Build();
  }

 private:
  bool Eof() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  bool Match(std::string_view token) {
    if (in_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  Status Fail(const std::string& why) {
    if (error_.ok()) {
      error_ = Status::ParseError(
          StrFormat("%s (at byte %zu)", why.c_str(), pos_));
    }
    return error_;
  }

  void SkipWhitespace() {
    while (!Eof() && std::isspace(static_cast<unsigned char>(Peek()))) ++pos_;
  }

  bool AtStartTag() const {
    return pos_ < in_.size() && in_[pos_] == '<' && pos_ + 1 < in_.size() &&
           (std::isalpha(static_cast<unsigned char>(in_[pos_ + 1])) ||
            in_[pos_ + 1] == '_');
  }

  /// Consumes <?...?>, <!--...-->, <!DOCTYPE...>, and whitespace before the
  /// root element.
  void SkipProlog() {
    for (;;) {
      SkipWhitespace();
      if (Match("<?")) {
        SkipUntil("?>");
      } else if (Match("<!--")) {
        SkipUntil("-->");
      } else if (Match("<!DOCTYPE")) {
        SkipDoctype();
      } else {
        return;
      }
      if (!error_.ok()) return;
    }
  }

  /// Consumes comments/PIs/whitespace after the root element.
  void SkipMisc() {
    for (;;) {
      SkipWhitespace();
      if (Match("<?")) {
        SkipUntil("?>");
      } else if (Match("<!--")) {
        SkipUntil("-->");
      } else {
        return;
      }
      if (!error_.ok()) return;
    }
  }

  void SkipUntil(std::string_view terminator) {
    size_t found = in_.find(terminator, pos_);
    if (found == std::string_view::npos) {
      Fail(StrFormat("unterminated construct, expected '%s'",
                     std::string(terminator).c_str()));
      pos_ = in_.size();
      return;
    }
    pos_ = found + terminator.size();
  }

  /// DOCTYPE may contain a bracketed internal subset; skip to the matching
  /// top-level '>'.
  void SkipDoctype() {
    int bracket_depth = 0;
    while (!Eof()) {
      char c = Peek();
      ++pos_;
      if (c == '[') ++bracket_depth;
      if (c == ']') --bracket_depth;
      if (c == '>' && bracket_depth == 0) return;
    }
    Fail("unterminated DOCTYPE");
  }

  std::string_view ScanName() {
    size_t begin = pos_;
    while (!Eof()) {
      char c = Peek();
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-' || c == '.' || c == ':') {
        ++pos_;
      } else {
        break;
      }
    }
    return in_.substr(begin, pos_ - begin);
  }

  /// Decodes the predefined entities and numeric character references into
  /// `out` (non-ASCII code points are UTF-8 encoded).
  void AppendDecoded(std::string_view raw, std::string* out) {
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out->push_back(raw[i]);
        ++i;
        continue;
      }
      size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) {
        out->push_back(raw[i]);
        ++i;
        continue;
      }
      std::string_view ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "lt") {
        out->push_back('<');
      } else if (ent == "gt") {
        out->push_back('>');
      } else if (ent == "amp") {
        out->push_back('&');
      } else if (ent == "apos") {
        out->push_back('\'');
      } else if (ent == "quot") {
        out->push_back('"');
      } else if (!ent.empty() && ent[0] == '#') {
        uint32_t cp = 0;
        bool hex = ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X');
        for (size_t k = hex ? 2 : 1; k < ent.size(); ++k) {
          char c = ent[k];
          uint32_t digit;
          if (c >= '0' && c <= '9') {
            digit = static_cast<uint32_t>(c - '0');
          } else if (hex && c >= 'a' && c <= 'f') {
            digit = static_cast<uint32_t>(c - 'a' + 10);
          } else if (hex && c >= 'A' && c <= 'F') {
            digit = static_cast<uint32_t>(c - 'A' + 10);
          } else {
            cp = 0xFFFD;
            break;
          }
          cp = cp * (hex ? 16 : 10) + digit;
        }
        AppendUtf8(cp, out);
      } else {
        // Unknown entity: keep it verbatim (lenient mode).
        out->append(raw.substr(i, semi - i + 1));
      }
      i = semi + 1;
    }
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  void ParseAttributes(
      std::vector<std::pair<std::string, std::string>>* attrs) {
    for (;;) {
      SkipWhitespace();
      if (Eof() || Peek() == '>' || Peek() == '/' || Peek() == '?') return;
      std::string_view name = ScanName();
      if (name.empty()) {
        Fail("expected attribute name");
        return;
      }
      SkipWhitespace();
      if (Eof() || Peek() != '=') {
        Fail("expected '=' after attribute name");
        return;
      }
      ++pos_;
      SkipWhitespace();
      if (Eof() || (Peek() != '"' && Peek() != '\'')) {
        Fail("expected quoted attribute value");
        return;
      }
      char quote = Peek();
      ++pos_;
      size_t begin = pos_;
      size_t end = in_.find(quote, pos_);
      if (end == std::string_view::npos) {
        Fail("unterminated attribute value");
        return;
      }
      pos_ = end + 1;
      // Well-formedness: no attribute name may appear twice on one element.
      for (const auto& existing : *attrs) {
        if (existing.first == name) {
          Fail(StrFormat("duplicate attribute '%s'",
                         std::string(name).c_str()));
          return;
        }
      }
      std::string value;
      AppendDecoded(in_.substr(begin, end - begin), &value);
      attrs->emplace_back(std::string(name), std::move(value));
    }
  }

  void ParseElement() {
    // Caller guarantees we're at '<' followed by a name start char.
    ++pos_;  // consume '<'
    std::string_view name = ScanName();
    if (name.empty()) {
      Fail("expected element name");
      return;
    }
    builder_.OpenElement(name);

    std::vector<std::pair<std::string, std::string>> attrs;
    ParseAttributes(&attrs);
    if (!error_.ok()) return;
    if (options_.keep_attributes) {
      for (const auto& [aname, avalue] : attrs) {
        builder_.OpenElement("@" + aname);
        if (options_.keep_text) builder_.Text(avalue);
        builder_.CloseElement();
      }
    }

    SkipWhitespace();
    if (Match("/>")) {
      builder_.CloseElement();
      return;
    }
    if (Eof() || Peek() != '>') {
      Fail("expected '>' to close start tag");
      return;
    }
    ++pos_;

    ParseContent(name);
    if (!error_.ok()) return;
    builder_.CloseElement();
  }

  /// Parses children + text until the matching end tag of `open_name`.
  void ParseContent(std::string_view open_name) {
    for (;;) {
      if (Eof()) {
        Fail(StrFormat("unexpected end of input inside <%s>",
                       std::string(open_name).c_str()));
        return;
      }
      if (Peek() != '<') {
        size_t begin = pos_;
        size_t lt = in_.find('<', pos_);
        if (lt == std::string_view::npos) lt = in_.size();
        if (options_.keep_text) {
          std::string text;
          AppendDecoded(in_.substr(begin, lt - begin), &text);
          std::string_view trimmed = Trim(text);
          if (!trimmed.empty()) builder_.Text(trimmed);
        }
        pos_ = lt;
        continue;
      }
      if (Match("<!--")) {
        SkipUntil("-->");
        if (!error_.ok()) return;
        continue;
      }
      if (Match("<![CDATA[")) {
        size_t begin = pos_;
        size_t end = in_.find("]]>", pos_);
        if (end == std::string_view::npos) {
          Fail("unterminated CDATA section");
          return;
        }
        if (options_.keep_text) {
          builder_.Text(in_.substr(begin, end - begin));
        }
        pos_ = end + 3;
        continue;
      }
      if (Match("<?")) {
        SkipUntil("?>");
        if (!error_.ok()) return;
        continue;
      }
      if (Match("</")) {
        std::string_view name = ScanName();
        SkipWhitespace();
        if (Eof() || Peek() != '>') {
          Fail("expected '>' in end tag");
          return;
        }
        ++pos_;
        if (name != open_name) {
          Fail(StrFormat("mismatched end tag </%s>, open element is <%s>",
                         std::string(name).c_str(),
                         std::string(open_name).c_str()));
        }
        return;
      }
      if (AtStartTag()) {
        ParseElement();
        if (!error_.ok()) return;
        continue;
      }
      Fail("unexpected '<'");
      return;
    }
  }

  std::string_view in_;
  const ParseOptions& options_;
  size_t pos_ = 0;
  DocumentBuilder builder_;
  Status error_;
};

}  // namespace

Result<Document> ParseXml(std::string_view input, const ParseOptions& options) {
  SJOS_FAILPOINT("xml.parse");
  XmlScanner scanner(input, options);
  return scanner.Parse();
}

Result<Document> ParseXmlFile(const std::string& path,
                              const ParseOptions& options) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::string content = buffer.str();
  return ParseXml(content, options);
}

}  // namespace sjos
