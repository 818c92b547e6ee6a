#include "xml/serializer.h"

namespace sjos {

namespace {

void AppendXmlEscaped(std::string_view text, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '<':
        *out += "&lt;";
        break;
      case '>':
        *out += "&gt;";
        break;
      case '&':
        *out += "&amp;";
        break;
      case '"':
        *out += "&quot;";
        break;
      default:
        out->push_back(c);
    }
  }
}

bool IsAttributeNode(const Document& doc, NodeId id) {
  const std::string& tag = doc.TagNameOf(id);
  return !tag.empty() && tag[0] == '@';
}

void SerializeNode(const Document& doc, NodeId id, int depth, bool pretty,
                   std::string* out) {
  auto indent = [&] {
    if (pretty) {
      out->push_back('\n');
      out->append(static_cast<size_t>(depth) * 2, ' ');
    }
  };

  indent();
  *out += '<';
  *out += doc.TagNameOf(id);

  // Leading '@' children become attributes.
  std::vector<NodeId> children = doc.ChildrenOf(id);
  std::vector<NodeId> element_children;
  for (NodeId child : children) {
    if (IsAttributeNode(doc, child)) {
      *out += ' ';
      *out += doc.TagNameOf(child).substr(1);
      *out += "=\"";
      AppendXmlEscaped(doc.TextOf(child), out);
      *out += '"';
    } else {
      element_children.push_back(child);
    }
  }

  std::string_view text = doc.TextOf(id);
  if (element_children.empty() && text.empty()) {
    *out += "/>";
    return;
  }
  *out += '>';
  AppendXmlEscaped(text, out);
  for (NodeId child : element_children) {
    SerializeNode(doc, child, depth + 1, pretty, out);
  }
  if (pretty && !element_children.empty()) {
    out->push_back('\n');
    out->append(static_cast<size_t>(depth) * 2, ' ');
  }
  *out += "</";
  *out += doc.TagNameOf(id);
  *out += '>';
}

}  // namespace

std::string SerializeXml(const Document& doc, const SerializeOptions& options) {
  std::string out;
  if (doc.Empty()) return out;
  SerializeNode(doc, doc.Root(), 0, options.pretty, &out);
  if (options.pretty) out.push_back('\n');
  // Pretty mode starts with a leading newline from the root indent; drop it.
  if (options.pretty && !out.empty() && out[0] == '\n') out.erase(0, 1);
  return out;
}

}  // namespace sjos
