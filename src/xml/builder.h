// SAX-style document construction: OpenElement/Text/CloseElement events in
// document order. The builder assigns pre-order numbering as it goes; Build()
// finalizes and validates the tree.

#ifndef SJOS_XML_BUILDER_H_
#define SJOS_XML_BUILDER_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/document.h"

namespace sjos {

/// Incrementally builds a Document. Usage:
///
///   DocumentBuilder b;
///   b.OpenElement("dblp");
///     b.OpenElement("article");
///       b.OpenElement("title"); b.Text("..."); b.CloseElement();
///     b.CloseElement();
///   b.CloseElement();
///   Result<Document> doc = std::move(b).Build();
///
/// A document has exactly one root element. Events after the root closes,
/// or an unbalanced Close, surface as errors from Build().
class DocumentBuilder {
 public:
  DocumentBuilder();

  /// Starts a new element with tag `name` as the next child in document
  /// order. Returns the new node's id.
  NodeId OpenElement(std::string_view name);

  /// Attaches text to the currently open element (concatenating with any
  /// text already attached).
  void Text(std::string_view text);

  /// Closes the most recently opened element.
  void CloseElement();

  /// Number of nodes created so far.
  size_t NumNodes() const { return doc_.tags_.size(); }

  /// Finalizes the document. Fails if the event stream was malformed
  /// (unbalanced opens/closes, multiple roots, no root).
  Result<Document> Build() &&;

 private:
  Document doc_;
  std::vector<NodeId> stack_;
  bool saw_root_ = false;
  Status error_;
};

}  // namespace sjos

#endif  // SJOS_XML_BUILDER_H_
