// A small, dependency-free XML parser covering the subset the experiments
// need: elements, attributes, character data, comments, processing
// instructions, XML declarations, CDATA, and the five predefined entities.
// Attributes are materialized as child elements tagged "@name" so that
// pattern queries can address them structurally (the Timber convention).

#ifndef SJOS_XML_PARSER_H_
#define SJOS_XML_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "xml/document.h"

namespace sjos {

/// Parsing knobs.
struct ParseOptions {
  /// Materialize attributes as "@name" child elements (with their value as
  /// text). When false, attributes are parsed and discarded.
  bool keep_attributes = true;
  /// Keep character data as node text. When false, text is discarded
  /// (smaller documents when only structure matters).
  bool keep_text = true;
};

/// Parses a whole XML document from `input`. Returns the Document or a
/// ParseError with a byte offset and reason.
Result<Document> ParseXml(std::string_view input,
                          const ParseOptions& options = {});

/// Reads `path` and parses it.
Result<Document> ParseXmlFile(const std::string& path,
                              const ParseOptions& options = {});

}  // namespace sjos

#endif  // SJOS_XML_PARSER_H_
