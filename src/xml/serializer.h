// Document -> XML text. Used for round-trip tests, examples, and dumping
// generated data sets for inspection.

#ifndef SJOS_XML_SERIALIZER_H_
#define SJOS_XML_SERIALIZER_H_

#include <string>

#include "common/status.h"
#include "xml/document.h"

namespace sjos {

/// Serialization knobs.
struct SerializeOptions {
  /// Pretty-print with 2-space indentation and newlines. When false the
  /// output is a single line (canonical for round-trip tests).
  bool pretty = false;
};

/// Renders `doc` as XML text. Elements whose tag begins with '@' are
/// rendered as attributes of their parent. Text is entity-escaped.
std::string SerializeXml(const Document& doc,
                        const SerializeOptions& options = {});

}  // namespace sjos

#endif  // SJOS_XML_SERIALIZER_H_
