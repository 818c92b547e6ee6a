// Small string helpers shared by the parser, printers, and benches, and
// the one JSON string writer: every JSON the repo emits (wire responses,
// metrics and trace exports, the audit log, bench reports) writes its
// strings through AppendJsonString.

#ifndef SJOS_COMMON_STR_UTIL_H_
#define SJOS_COMMON_STR_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sjos {

/// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Formats like printf into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders `v` with `decimals` digits after the point (fixed notation).
std::string FormatDouble(double v, int decimals);

/// Appends `text` JSON-escaped (quotes included) to `*out`. Control
/// characters use the short escapes where JSON has one (\b \f \n \r \t)
/// and \u00XX otherwise; input is treated as raw bytes.
void AppendJsonString(std::string_view text, std::string* out);

/// Renders a uint64 exactly (a double would corrupt large node ids).
void AppendJsonUint(uint64_t value, std::string* out);

}  // namespace sjos

#endif  // SJOS_COMMON_STR_UTIL_H_
