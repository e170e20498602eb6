// Small string utilities: printf-style formatting into std::string, the one
// "%.*g" number writer, join, split, case folding, and fixed-width table
// rendering used by the bench harnesses to print paper-style tables.

#ifndef DBLAYOUT_COMMON_STRUTIL_H_
#define DBLAYOUT_COMMON_STRUTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace dblayout {

/// printf-style formatting returning a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Appends what printf("%.*g", precision, v) prints, for precision in
/// [1, 17], through std::to_chars(..., chars_format::general, precision),
/// which the standard defines as that printf conversion.
void AppendDouble(std::string* out, double v, int precision);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Splits `s` on character `sep`; does not merge adjacent separators.
std::vector<std::string> Split(const std::string& s, char sep);

/// ASCII-lowercases `s`.
std::string ToLower(const std::string& s);

/// ToLower(a) == ToLower(b), without the copies.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// ASCII-uppercases `s`.
std::string ToUpper(const std::string& s);

/// Strips leading and trailing whitespace.
std::string Trim(const std::string& s);

/// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Renders rows as a fixed-width ASCII table with a header rule, e.g.
///   Queries   | Execution Improvement | Estimated Improvement
///   ----------+-----------------------+----------------------
///   Query 3   | 44%                   | 54%
std::string RenderTable(const std::vector<std::vector<std::string>>& rows);

}  // namespace dblayout

#endif  // DBLAYOUT_COMMON_STRUTIL_H_
