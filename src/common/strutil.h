// Small string utilities: printf-style formatting into std::string, the one
// "%.*g" number writer and the number readers every input boundary shares,
// join, split, case folding, and fixed-width table rendering used by the
// bench harnesses to print paper-style tables.

#ifndef DBLAYOUT_COMMON_STRUTIL_H_
#define DBLAYOUT_COMMON_STRUTIL_H_

#include <cstdint>
#include <optional>
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

/// The value strtod reads from `text` when it reads all of it: leading
/// white space, a sign, decimal or hex digits, "nan" and "inf" included.
/// An overflow reads as ±inf and an underflow as a subnormal or zero, so
/// every caller range-checks the value itself. Empty text, trailing bytes
/// (white space and NUL included) and no digits at all give nullopt.
std::optional<double> ParseDouble(std::string_view text);

/// The value of `text` as a base-10 integer of type T (int, int64_t or
/// uint64_t), in strtol's syntax: leading white space, an optional sign,
/// then digits and nothing after them. Gives nullopt when the value does
/// not fit T (never a wrapped or saturated value) and for any '-' when T
/// is unsigned.
template <typename T>
std::optional<T> ParseInt(std::string_view text);

/// `v` truncated toward zero when it lies in [-2^63, 2^63), where the
/// conversion is defined; nullopt for anything else, NaN included.
std::optional<int64_t> ToInt64(double v);

/// The run of non-white-space bytes in `s` at or after `*pos` (empty at
/// the end of `s`); moves `*pos` past it.
std::string_view NextField(std::string_view s, size_t* pos);

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
