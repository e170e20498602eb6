// JSON for the observability tooling and the service checkpoint: the value
// writers every journal line, report, bench record and checkpoint is built
// from, and a minimal recursive-descent parser (dblayout report reads
// journal JSONL lines and BENCH_*.json files, the journal tests re-parse
// every emitted line, --resume reads checkpoints). Objects preserve key
// order (journals are order-significant for diffing); numbers are doubles
// with an exact-int fast path. Not a general-purpose library — no
// streaming, no \uXXXX surrogate pairs beyond BMP passthrough.

#ifndef DBLAYOUT_OBS_JSON_H_
#define DBLAYOUT_OBS_JSON_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace dblayout::obs {

// Value writers (deterministic formatting). Each Append* form appends to
// `out`; the string forms return what it would append.

/// Quoted, with '"', '\\', \n, \r and \t escaped as two characters and the
/// other bytes below 0x20 as \u00xx. Every other byte is copied as is.
void AppendJsonString(std::string* out, std::string_view s);
std::string JsonString(std::string_view s);

void AppendJsonInt(std::string* out, int64_t v);
std::string JsonInt(int64_t v);

std::string JsonBool(bool v);

/// The first of "%.6g", "%.15g", "%.16g" and "%.17g" that reads back as
/// `v` (every finite double reads back from "%.17g"), so short values stay
/// short and diff-friendly. JSON has no NaN or infinity: NaN is written as
/// null, and values beyond ±1.7e308 (infinities included) as ±1e308.
void AppendJsonDouble(std::string* out, double v);
std::string JsonDouble(double v);

std::string JsonIntArray(const std::vector<int>& v);

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  /// The number as an integer in [min, max]: nullopt unless it is finite,
  /// integral and in that range (by default int64_t's). An integer literal
  /// that fits int64_t reads exactly, beyond a double's 53 bits; any other
  /// number reads through its double, range-checked before the conversion.
  std::optional<int64_t> int_value(
      int64_t min = std::numeric_limits<int64_t>::min(),
      int64_t max = std::numeric_limits<int64_t>::max()) const;
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& object() const {
    return object_;
  }

  /// First member named `key`, or nullptr. Linear scan — journal events and
  /// bench records have a handful of fields.
  const JsonValue* Find(const std::string& key) const;

  /// Convenience accessors with fallbacks for optional fields.
  double NumberOr(const std::string& key, double fallback) const;
  /// Member `key` as int_value(min, max) reads it: `fallback` when absent,
  /// an InvalidArgument naming `key` when present and not such an integer
  /// (a non-number included).
  Result<int64_t> IntOr(const std::string& key, int64_t fallback,
                        int64_t min = std::numeric_limits<int64_t>::min(),
                        int64_t max = std::numeric_limits<int64_t>::max()) const;
  std::string StringOr(const std::string& key, std::string fallback) const;
  bool BoolOr(const std::string& key, bool fallback) const;

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool v);
  static JsonValue Number(double v);
  /// A number read from an integer literal that fits int64_t: `number`
  /// is its double, `exact` the integer itself.
  static JsonValue Integer(double number, int64_t exact);
  static JsonValue String(std::string v);
  static JsonValue Array(std::vector<JsonValue> v);
  static JsonValue Object(std::vector<std::pair<std::string, JsonValue>> v);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  bool has_exact_ = false;  ///< read from an integer literal; see Integer
  int64_t exact_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses one JSON document; trailing non-whitespace is a ParseError.
/// Error messages carry a byte offset.
Result<JsonValue> ParseJson(const std::string& text);

}  // namespace dblayout::obs

#endif  // DBLAYOUT_OBS_JSON_H_
