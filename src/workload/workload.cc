#include "workload/workload.h"

#include <cmath>
#include <functional>

#include "common/logging.h"
#include "common/strutil.h"
#include "sql/parser.h"

namespace dblayout {

Status Workload::Add(const std::string& sql, double weight, int stream) {
  if (!(std::isfinite(weight) && weight > 0)) {
    return Status::InvalidArgument(
        StrFormat("weight %g is not a finite positive number", weight));
  }
  auto parsed = ParseSql(sql);
  if (!parsed.ok()) return parsed.status();
  statements_.push_back(
      WorkloadStatement{sql, weight, stream, std::move(parsed).value()});
  return Status::OK();
}

bool Workload::HasConcurrencyStreams() const {
  for (const auto& s : statements_) {
    if (s.stream > 0) return true;
  }
  return false;
}

namespace {

/// Shared script walker for FromScript / FromScriptLenient: splits on ';' /
/// GO while tracking `-- weight:` / `-- stream:` directives and 1-based line
/// numbers. A ';' splits only outside single-quoted literals (which may span
/// lines, with '' as an escaped quote, as Tokenize reads them) and outside
/// `--` comments; a line inside a literal is literal text, never a directive
/// or comment. A GO line ends the statement even inside a literal, so a
/// stray quote absorbs at most the rest of its GO batch; the error of a
/// statement whose literal is still open says how far the literal ran.
/// Every parse failure goes through `on_error(text, line, status)`, which
/// returns OK to keep walking (lenient mode) or a status — typically the
/// original re-wrapped with file:line context — to abort (strict mode).
Status WalkScript(
    const std::string& script, Workload& wl,
    const std::function<Status(const std::string&, int, const Status&)>& on_error) {
  double pending_weight = 1.0;
  int pending_stream = 0;
  std::string current;
  int line_no = 0;
  int stmt_start_line = 0;  ///< line where the accumulating statement began
  bool in_literal = false;  ///< inside a quoted literal at the current byte
  int literal_line = 0;     ///< line where the open literal began
  // Ends the accumulating statement at a ';', at the GO on line `go_line`,
  // or (go_line 0) at the end of the script, and closes an open literal.
  auto flush = [&](int go_line) -> Status {
    const std::string sql = Trim(current);
    const int at_line = stmt_start_line > 0 ? stmt_start_line : line_no;
    const bool open_literal = in_literal;
    current.clear();
    stmt_start_line = 0;
    in_literal = false;
    if (sql.empty()) {
      return Status::OK();
    }
    Status st = wl.Add(sql, pending_weight, pending_stream);
    pending_weight = 1.0;
    pending_stream = 0;
    if (st.ok()) return Status::OK();
    if (open_literal) {
      const std::string end = go_line > 0 ? StrFormat("the GO on line %d", go_line)
                                          : std::string("the end of the script");
      st = Status(st.code(), StrFormat("%s (the literal opened on line %d runs to %s)",
                                       st.message().c_str(), literal_line, end.c_str()));
    }
    return on_error(sql, at_line, st);
  };
  for (const std::string& raw_line : Split(script, '\n')) {
    ++line_no;
    const std::string line = Trim(raw_line);
    if (EqualsIgnoreCase(line, "go")) {
      DBLAYOUT_RETURN_NOT_OK(flush(line_no));
      continue;
    }
    // A line that continues a literal is literal text: no directive or
    // comment matches it.
    const std::string lower = in_literal ? std::string() : ToLower(line);
    // A directive's value is the whole text after its colon: a finite
    // positive weight, or a positive stream id.
    if (StartsWith(lower, "-- weight:")) {
      const std::optional<double> weight = ParseDouble(std::string_view(line).substr(10));
      if (weight && std::isfinite(*weight) && *weight > 0) {
        pending_weight = *weight;
      } else {
        DBLAYOUT_RETURN_NOT_OK(on_error(
            line, line_no,
            Status::ParseError(StrFormat("bad weight line '%s'", line.c_str()))));
        pending_weight = 1.0;
      }
      continue;
    }
    if (StartsWith(lower, "-- stream:")) {
      const std::optional<int> stream = ParseInt<int>(std::string_view(line).substr(10));
      if (stream && *stream > 0) {
        pending_stream = *stream;
      } else {
        DBLAYOUT_RETURN_NOT_OK(on_error(
            line, line_no,
            Status::ParseError(StrFormat("bad stream line '%s'", line.c_str()))));
        pending_stream = 0;
      }
      continue;
    }
    if (StartsWith(lower, "--")) continue;
    // Accumulate, splitting on each ';' outside literals and comments.
    if (stmt_start_line == 0 && !line.empty()) stmt_start_line = line_no;
    size_t begin = 0;  // start of the line's text not yet in `current`
    for (size_t i = 0; i < raw_line.size(); ++i) {
      const char c = raw_line[i];
      if (c == '\'') {
        in_literal = !in_literal;  // '' closes and reopens: an escaped quote
        if (in_literal) literal_line = line_no;
        continue;
      }
      if (in_literal) continue;
      if (c == '-' && i + 1 < raw_line.size() && raw_line[i + 1] == '-') break;
      if (c != ';') continue;
      current.append(raw_line, begin, i - begin);
      DBLAYOUT_RETURN_NOT_OK(flush(0));
      begin = i + 1;
      if (stmt_start_line == 0 && !Trim(raw_line.substr(begin)).empty()) {
        stmt_start_line = line_no;
      }
    }
    current.append(raw_line, begin);
    current += '\n';
  }
  DBLAYOUT_RETURN_NOT_OK(flush(0));
  return Status::OK();
}

}  // namespace

Result<Workload> Workload::FromScript(const std::string& name,
                                      const std::string& script) {
  Workload wl(name);
  // Strict mode: abort on the first failure, re-wrapped with file:line
  // context (same code, so callers matching on codes are unaffected).
  DBLAYOUT_RETURN_NOT_OK(WalkScript(
      script, wl,
      [&name](const std::string&, int line, const Status& st) -> Status {
        return Status(st.code(), StrFormat("%s:%d: %s", name.c_str(), line,
                                           st.message().c_str()));
      }));
  return wl;
}

Workload Workload::FromScriptLenient(const std::string& name, const std::string& script,
                                     std::vector<ScriptError>* errors) {
  Workload wl(name);
  const Status st = WalkScript(
      script, wl,
      [errors](const std::string& text, int line, const Status& s) -> Status {
        if (errors != nullptr) {
          errors->push_back(ScriptError{text, line, s});
        }
        return Status::OK();
      });
  DBLAYOUT_CHECK(st.ok());  // the lenient walker swallows every error
  return wl;
}

double Workload::TotalWeight() const {
  double total = 0;
  for (const auto& s : statements_) total += s.weight;
  return total;
}

}  // namespace dblayout
