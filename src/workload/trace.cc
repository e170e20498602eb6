#include "workload/trace.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/strutil.h"

namespace dblayout {

Result<std::vector<TraceEvent>> ParseTraceEvents(const std::string& text) {
  std::vector<TraceEvent> events;
  int lineno = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++lineno;
    const std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    // timestamp  session  sql-to-end-of-line, split at white space
    size_t pos = 0;
    const std::optional<double> ts = ParseDouble(NextField(line, &pos));
    if (!ts) {
      return Status::ParseError(
          StrFormat("trace line %d: expected timestamp", lineno));
    }
    // The stable_sort below needs a strict weak order, which NaN breaks.
    if (!std::isfinite(*ts)) {
      return Status::ParseError(
          StrFormat("trace line %d: timestamp is not a finite number", lineno));
    }
    const std::optional<int> session = ParseInt<int>(NextField(line, &pos));
    if (!session) {
      return Status::ParseError(
          StrFormat("trace line %d: expected session id", lineno));
    }
    std::string sql = Trim(line.substr(pos));
    if (!sql.empty() && sql.back() == ';') sql.pop_back();
    if (sql.empty()) {
      return Status::ParseError(StrFormat("trace line %d: empty statement", lineno));
    }
    events.push_back(TraceEvent{*ts, *session, std::move(sql)});
  }
  if (events.empty()) {
    return Status::InvalidArgument("trace contains no events");
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.timestamp_ms < b.timestamp_ms;
                   });
  return events;
}

Result<Workload> WorkloadFromTrace(const std::string& name, const std::string& text,
                                   const TraceOptions& options) {
  DBLAYOUT_ASSIGN_OR_RETURN(std::vector<TraceEvent> events, ParseTraceEvents(text));
  Workload wl(name);
  if (options.sessions_as_streams) {
    // Dense stream ids in order of first appearance; event order preserved
    // (statements in a stream run serially in trace order).
    std::map<int, int> stream_of;
    for (const TraceEvent& e : events) {
      auto [it, inserted] =
          stream_of.emplace(e.session_id, static_cast<int>(stream_of.size()) + 1);
      DBLAYOUT_RETURN_NOT_OK(wl.Add(e.sql, 1.0, it->second));
      (void)inserted;
    }
    return wl;
  }
  // Set-of-statements model: aggregate identical texts into weights.
  std::map<std::string, double> weight_of;
  std::vector<std::string> order;
  for (const TraceEvent& e : events) {
    auto [it, inserted] = weight_of.emplace(e.sql, 0.0);
    if (inserted) order.push_back(e.sql);
    it->second += 1.0;
  }
  for (const std::string& sql : order) {
    DBLAYOUT_RETURN_NOT_OK(wl.Add(sql, weight_of[sql]));
  }
  return wl;
}

}  // namespace dblayout
