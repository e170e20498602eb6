#include "service/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/strutil.h"
#include "obs/json.h"

namespace dblayout {

namespace {

using obs::JsonValue;

void AppendStatementArray(const std::vector<StatementSnapshot>& statements,
                          std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < statements.size(); ++i) {
    if (i > 0) out->push_back(',');
    const StatementSnapshot& s = statements[i];
    out->append("{\"sql\":");
    obs::AppendJsonString(out, s.sql);
    out->append(",\"weight\":");
    obs::AppendJsonDouble(out, s.weight);
    out->append(",\"stream\":");
    obs::AppendJsonInt(out, s.stream);
    out->push_back('}');
  }
  out->push_back(']');
}

/// Bytes the serialized snapshot takes, give or take its escapes: the
/// texts plus a bound on every number and key.
size_t SerializedSizeHint(const ServiceSnapshot& snapshot) {
  constexpr size_t kStatementBytes = 64;  // keys, weight, stream
  constexpr size_t kSessionBytes = 512;   // keys and counters
  size_t bytes = 256 + snapshot.config_fingerprint.size();
  for (const SessionSnapshot& s : snapshot.sessions) {
    bytes += kSessionBytes + s.degraded_reason.size() + s.active_csv.size() +
             s.last_good_csv.size() + s.candidate_csv.size() +
             25 * s.adopted_shares.size();
    for (const auto* statements : {&s.profile, &s.pending}) {
      for (const StatementSnapshot& statement : *statements) {
        bytes += kStatementBytes + statement.sql.size();
      }
    }
  }
  return bytes;
}

/// Reads member `key` of `v` into `*out` as an integer in T's range:
/// `fallback` when absent, an InvalidArgument naming `key` when present and
/// not such an integer.
template <typename T>
Status ReadInt(const JsonValue& v, const char* key, T fallback, T* out) {
  const Result<int64_t> i =
      v.IntOr(key, fallback, std::numeric_limits<T>::min(), std::numeric_limits<T>::max());
  if (!i.ok()) return Status::InvalidArgument("checkpoint " + i.status().message());
  *out = static_cast<T>(*i);
  return Status::OK();
}

Result<std::vector<StatementSnapshot>> ParseStatementArray(
    const JsonValue& parent, const std::string& key) {
  const JsonValue* arr = parent.Find(key);
  if (arr == nullptr || !arr->is_array()) {
    return Status::InvalidArgument(
        StrFormat("checkpoint session is missing the '%s' array", key.c_str()));
  }
  std::vector<StatementSnapshot> out;
  out.reserve(arr->array().size());
  for (const JsonValue& v : arr->array()) {
    if (!v.is_object() || v.Find("sql") == nullptr) {
      return Status::InvalidArgument(StrFormat(
          "checkpoint '%s' entry is not a statement object", key.c_str()));
    }
    StatementSnapshot s;
    s.sql = v.StringOr("sql", "");
    s.weight = v.NumberOr("weight", 1.0);
    DBLAYOUT_RETURN_NOT_OK(ReadInt(v, "stream", 0, &s.stream));
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

std::string SerializeCheckpoint(const ServiceSnapshot& snapshot) {
  std::string out;
  out.reserve(SerializedSizeHint(snapshot));
  // Appends ,"name": ahead of a value.
  const auto key = [&out](const char* name) {
    out.append(",\"");
    out.append(name);
    out.append("\":");
  };
  out.append("{\"v\":");
  obs::AppendJsonInt(&out, snapshot.version);
  out.append(",\"tool\":\"dblayout-serve\"");
  key("config");
  obs::AppendJsonString(&out, snapshot.config_fingerprint);
  key("statements_consumed");
  obs::AppendJsonInt(&out, snapshot.statements_consumed);
  key("windows_closed");
  obs::AppendJsonInt(&out, snapshot.windows_closed);
  key("sessions");
  out.push_back('[');
  for (size_t i = 0; i < snapshot.sessions.size(); ++i) {
    if (i > 0) out.push_back(',');
    const SessionSnapshot& s = snapshot.sessions[i];
    out.append("{\"id\":");
    obs::AppendJsonInt(&out, s.id);
    key("mode");
    obs::AppendJsonString(&out, s.mode);
    key("stage");
    obs::AppendJsonString(&out, s.stage);
    key("streak");
    obs::AppendJsonInt(&out, s.streak);
    key("windows_closed");
    obs::AppendJsonInt(&out, s.windows_closed);
    key("statements_ingested");
    obs::AppendJsonInt(&out, s.statements_ingested);
    key("advises");
    obs::AppendJsonInt(&out, s.advises);
    key("promotions");
    obs::AppendJsonInt(&out, s.promotions);
    key("rollbacks");
    obs::AppendJsonInt(&out, s.rollbacks);
    key("deadline_misses");
    obs::AppendJsonInt(&out, s.deadline_misses);
    key("degraded_reason");
    obs::AppendJsonString(&out, s.degraded_reason);
    key("profile");
    AppendStatementArray(s.profile, &out);
    key("pending");
    AppendStatementArray(s.pending, &out);
    key("active_csv");
    obs::AppendJsonString(&out, s.active_csv);
    key("last_good_csv");
    obs::AppendJsonString(&out, s.last_good_csv);
    key("candidate_csv");
    obs::AppendJsonString(&out, s.candidate_csv);
    key("adopted_shares");
    out.push_back('[');
    for (size_t j = 0; j < s.adopted_shares.size(); ++j) {
      if (j > 0) out.push_back(',');
      obs::AppendJsonDouble(&out, s.adopted_shares[j]);
    }
    out.append("]}");
  }
  out.append("]}\n");
  return out;
}

Result<ServiceSnapshot> ParseCheckpoint(const std::string& text) {
  DBLAYOUT_ASSIGN_OR_RETURN(JsonValue root, obs::ParseJson(text));
  if (!root.is_object()) {
    return Status::InvalidArgument("checkpoint is not a JSON object");
  }
  const JsonValue* version = root.Find("v");
  if (version == nullptr || !version->is_number()) {
    return Status::InvalidArgument(
        "checkpoint has no schema version field 'v'");
  }
  ServiceSnapshot snapshot;
  DBLAYOUT_RETURN_NOT_OK(ReadInt(root, "v", 0, &snapshot.version));
  if (snapshot.version != kCheckpointSchemaVersion) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint schema version %d is not the supported version %d",
        snapshot.version, kCheckpointSchemaVersion));
  }
  snapshot.config_fingerprint = root.StringOr("config", "");
  DBLAYOUT_RETURN_NOT_OK(
      ReadInt<int64_t>(root, "statements_consumed", -1, &snapshot.statements_consumed));
  DBLAYOUT_RETURN_NOT_OK(ReadInt<int64_t>(root, "windows_closed", 0, &snapshot.windows_closed));
  if (snapshot.statements_consumed < 0) {
    return Status::InvalidArgument(
        "checkpoint is missing 'statements_consumed'");
  }
  const JsonValue* sessions = root.Find("sessions");
  if (sessions == nullptr || !sessions->is_array()) {
    return Status::InvalidArgument("checkpoint has no 'sessions' array");
  }
  for (const JsonValue& v : sessions->array()) {
    if (!v.is_object()) {
      return Status::InvalidArgument("checkpoint session is not an object");
    }
    SessionSnapshot s;
    DBLAYOUT_RETURN_NOT_OK(ReadInt(v, "id", -1, &s.id));
    if (s.id < 0) {
      return Status::InvalidArgument("checkpoint session has no 'id'");
    }
    s.mode = v.StringOr("mode", "active");
    s.stage = v.StringOr("stage", "idle");
    DBLAYOUT_RETURN_NOT_OK(ReadInt(v, "streak", 0, &s.streak));
    DBLAYOUT_RETURN_NOT_OK(ReadInt(v, "windows_closed", 0, &s.windows_closed));
    DBLAYOUT_RETURN_NOT_OK(
        ReadInt<int64_t>(v, "statements_ingested", 0, &s.statements_ingested));
    DBLAYOUT_RETURN_NOT_OK(ReadInt(v, "advises", 0, &s.advises));
    DBLAYOUT_RETURN_NOT_OK(ReadInt(v, "promotions", 0, &s.promotions));
    DBLAYOUT_RETURN_NOT_OK(ReadInt(v, "rollbacks", 0, &s.rollbacks));
    DBLAYOUT_RETURN_NOT_OK(ReadInt(v, "deadline_misses", 0, &s.deadline_misses));
    s.degraded_reason = v.StringOr("degraded_reason", "");
    DBLAYOUT_ASSIGN_OR_RETURN(s.profile, ParseStatementArray(v, "profile"));
    DBLAYOUT_ASSIGN_OR_RETURN(s.pending, ParseStatementArray(v, "pending"));
    s.active_csv = v.StringOr("active_csv", "");
    if (s.active_csv.empty()) {
      return Status::InvalidArgument(StrFormat(
          "checkpoint session %d has no active layout", s.id));
    }
    s.last_good_csv = v.StringOr("last_good_csv", "");
    s.candidate_csv = v.StringOr("candidate_csv", "");
    if (const JsonValue* shares = v.Find("adopted_shares");
        shares != nullptr && shares->is_array()) {
      for (const JsonValue& x : shares->array()) {
        s.adopted_shares.push_back(x.number_value());
      }
    }
    snapshot.sessions.push_back(std::move(s));
  }
  return snapshot;
}

Status WriteCheckpointAtomic(const ServiceSnapshot& snapshot,
                             const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::out | std::ios::trunc);
    if (!out) {
      return Status::Internal(
          StrFormat("cannot open checkpoint temp file '%s'", tmp.c_str()));
    }
    out << SerializeCheckpoint(snapshot);
    out.flush();
    if (!out) {
      return Status::Internal(
          StrFormat("short write to checkpoint temp file '%s'", tmp.c_str()));
    }
  }
  // Same-directory rename: atomic on POSIX, so readers see either the old
  // complete checkpoint or the new complete one, never a torn file.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal(StrFormat(
        "cannot rename checkpoint '%s' over '%s'", tmp.c_str(), path.c_str()));
  }
  return Status::OK();
}

Result<ServiceSnapshot> ReadCheckpoint(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(
        StrFormat("checkpoint file '%s' does not exist", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<ServiceSnapshot> parsed = ParseCheckpoint(buffer.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint file '%s' is corrupted or truncated: %s", path.c_str(),
        parsed.status().message().c_str()));
  }
  return parsed;
}

}  // namespace dblayout
