#include "obs/journal.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/clock.h"

namespace dblayout::obs {

std::string JsonString(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonInt(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

std::string JsonBool(bool v) { return v ? "true" : "false"; }

std::string JsonDouble(double v) {
  // JSON has no NaN/Inf; journals carry costs and timings, which are finite
  // by construction, but degrade gracefully rather than emit invalid JSON.
  if (!(v == v)) return "null";
  if (v > 1.7e308) return "1e308";
  if (v < -1.7e308) return "-1e308";
  char buf[64];
  // Shortest round-trip: try successively longer precisions; %.17g is exact
  // for every finite double, so the loop always terminates with a faithful
  // representation and short values stay diff-friendly.
  for (int prec = 6; prec <= 17; prec += prec < 15 ? 9 : 1) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string JsonIntArray(const std::vector<int>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out.push_back(',');
    out += JsonInt(v[i]);
  }
  out.push_back(']');
  return out;
}

EventJournal::EventJournal(JournalOptions options)
    : options_(options),
      epoch_ns_(options.wall_clock ? MonotonicNowNs() : 0) {}

void EventJournal::Append(const char* type, const JournalFields& fields) {
  MutexLock lock(mu_);
  std::string line = "{\"ev\":";
  line += JsonString(type);
  if (options_.wall_clock) {
    line += ",\"t_us\":";
    line += JsonInt(static_cast<int64_t>((MonotonicNowNs() - epoch_ns_) / 1000));
  }
  for (const auto& [key, value] : fields) {
    line.push_back(',');
    line += JsonString(key);
    line.push_back(':');
    line += value;
  }
  line.push_back('}');
  lines_.push_back(std::move(line));
}

int64_t EventJournal::event_count() const {
  MutexLock lock(mu_);
  return static_cast<int64_t>(lines_.size());
}

std::string EventJournal::Serialize() const {
  MutexLock lock(mu_);
  std::string out;
  size_t total = 0;
  for (const std::string& line : lines_) total += line.size() + 1;
  out.reserve(total);
  for (const std::string& line : lines_) {
    out += line;
    out.push_back('\n');
  }
  return out;
}

Status EventJournal::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open journal output file: " + path);
  }
  out << Serialize();
  out.close();
  if (!out) {
    return Status::Internal("failed writing journal output file: " + path);
  }
  return Status::OK();
}

}  // namespace dblayout::obs
