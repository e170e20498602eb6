#include "obs/journal.h"

#include <fstream>

#include "obs/clock.h"

namespace dblayout::obs {

EventJournal::EventJournal(JournalOptions options)
    : options_(options),
      epoch_ns_(options.wall_clock ? MonotonicNowNs() : 0) {}

void EventJournal::Append(const char* type, const JournalFields& fields) {
  MutexLock lock(mu_);
  std::string line = "{\"ev\":";
  AppendJsonString(&line, type);
  if (options_.wall_clock) {
    line += ",\"t_us\":";
    AppendJsonInt(&line, static_cast<int64_t>((MonotonicNowNs() - epoch_ns_) / 1000));
  }
  for (const auto& [key, value] : fields) {
    line.push_back(',');
    AppendJsonString(&line, key);
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
