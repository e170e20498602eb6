#include "io/disk_sim.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dblayout {

namespace {

/// Expected retry inflation for the aggregate model: every service
/// millisecond scales by the expected attempts per request, and every
/// request charges the expected backoff delay. Requests are counted the way
/// the drive would issue them (single-block for scattered access, one
/// prefetch chunk for sequential runs), so the inflation is comparable to
/// what the request-level simulator draws stochastically.
double ApplyRetryInflation(double time_ms, const std::vector<DiskStream>& streams,
                           const SimOptions& options) {
  if (!options.retry.active() || time_ms <= 0) return time_ms;
  const int64_t chunk = std::max<int64_t>(1, options.prefetch_blocks);
  int64_t requests = 0;
  for (const auto& s : streams) {
    if (s.blocks <= 0) continue;
    requests += s.random ? s.blocks : (s.blocks + chunk - 1) / chunk;
  }
  const double inflated = time_ms * options.retry.ExpectedAttempts() +
                          static_cast<double>(requests) *
                              options.retry.ExpectedBackoffMs();
  DBLAYOUT_OBS_OBSERVE("io/retry_inflation_ms", inflated - time_ms);
  return inflated;
}

}  // namespace

double SimulateDiskStreams(const DiskDrive& d, const std::vector<DiskStream>& streams,
                           const SimOptions& options, DiskSimStats* stats) {
  DBLAYOUT_OBS_COUNT("io/disk_streams", static_cast<int64_t>(streams.size()));
  double time_ms = 0;
  DiskSimStats local;

  // Random streams: every block is a scattered access; read-ahead cannot
  // help, and their seeks dominate any interleaving effects.
  std::vector<const DiskStream*> sequential;
  for (const auto& s : streams) {
    if (s.blocks <= 0) continue;
    ++local.streams;
    const double ms_per_block = d.AccessMsPerBlock(s.write, s.rmw);
    if (s.random) {
      ++local.random_streams;
      local.seeks += s.blocks;
      local.seek_ms += static_cast<double>(s.blocks) * d.seek_ms;
      local.transfer_ms += static_cast<double>(s.blocks) * ms_per_block;
      time_ms += static_cast<double>(s.blocks) * (d.seek_ms + ms_per_block);
    } else {
      ++local.sequential_streams;
      sequential.push_back(&s);
    }
  }
  if (sequential.empty()) {
    if (stats != nullptr) *stats = local;
    return ApplyRetryInflation(time_ms, streams, options);
  }

  // Single sequential stream: one positioning seek, then pure transfer.
  if (sequential.size() == 1) {
    const DiskStream& s = *sequential[0];
    const double ms_per_block = d.AccessMsPerBlock(s.write, s.rmw);
    time_ms += d.seek_ms + static_cast<double>(s.blocks) * ms_per_block;
    local.seeks += 1;
    local.seek_ms += d.seek_ms;
    local.transfer_ms += static_cast<double>(s.blocks) * ms_per_block;
    if (stats != nullptr) *stats = local;
    return ApplyRetryInflation(time_ms, streams, options);
  }

  // Multiple co-accessed sequential streams: proportional round-robin. Each
  // round the smallest stream advances one prefetch chunk and every other
  // stream advances proportionally to its size, so all streams exhaust after
  // a similar number of rounds (the pipelined operator consumes its inputs
  // together). Every switch of the head between streams costs a seek.
  const int64_t chunk = std::max<int64_t>(1, options.prefetch_blocks);
  int64_t min_blocks = sequential.front()->blocks;
  for (const auto* s : sequential) min_blocks = std::min(min_blocks, s->blocks);

  struct Active {
    int64_t remaining;
    int64_t quantum;
    double ms_per_block;
  };
  std::vector<Active> active;
  active.reserve(sequential.size());
  for (const auto* s : sequential) {
    Active a;
    a.remaining = s->blocks;
    const double ratio =
        static_cast<double>(s->blocks) / static_cast<double>(min_blocks);
    a.quantum = std::max<int64_t>(1, static_cast<int64_t>(std::llround(
                                         static_cast<double>(chunk) * ratio)));
    a.ms_per_block = d.AccessMsPerBlock(s->write, s->rmw);
    active.push_back(a);
  }

  size_t last_serviced = active.size();  // sentinel: no stream serviced yet
  bool any_left = true;
  while (any_left) {
    any_left = false;
    for (size_t i = 0; i < active.size(); ++i) {
      Active& a = active[i];
      if (a.remaining <= 0) continue;
      const int64_t t = std::min(a.quantum, a.remaining);
      if (last_serviced != i) {  // head moved
        time_ms += d.seek_ms;
        local.seeks += 1;
        local.seek_ms += d.seek_ms;
      }
      time_ms += static_cast<double>(t) * a.ms_per_block;
      local.transfer_ms += static_cast<double>(t) * a.ms_per_block;
      a.remaining -= t;
      last_serviced = i;
      if (a.remaining > 0) any_left = true;
    }
  }
  if (stats != nullptr) *stats = local;
  return ApplyRetryInflation(time_ms, streams, options);
}

double SimulatePipeline(const DiskFleet& fleet,
                        const std::vector<std::vector<DiskStream>>& per_disk_streams,
                        const SimOptions& options) {
  DBLAYOUT_TRACE_SPAN("io/simulate_pipeline");
  DBLAYOUT_CHECK(static_cast<int>(per_disk_streams.size()) == fleet.num_disks());
  double max_ms = 0;
  for (int j = 0; j < fleet.num_disks(); ++j) {
    max_ms = std::max(max_ms, SimulateDiskStreams(
                                  fleet.disk(j),
                                  per_disk_streams[static_cast<size_t>(j)], options));
  }
  return max_ms;
}

}  // namespace dblayout
