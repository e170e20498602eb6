#include "io/queue_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dblayout {

namespace {

/// Expected value of sqrt(|U1 - U2|) for U1, U2 uniform on [0,1]; used to
/// calibrate the seek curve so the mean random seek equals the drive's
/// advertised average seek time.
constexpr double kMeanSqrtDistance = 8.0 / 15.0;

/// Fixed per-seek overhead (head settle + controller), ms.
constexpr double kSettleMs = 1.0;
/// Spindle speed; rotational latency is half a revolution per
/// non-contiguous request.
constexpr double kRpm = 10'000;
/// Blocks per sequential I/O request (read-ahead unit). Scattered
/// accesses always issue single-block requests.
constexpr int64_t kRequestBlocks = 2;
/// Seed of the deterministic failure-draw stream (independent of the
/// per-stream address randomness).
constexpr uint64_t kFaultSeed = 0x9e3779b97f4a7c15ull;

/// Deterministic xorshift64* draw in [0, 1) for transient-failure decisions.
double NextUnitDouble(uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return static_cast<double>((state * 0x2545f4914f6cdd1dull) >> 11) * 0x1.0p-53;
}

struct StreamState {
  const QueueStream* spec = nullptr;
  int64_t remaining = 0;
  int64_t cursor = 0;        ///< next offset within the extent (sequential)
  uint64_t rng = 1;          ///< xorshift state (scattered)
  int64_t pending_addr = -1; ///< physical block of the outstanding request
  int64_t pending_size = 0;

  int64_t NextAddress() {
    const int64_t len = std::max<int64_t>(1, spec->extent.num_blocks);
    if (spec->random) {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return spec->extent.start + static_cast<int64_t>(rng % static_cast<uint64_t>(len));
    }
    const int64_t addr = spec->extent.start + cursor % len;
    return addr;
  }

  void Issue(int64_t request_blocks) {
    if (remaining <= 0) {
      pending_addr = -1;
      pending_size = 0;
      return;
    }
    const int64_t len = std::max<int64_t>(1, spec->extent.num_blocks);
    int64_t size = spec->random ? 1 : std::min(request_blocks, remaining);
    // Clip sequential requests at the extent end (then wrap).
    if (!spec->random) {
      size = std::min(size, len - cursor % len);
    }
    pending_addr = NextAddress();
    pending_size = size;
  }

  void Complete() {
    remaining -= pending_size;
    if (!spec->random) cursor += pending_size;
    pending_addr = -1;
    pending_size = 0;
  }
};

}  // namespace

double SimulateQueueDisk(const DiskDrive& d, const std::vector<QueueStream>& streams,
                         const QueueSimOptions& options, QueueSimStats* stats) {
  DBLAYOUT_TRACE_SPAN("io/queue_disk");
  if (stats != nullptr) *stats = QueueSimStats{};
  std::vector<StreamState> states;
  for (const QueueStream& s : streams) {
    if (s.blocks <= 0) continue;
    StreamState st;
    st.spec = &s;
    st.remaining = s.blocks;
    st.rng = s.seed | 1;
    st.Issue(kRequestBlocks);
    states.push_back(st);
  }
  if (states.empty()) return 0;

  // Seek curve seek(x) = settle + k*sqrt(x/C), calibrated so the average
  // over random pairs equals the advertised average seek.
  const double capacity =
      static_cast<double>(std::max<int64_t>(1, d.capacity_blocks));
  const double k_seek =
      std::max(0.0, (d.seek_ms - kSettleMs) / kMeanSqrtDistance);
  const double rotation_ms = 30'000.0 / kRpm;

  double time_ms = 0;
  int64_t head = 0;
  int64_t sweeps = 0;
  int64_t depth_sum = 0;
  int64_t depth_max = 0;
  int64_t requests_serviced = 0;
  int64_t transient_errors = 0;
  int64_t request_retries = 0;
  int64_t requests_abandoned = 0;
  uint64_t fault_rng = kFaultSeed | 1;
  const RetryPolicy& retry = options.retry;

  // Fair elevator sweeps: each sweep services exactly one outstanding
  // request per active stream, in ascending address order (every client
  // keeps one request in flight; the scheduler cannot starve a stream by
  // staying at the head, which is what closed-loop pipelined operators
  // enforce through their own pacing).
  for (;;) {
    std::vector<StreamState*> batch;
    for (StreamState& st : states) {
      if (st.pending_addr >= 0) batch.push_back(&st);
    }
    if (batch.empty()) break;
    ++sweeps;
    depth_sum += static_cast<int64_t>(batch.size());
    depth_max = std::max(depth_max, static_cast<int64_t>(batch.size()));
    std::sort(batch.begin(), batch.end(), [](const StreamState* a,
                                             const StreamState* b) {
      return a->pending_addr < b->pending_addr;
    });
    for (StreamState* st : batch) {
      const int64_t addr = st->pending_addr;
      const int64_t size = st->pending_size;
      const int64_t dist = std::llabs(addr - head);
      if (dist != 0) {
        // Reposition: seek over the distance plus half a rotation.
        time_ms += kSettleMs +
                   k_seek * std::sqrt(static_cast<double>(dist) / capacity) +
                   rotation_ms;
      }
      const double ms_per_block = d.AccessMsPerBlock(st->spec->write, st->spec->rmw);
      time_ms += static_cast<double>(size) * ms_per_block;
      if (retry.active()) {
        // Each service attempt may fail; a failed attempt backs off
        // (exponentially, capped) and replays the transfer in place — the
        // head is already positioned, so no reseek. Attempts are bounded:
        // after max_retries failed retries the request is abandoned, which
        // keeps degraded runs terminating with finite, measurable latency.
        int attempt = 1;
        while (NextUnitDouble(fault_rng) < retry.transient_error_rate) {
          ++transient_errors;
          if (attempt > retry.max_retries) {
            ++requests_abandoned;
            break;
          }
          time_ms += retry.BackoffDelayMs(attempt) +
                     static_cast<double>(size) * ms_per_block;
          ++request_retries;
          ++attempt;
        }
      }
      head = addr + size;
      ++requests_serviced;
      st->Complete();
    }
    for (StreamState* st : batch) st->Issue(kRequestBlocks);
  }
  // Accumulated locally (one request per elevator-sweep slot), flushed once:
  // the sweep loop stays free of global atomics.
  DBLAYOUT_OBS_COUNT("io/queue_requests", requests_serviced);
  if (transient_errors > 0) {
    DBLAYOUT_OBS_COUNT("io/transient_errors", transient_errors);
    DBLAYOUT_OBS_COUNT("io/request_retries", request_retries);
  }
  if (requests_abandoned > 0) {
    DBLAYOUT_OBS_COUNT("io/requests_abandoned", requests_abandoned);
  }
  if (stats != nullptr) {
    stats->requests = requests_serviced;
    stats->sweeps = sweeps;
    stats->busy_ms = time_ms;
    stats->queue_depth_mean =
        sweeps > 0 ? static_cast<double>(depth_sum) / static_cast<double>(sweeps)
                   : 0;
    stats->queue_depth_max = depth_max;
  }
  return time_ms;
}

}  // namespace dblayout
