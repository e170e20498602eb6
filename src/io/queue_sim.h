// Request-level disk simulator: a second, independent stand-in for physical
// hardware, finer-grained than the aggregate stream model in disk_sim.h.
//
// Each pipeline stream is a closed-loop client walking a physical extent
// (sequentially or scattered) one I/O request at a time; the drive services
// one request at a time under a C-LOOK elevator schedule with a
// distance-dependent seek curve (settle + k*sqrt(distance)) plus rotational
// latency. The aggregate model and the analytic cost model are validated
// against this simulator in bench_costmodel.

#ifndef DBLAYOUT_IO_QUEUE_SIM_H_
#define DBLAYOUT_IO_QUEUE_SIM_H_

#include <cstdint>
#include <vector>

#include "io/fault_model.h"
#include "storage/block_map.h"
#include "storage/disk.h"

namespace dblayout {

struct QueueSimOptions {
  /// Transient-error retry model. Each service attempt of a request may
  /// fail with retry.transient_error_rate; failed attempts pay an
  /// exponential backoff (capped) and replay the transfer in place. After
  /// retry.max_retries failed retries the request is abandoned (counted in
  /// io/requests_abandoned) so degraded runs always terminate.
  RetryPolicy retry;
};

/// One closed-loop client stream on a drive.
struct QueueStream {
  ObjectExtent extent;    ///< physical region the stream walks
  int64_t blocks = 0;     ///< total blocks to transfer (may exceed the extent
                          ///< for repeated passes; wraps around)
  bool write = false;
  bool rmw = false;       ///< each block is read and written back in place
  bool random = false;    ///< scattered single-block requests within the extent
  uint64_t seed = 1;      ///< randomness for scattered patterns
};

/// Queue statistics of one SimulateQueueDisk call, for drive-heat
/// attribution (obs/attribution). The queue depth is sampled once per
/// elevator sweep: the number of outstanding requests the scheduler sorted
/// into that sweep (closed-loop clients keep one request in flight each, so
/// this is the drive's instantaneous concurrency).
struct QueueSimStats {
  int64_t requests = 0;  ///< requests serviced
  int64_t sweeps = 0;    ///< elevator sweeps executed
  double busy_ms = 0;    ///< total elapsed (equals the return value)
  double queue_depth_mean = 0;
  int64_t queue_depth_max = 0;
};

/// Elapsed ms for drive `d` to service all streams concurrently. The
/// distance-dependent seek curve is calibrated so that the expected seek
/// over uniformly random positions equals d.seek_ms. When `stats` is
/// non-null it receives the call's queue statistics.
double SimulateQueueDisk(const DiskDrive& d, const std::vector<QueueStream>& streams,
                         const QueueSimOptions& options = {},
                         QueueSimStats* stats = nullptr);

}  // namespace dblayout

#endif  // DBLAYOUT_IO_QUEUE_SIM_H_
