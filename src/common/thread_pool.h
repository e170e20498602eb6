// A small shared worker pool for deterministic fan-out of pure work items.
//
// The pool exists for one pattern: a caller holds an indexed batch of
// independent, side-effect-free tasks (candidate-move scorings, failure
// scenarios), wants them executed on several cores, and must get results
// that are byte-identical to running the same batch sequentially. So
// ParallelFor hands out *indices*, not partitions: workers self-schedule
// from an atomic cursor, every invocation writes only to its own index's
// slot, and the caller aggregates sequentially afterwards. Which thread ran
// which index can vary run to run; what was computed cannot.
//
// The calling thread always participates as worker 0, so ParallelFor(n, 1,
// fn) never touches the pool threads at all and a parallelism of p uses at
// most p - 1 pool workers. Batches are serialized: concurrent ParallelFor
// calls from different threads queue behind an internal run mutex rather
// than interleaving (the library's callers fan out one search or one
// resilience sweep at a time; nesting is a bug, not a use case).
//
// Submit/Wait is the asynchronous complement (groundwork for the
// work-stealing scheduler on the ROADMAP): fire-and-forget tasks drained by
// the pool workers, joined explicitly with Wait(). Because a submitted task
// may run *after* the submitting scope has returned, by-reference captures
// in a Submit lambda must outlive the matching Wait — dblayout check's
// capture-escape rule enforces exactly that.
//
// Locking discipline: all queue/batch coordination state is guarded by
// `mu_` and annotated DBLAYOUT_GUARDED_BY so both dblayout check's
// lock-discipline rule and Clang's -Wthread-safety verify every access.

#ifndef DBLAYOUT_COMMON_THREAD_POOL_H_
#define DBLAYOUT_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace dblayout {

class ThreadPool {
 public:
  /// A pool with `num_workers` background threads (>= 0; 0 makes every
  /// ParallelFor run inline on the caller and every Submit run eagerly).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// The process-wide pool, sized to the hardware (hardware_concurrency - 1
  /// background workers, at least 1), created on first use. Callers that
  /// were configured with num_threads == 1 should not touch it.
  static ThreadPool& Shared();

  /// Runs fn(index, worker) for every index in [0, n). `worker` is in
  /// [0, min(parallelism, num_workers() + 1)) and is stable for the duration
  /// of one invocation on one thread, so callers may give each worker its
  /// own scratch state. The caller's thread is always worker 0. Blocks until
  /// every index has been processed. fn must not throw and must not call
  /// back into ParallelFor.
  void ParallelFor(int64_t n, int parallelism,
                   const std::function<void(int64_t index, int worker)>& fn);

  /// Enqueues one independent task for asynchronous execution on the pool
  /// workers (run inline immediately when the pool has no workers). The task
  /// must not throw. Anything the task captures by reference must stay alive
  /// until a Wait() call on this pool returns — enqueue-then-return-early is
  /// the capture-lifetime hazard dblayout check's capture-escape rule flags.
  void Submit(std::function<void()> task);

  /// Blocks until every task Submit()ed so far has finished. The calling
  /// thread helps drain the queue, so Wait() makes progress even on a
  /// saturated pool. Tasks submitted concurrently with Wait by *other*
  /// threads may or may not be covered; the intended pattern is
  /// submit-many-then-wait from one owner.
  void Wait();

 private:
  /// One ParallelFor invocation's shared state. `next` is the self-scheduling
  /// cursor; `joined`/`finished` (guarded by the pool's mu_) track pool
  /// workers so the caller can wait for the last helper to leave `fn` before
  /// returning. (The fields cannot carry DBLAYOUT_GUARDED_BY themselves:
  /// the guarding mutex lives in the enclosing pool, not in the batch.)
  struct Batch {
    int64_t n = 0;
    const std::function<void(int64_t, int)>* fn = nullptr;
    int helpers = 0;  ///< max pool workers that may join
    std::atomic<int64_t> next{0};
    int joined = 0;    ///< pool workers that claimed a worker id (mu_)
    int finished = 0;  ///< pool workers done draining (mu_)
  };

  void WorkerLoop();

  Mutex run_mu_;  ///< serializes ParallelFor invocations
  Mutex mu_;
  CondVar work_cv_;  ///< workers wait for a batch, a task, or shutdown
  CondVar done_cv_;  ///< Wait()ers / the batch caller wait for completions
  Batch* batch_ DBLAYOUT_GUARDED_BY(mu_) = nullptr;
  bool shutdown_ DBLAYOUT_GUARDED_BY(mu_) = false;
  std::deque<std::function<void()>> tasks_ DBLAYOUT_GUARDED_BY(mu_);
  int tasks_running_ DBLAYOUT_GUARDED_BY(mu_) = 0;
  // dblayout-check(unannotated-mutex-field): written only in the constructor and joined in the destructor, strictly before/after any worker runs; never touched concurrently
  std::vector<std::thread> workers_;
};

}  // namespace dblayout

#endif  // DBLAYOUT_COMMON_THREAD_POOL_H_
