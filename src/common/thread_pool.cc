#include "common/thread_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace dblayout {

ThreadPool::ThreadPool(int num_workers) {
  DBLAYOUT_CHECK(num_workers >= 0);
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()) - 1));
  return pool;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Batch* b = nullptr;
    int worker = 0;
    {
      MutexLock lock(mu_);
      while (!shutdown_ &&
             (batch_ == nullptr || batch_->joined >= batch_->helpers)) {
        work_cv_.Wait(lock);
      }
      if (shutdown_) return;
      b = batch_;
      worker = ++b->joined;  // claim a worker id under mu_; ids 1..helpers
    }
    int64_t i;
    while ((i = b->next.fetch_add(1, std::memory_order_relaxed)) < b->n) {
      (*b->fn)(i, worker);
    }
    {
      MutexLock lock(mu_);
      ++b->finished;
    }
    done_cv_.NotifyAll();
  }
}

void ThreadPool::ParallelFor(
    int64_t n, int parallelism,
    const std::function<void(int64_t index, int worker)>& fn) {
  if (n <= 0) return;
  const int p = std::clamp(parallelism, 1, num_workers() + 1);
  // One worker (the caller) or one item: nothing to fan out.
  if (p <= 1 || n == 1) {
    for (int64_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }

  MutexLock run_lock(run_mu_);
  Batch b;
  b.n = n;
  b.fn = &fn;
  b.helpers = static_cast<int>(
      std::min<int64_t>(static_cast<int64_t>(p) - 1, n - 1));
  {
    MutexLock lock(mu_);
    batch_ = &b;
  }
  work_cv_.NotifyAll();

  // The caller drains as worker 0 alongside the pool workers.
  int64_t i;
  while ((i = b.next.fetch_add(1, std::memory_order_relaxed)) < b.n) {
    fn(i, 0);
  }

  {
    MutexLock lock(mu_);
    while (b.finished != b.joined) done_cv_.Wait(lock);
    // Unpublish under mu_: any worker whose wait predicate fires afterwards
    // sees batch_ == nullptr, so no late joiner can touch the dead Batch.
    batch_ = nullptr;
  }
}

}  // namespace dblayout
