#include "common/hash_pool.h"

#include <algorithm>

namespace stdchk {

int HashPool::ResolveThreads(int threads) {
  if (threads > 0) return threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

HashPool::HashPool(int threads) {
  if (threads < 0) threads = ResolveThreads(threads);
  // An awaiting caller joins its own batch, so a pool for N-way
  // parallelism needs N-1 workers (0 = a caller-only pool, always serial).
  int workers = std::max(0, threads - 1);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

HashPool::~HashPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

HashPool& HashPool::Shared() {
  static HashPool pool(-1);  // hardware concurrency
  return pool;
}

int HashPool::EffectiveWorkers(std::size_t n, int max_workers) const {
  if (n <= 1 || max_workers <= 1) return 1;
  std::size_t cap = std::min<std::size_t>(
      {static_cast<std::size_t>(max_workers), workers_.size() + 1, n});
  return static_cast<int>(std::max<std::size_t>(cap, 1));
}

bool HashPool::RunShare(Batch& batch) {
  bool finished_last = false;
  for (;;) {
    std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.count) break;
    batch.fn(i);
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch.count) {
      finished_last = true;
    }
  }
  return finished_last;
}

std::shared_ptr<HashPool::Batch> HashPool::JoinableLocked() {
  while (!batches_.empty() &&
         batches_.front()->next.load(std::memory_order_relaxed) >=
             batches_.front()->count) {
    batches_.pop_front();
  }
  for (const std::shared_ptr<Batch>& c : batches_) {
    if (c->next.load(std::memory_order_relaxed) < c->count &&
        c->helpers.load(std::memory_order_relaxed) < c->max_helpers) {
      return c;
    }
  }
  return nullptr;
}

void HashPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      MutexLock lock(mu_);
      while (!stop_ && (batch = JoinableLocked()) == nullptr) {
        work_cv_.Wait(mu_);
      }
      if (stop_) return;
      // Join under the lock: max_helpers is never overshot.
      batch->helpers.fetch_add(1, std::memory_order_relaxed);
    }
    if (RunShare(*batch)) {
      {
        MutexLock lock(mu_);  // pair with Await's wait
      }
      done_cv_.NotifyAll();
    }
  }
}

bool HashPool::Ticket::done() const {
  return batch_ == nullptr ||
         batch_->done.load(std::memory_order_acquire) == batch_->count;
}

HashPool::Ticket HashPool::Post(std::size_t n, int max_workers,
                                std::function<void(std::size_t)> fn) {
  Ticket ticket;
  // The caller joins only at Await, so any index may go to a worker;
  // max_workers - 1 keeps the caller's slot.
  int helpers = std::min<int>(
      {max_workers - 1, static_cast<int>(workers_.size()),
       static_cast<int>(std::min<std::size_t>(n, 1u << 30))});
  if (helpers <= 0) {
    // Serial path, bit for bit: the pool is never touched.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return ticket;
  }

  auto batch = std::make_shared<Batch>();
  batch->fn = std::move(fn);
  batch->count = n;
  batch->max_helpers = helpers;
  {
    MutexLock lock(mu_);
    batches_.push_back(batch);
  }
  work_cv_.NotifyAll();
  ticket.batch_ = std::move(batch);
  return ticket;
}

void HashPool::Await(const Ticket& ticket) {
  if (ticket.batch_ == nullptr) return;
  Batch& batch = *ticket.batch_;
  if (RunShare(batch)) {
    done_cv_.NotifyAll();
  }
  {
    MutexLock lock(mu_);
    while (batch.done.load(std::memory_order_acquire) != batch.count) {
      done_cv_.Wait(mu_);
    }
  }
}

}  // namespace stdchk
