// Work-stealing thread pool for CPU-bound fan-out, sized for the write
// path's chunk naming (the paper's "offloading the computationally
// intensive hashing" future work).
//
// A batch is n independent index-addressed tasks. Post() queues it and
// returns a Ticket at once; workers steal indices one at a time from a
// shared cursor (so a straggler never serializes the rest behind a static
// partition), and Await() blocks until every index has run, running any
// index no worker has claimed on the awaiting thread — so a 0-worker or
// saturated pool still finishes. ParallelFor is Await(Post(...)). Results
// are written to caller-preallocated slots, so output order is the index
// order no matter which thread ran what — the determinism the committed
// chunk map relies on.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"

namespace stdchk {

class HashPool {
  struct Batch;  // one posted batch (below)

 public:
  // Pool for `threads`-way parallelism: spawns threads-1 persistent
  // workers, since an awaiting caller joins its own batch (0 = caller
  // only; values < 0 mean hardware concurrency).
  explicit HashPool(int threads);
  ~HashPool();

  HashPool(const HashPool&) = delete;
  HashPool& operator=(const HashPool&) = delete;

  // Process-wide pool sized to hardware concurrency, created on first use.
  // Sessions share it: hashing is CPU-bound, so one pool per process is the
  // right amount of parallelism regardless of how many writes are open.
  static HashPool& Shared();

  // The shared "how many threads does N mean" rule: values <= 0 resolve to
  // hardware concurrency (min 1). Used by the pool's own sizing and by
  // callers resolving a requested fan-out (ClientOptions::hash_workers).
  static int ResolveThreads(int threads);

  int worker_threads() const { return static_cast<int>(workers_.size()); }

  // Handle on a posted batch; done() is true (and the tasks' writes are
  // visible) once every index has run.
  class Ticket {
   public:
    bool done() const;

   private:
    friend class HashPool;
    std::shared_ptr<Batch> batch_;  // null: ran inline in Post()
  };

  // Queues fn(0) .. fn(n-1) to run across up to `max_workers` threads
  // (including a later awaiting thread) and returns without waiting. fn
  // must be safe to call concurrently for distinct indices, and what it
  // captures must outlive the batch: await every ticket. max_workers <= 1,
  // n == 0 or an empty pool run the batch inline as a plain serial loop on
  // the calling thread — bit-for-bit the serial path, no pool machinery.
  Ticket Post(std::size_t n, int max_workers,
              std::function<void(std::size_t)> fn) EXCLUDES(mu_);

  // Blocks until the ticket's batch has finished, running indices no
  // worker has claimed on the calling thread.
  void Await(const Ticket& ticket) EXCLUDES(mu_);

  // Await(Post(...)); a single index gains nothing from a helper.
  void ParallelFor(std::size_t n, int max_workers,
                   const std::function<void(std::size_t)>& fn) EXCLUDES(mu_) {
    Await(Post(n, n > 1 ? max_workers : 1, fn));
  }

  // Largest number of threads ParallelFor could use for a batch of n under
  // this pool (caller + joinable workers).
  int EffectiveWorkers(std::size_t n, int max_workers) const;

 private:
  // One posted batch. Threads claim indices via next.fetch_add (the
  // stealing cursor); the last finisher signals awaiting callers.
  struct Batch {
    std::function<void(std::size_t)> fn;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    int max_helpers = 0;          // workers allowed to join
    std::atomic<int> helpers{0};  // workers that joined
  };

  void WorkerLoop() EXCLUDES(mu_);
  // Claims and runs indices until the batch is drained; returns whether this
  // thread ran the batch's final task.
  bool RunShare(Batch& batch);
  // Pops drained batches off the queue's front and returns the first batch
  // with unclaimed indices and helper headroom (nullptr if none). Helpers
  // never leave a batch, so a non-joinable batch stays that way and wait
  // loops over this cannot busy-spin.
  std::shared_ptr<Batch> JoinableLocked() REQUIRES(mu_);

  Mutex mu_{LockRank::kHashPool, 0, "hash_pool"};
  CondVar work_cv_;  // workers: a batch was queued / stop
  CondVar done_cv_;  // callers: a batch completed
  std::deque<std::shared_ptr<Batch>> batches_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace stdchk
