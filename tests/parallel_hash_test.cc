// The parallel chunk-naming engine: HashPool mechanics (blocking and
// posted batches), the determinism contract — for any worker count N, any
// drain timing, and any chunker, the chunk names, their order, and the
// committed chunk map must be byte-identical to the serial (N=1) path —
// and the write session's asynchronous naming window under abort and
// push failure.
#include "common/hash_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "client/chunk_planner.h"
#include "common/rng.h"
#include "core/cluster.h"

namespace stdchk {
namespace {

// ---- HashPool ---------------------------------------------------------------

TEST(HashPoolTest, RunsEveryIndexExactlyOnce) {
  HashPool pool(4);
  for (std::size_t n : {0u, 1u, 3u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, 4, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(HashPoolTest, SerialWhenMaxWorkersIsOne) {
  HashPool pool(8);
  // max_workers=1 must run entirely on the calling thread, in order.
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  std::set<std::thread::id> threads;
  pool.ParallelFor(100, 1, [&](std::size_t i) {
    threads.insert(std::this_thread::get_id());
    order.push_back(i);  // safe: single-threaded by contract
  });
  EXPECT_EQ(threads, std::set<std::thread::id>{caller});
  std::vector<std::size_t> expected(100);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(HashPoolTest, FanOutStaysWithinBounds) {
  HashPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::mutex mu;
    std::set<std::thread::id> threads;
    pool.ParallelFor(64, 8, [&](std::size_t) {
      std::lock_guard<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
    });
    EXPECT_GE(threads.size(), 1u);
    EXPECT_LE(threads.size(), 4u);  // caller + 3 workers
  }
}

TEST(HashPoolTest, ZeroThreadPoolDegradesToSerial) {
  HashPool pool(0);  // no workers at all
  EXPECT_EQ(pool.worker_threads(), 0);
  std::vector<std::atomic<int>> hits(50);
  pool.ParallelFor(50, 8, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(HashPoolTest, ConcurrentBatchesFromMultipleCallers) {
  HashPool pool(4);
  constexpr int kCallers = 4;
  constexpr std::size_t kPer = 300;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& v : hits) v = std::vector<std::atomic<int>>(kPer);

  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelFor(kPer, 3, [&, c](std::size_t i) {
        hits[static_cast<std::size_t>(c)][i].fetch_add(
            1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kPer; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(c)][i].load(), 1);
    }
  }
}

TEST(HashPoolTest, EffectiveWorkersBounds) {
  HashPool pool(4);  // 3 helper threads + caller
  EXPECT_EQ(pool.EffectiveWorkers(100, 1), 1);
  EXPECT_EQ(pool.EffectiveWorkers(1, 8), 1);
  EXPECT_EQ(pool.EffectiveWorkers(100, 2), 2);
  EXPECT_EQ(pool.EffectiveWorkers(100, 16), 4);  // pool caps at 4
  EXPECT_EQ(pool.EffectiveWorkers(3, 16), 3);    // batch caps at n
}

// Occupies every worker of `pool` until destroyed, so batches posted
// meanwhile stay unclaimed until their owner awaits them.
class PoolBlocker {
 public:
  explicit PoolBlocker(HashPool& pool)
      : pool_(pool), workers_(pool.worker_threads()) {
    ticket_ = pool_.Post(static_cast<std::size_t>(workers_), workers_ + 1,
                         [this](std::size_t) {
                           started_.fetch_add(1);
                           while (!release_.load()) std::this_thread::yield();
                         });
    while (started_.load() < workers_) std::this_thread::yield();
  }
  ~PoolBlocker() {
    release_.store(true);
    pool_.Await(ticket_);
  }

 private:
  HashPool& pool_;
  const int workers_;
  std::atomic<int> started_{0};
  std::atomic<bool> release_{false};
  HashPool::Ticket ticket_;
};

TEST(HashPoolTest, PostOnZeroWorkerPoolRunsInline) {
  HashPool pool(0);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(20, 0);
  std::set<std::thread::id> threads;
  HashPool::Ticket ticket = pool.Post(20, 8, [&](std::size_t i) {
    threads.insert(std::this_thread::get_id());
    ++hits[i];
  });
  EXPECT_TRUE(ticket.done());  // ran before Post returned
  pool.Await(ticket);
  EXPECT_EQ(threads, std::set<std::thread::id>{caller});
  EXPECT_EQ(hits, std::vector<int>(20, 1));
  EXPECT_TRUE(HashPool::Ticket().done());
  EXPECT_TRUE(pool.Post(0, 8, [](std::size_t) { ADD_FAILURE(); }).done());
}

TEST(HashPoolTest, AwaitOnSaturatedPoolRunsUnclaimedIndicesOnCaller) {
  HashPool pool(3);  // two workers
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(50);
  std::mutex mu;
  std::set<std::thread::id> threads;
  {
    PoolBlocker blocker(pool);
    HashPool::Ticket ticket = pool.Post(50, 3, [&](std::size_t i) {
      {
        std::lock_guard<std::mutex> lock(mu);
        threads.insert(std::this_thread::get_id());
      }
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_FALSE(ticket.done());  // every worker is busy
    // Would deadlock if Await only waited for workers.
    pool.Await(ticket);
    EXPECT_TRUE(ticket.done());
  }
  EXPECT_EQ(threads, std::set<std::thread::id>{caller});
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(HashPoolTest, PostedBatchesRunWithoutAnAwaiter) {
  HashPool pool(4);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(64);
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::vector<HashPool::Ticket> tickets;
  for (std::size_t b = 0; b < 8; ++b) {
    tickets.push_back(pool.Post(8, 4, [&, b](std::size_t i) {
      {
        std::lock_guard<std::mutex> lock(mu);
        threads.insert(std::this_thread::get_id());
      }
      hits[b * 8 + i].fetch_add(1, std::memory_order_relaxed);
    }));
  }
  // Workers drain the posted batches on their own.
  for (const HashPool::Ticket& t : tickets) {
    while (!t.done()) std::this_thread::yield();
  }
  for (const HashPool::Ticket& t : tickets) pool.Await(t);
  EXPECT_FALSE(threads.empty());
  EXPECT_FALSE(threads.contains(caller));
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---- Planner determinism ----------------------------------------------------

struct PlannedChunk {
  ChunkId id;
  std::size_t size;
  bool operator==(const PlannedChunk&) const = default;
};

// Streams `data` into a planner in `piece`-sized appends, draining every
// `drain_every` appends (0 = only the final drain), and names each drain
// generation on the shared pool the way the write session does: posted
// without waiting, awaited only after the next generation has been posted.
std::vector<PlannedChunk> Plan(std::shared_ptr<const Chunker> chunker,
                               int hash_workers, ByteSpan data,
                               std::size_t piece, std::size_t drain_every) {
  ChunkPlanner planner(std::move(chunker));
  HashPool& pool = HashPool::Shared();
  std::deque<std::vector<StagedChunk>> generations;
  std::vector<HashPool::Ticket> tickets;
  auto post = [&](std::vector<StagedChunk> chunks) {
    generations.push_back(std::move(chunks));
    StagedChunk* slots = generations.back().data();
    tickets.push_back(pool.Post(generations.back().size(), hash_workers,
                                [slots](std::size_t i) {
                                  slots[i].id =
                                      ChunkId::For(slots[i].data.span());
                                }));
  };
  std::size_t pos = 0, appends = 0;
  while (pos < data.size()) {
    std::size_t n = std::min(piece, data.size() - pos);
    planner.Append(data.subspan(pos, n));
    pos += n;
    if (drain_every != 0 && ++appends % drain_every == 0) {
      post(planner.Drain(/*final=*/false));
    }
  }
  post(planner.Drain(/*final=*/true));
  std::vector<PlannedChunk> out;
  for (std::size_t g = 0; g < generations.size(); ++g) {
    pool.Await(tickets[g]);
    for (StagedChunk& c : generations[g]) out.push_back({c.id, c.data.size()});
  }
  return out;
}

TEST(ParallelHashDeterminismTest, PlannerMatchesSerialAcrossWorkersAndTiming) {
  Rng rng(2026);
  Bytes data = rng.RandomBytes(512 * 1024);

  CbchParams gear;  // p == 1: the gear scan
  gear.boundary_bits_k = 10;
  CbchParams hop = gear;  // p > 1: windows straddle Feed edges
  hop.advance_p = 8;

  std::vector<std::shared_ptr<const Chunker>> chunkers = {
      std::make_shared<FixedSizeChunker>(8192),
      std::make_shared<ContentBasedChunker>(gear),
      std::make_shared<ContentBasedChunker>(hop),
  };

  for (const auto& chunker : chunkers) {
    // Serial reference: whole image, one final drain, N=1.
    std::vector<PlannedChunk> reference =
        Plan(chunker, /*hash_workers=*/1, data, data.size(), 0);
    ASSERT_GT(reference.size(), 4u) << chunker->name();

    for (int workers : {1, 2, 8}) {
      for (std::size_t piece : {4097u, 64u * 1024u}) {
        for (std::size_t drain_every : {0u, 1u, 3u}) {
          EXPECT_EQ(Plan(chunker, workers, data, piece, drain_every),
                    reference)
              << chunker->name() << " N=" << workers << " piece=" << piece
              << " drain_every=" << drain_every;
        }
      }
    }
  }
}

// ---- End-to-end: committed chunk maps ---------------------------------------

// How a test image reaches the session.
struct WriteShape {
  WriteProtocol protocol = WriteProtocol::kSlidingWindow;
  std::size_t chunk_size = 8192;
  std::size_t piece = 10000;  // bytes per Write() call
};

ChunkMap CommitWithWorkers(int hash_workers, ByteSpan data,
                           std::shared_ptr<const Chunker> chunker,
                           WriteShape shape = {}) {
  ClusterOptions options;
  options.benefactor_count = 6;
  options.client.chunk_size = shape.chunk_size;
  options.client.protocol = shape.protocol;
  options.client.hash_workers = hash_workers;
  options.client.chunker = std::move(chunker);
  StdchkCluster cluster(options);

  CheckpointName name{"app", "par", 1};
  auto session = cluster.client().CreateFile(name);
  EXPECT_TRUE(session.ok());
  std::size_t pos = 0;
  while (pos < data.size()) {
    std::size_t n = std::min(shape.piece, data.size() - pos);
    EXPECT_TRUE(session.value()->Write(data.subspan(pos, n)).ok());
    pos += n;
  }
  EXPECT_TRUE(session.value()->Close().ok());
  const WriteStats& stats = session.value()->stats();
  // hash_workers_peak is a measurement of threads seen naming at once —
  // at least one, never more than the pool's workers plus the session.
  EXPECT_GE(stats.hash_workers_peak, 1u);
  EXPECT_LE(stats.hash_workers_peak,
            static_cast<std::uint64_t>(
                std::max(1, HashPool::Shared().worker_threads() + 1)));
  if (hash_workers == 1) {
    EXPECT_EQ(stats.hash_workers_peak, 1u);
  }
  EXPECT_GT(stats.hash_chunks, 0u);
  EXPECT_EQ(stats.hash_bytes, data.size());

  auto record = cluster.manager().GetVersion(name);
  EXPECT_TRUE(record.ok());
  auto read_back = cluster.client().ReadFile(name);
  EXPECT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), Bytes(data.begin(), data.end()));
  return record.value().chunk_map;
}

void ExpectSameMap(const ChunkMap& a, const ChunkMap& b) {
  ASSERT_EQ(a.chunks.size(), b.chunks.size());
  for (std::size_t i = 0; i < a.chunks.size(); ++i) {
    EXPECT_EQ(a.chunks[i].id, b.chunks[i].id) << i;
    EXPECT_EQ(a.chunks[i].file_offset, b.chunks[i].file_offset) << i;
    EXPECT_EQ(a.chunks[i].size, b.chunks[i].size) << i;
  }
}

TEST(ParallelHashDeterminismTest, CommittedChunkMapsIdenticalToSerial) {
  Rng rng(99);
  Bytes data = rng.RandomBytes(300 * 1024);

  for (bool cbch : {false, true}) {
    std::shared_ptr<const Chunker> chunker;
    if (cbch) {
      CbchParams params;
      params.boundary_bits_k = 11;
      chunker = std::make_shared<ContentBasedChunker>(params);
    }
    ChunkMap serial = CommitWithWorkers(1, data, chunker);
    ExpectSameMap(serial, CommitWithWorkers(2, data, chunker));
    ExpectSameMap(serial, CommitWithWorkers(8, data, chunker));
  }
}

TEST(ParallelHashDeterminismTest, SlidingWindowNamesAcrossConsecutiveDrains) {
  // 256 KiB writes into 1 MiB chunks: every SW drain seals one chunk, so
  // fan-out can only come from naming consecutive drains in parallel.
  Rng rng(7);
  Bytes data = rng.RandomBytes(5 * 1024 * 1024 + 12345);
  const WriteShape sw{WriteProtocol::kSlidingWindow, 1024 * 1024, 256 * 1024};
  const WriteShape clw{WriteProtocol::kCompleteLocal, 1024 * 1024, 256 * 1024};

  for (bool cbch : {false, true}) {
    std::shared_ptr<const Chunker> chunker;
    if (cbch) {
      CbchParams params;
      params.boundary_bits_k = 16;
      chunker = std::make_shared<ContentBasedChunker>(params);
    }
    ChunkMap serial = CommitWithWorkers(1, data, chunker, sw);
    ExpectSameMap(serial, CommitWithWorkers(4, data, chunker, sw));
    ExpectSameMap(serial, CommitWithWorkers(4, data, chunker, clw));
  }
}

// ---- The session's naming window -------------------------------------------

ClusterOptions WindowOptions() {
  ClusterOptions options;
  options.benefactor_count = 4;
  options.client.stripe_width = 3;
  options.client.chunk_size = 4096;
  options.client.protocol = WriteProtocol::kSlidingWindow;
  options.client.hash_workers = 4;  // window of four chunk-sizes
  return options;
}

CheckpointName WindowName(std::uint64_t t) {
  return CheckpointName{"app", "win", t};
}

TEST(NamingWindowTest, AbortAndDestroyWithNamingInFlight) {
  StdchkCluster cluster(WindowOptions());
  Rng rng(11);
  Bytes data = rng.RandomBytes(3 * 4096);  // three chunks: window not full

  if (HashPool::Shared().worker_threads() > 0) {
    // Posted naming that no worker has claimed yet.
    PoolBlocker blocker(HashPool::Shared());
    auto aborted = cluster.client().CreateFile(WindowName(1));
    ASSERT_TRUE(aborted.ok());
    ASSERT_TRUE(aborted.value()->Write(data).ok());
    EXPECT_EQ(aborted.value()->stats().bytes_transferred, 0u);
    aborted.value()->Abort();

    auto dropped = cluster.client().CreateFile(WindowName(2));
    ASSERT_TRUE(dropped.ok());
    ASSERT_TRUE(dropped.value()->Write(data).ok());
    EXPECT_EQ(dropped.value()->stats().bytes_transferred, 0u);
    dropped.value().reset();  // destroyed without Abort or Close
  }
  // Naming racing the abort on live workers.
  for (std::uint64_t t = 3; t < 23; ++t) {
    auto session = cluster.client().CreateFile(WindowName(t));
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session.value()->Write(data).ok());
    if (t % 2 == 0) session.value()->Abort();
  }

  for (std::uint64_t t = 1; t < 23; ++t) {
    EXPECT_FALSE(cluster.manager().GetVersion(WindowName(t)).ok()) << t;
  }
  ASSERT_TRUE(cluster.client().WriteFile(WindowName(100), data).ok());
  auto read_back = cluster.client().ReadFile(WindowName(100));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), data);
}

TEST(NamingWindowTest, StripeDeathWhileChunksInWindowFailsCleanly) {
  if (HashPool::Shared().worker_threads() == 0) {
    GTEST_SKIP() << "an inline pool names and pushes before Write() returns";
  }
  // Every benefactor is a stripe member and every chunk needs all three,
  // so one death makes the pending pushes impossible.
  ClusterOptions options = WindowOptions();
  options.benefactor_count = 3;
  options.client.semantics = WriteSemantics::kPessimistic;
  options.client.replication_target = 3;
  StdchkCluster cluster(options);
  Rng rng(12);
  Bytes data = rng.RandomBytes(5 * 4096 + 100);
  ByteSpan all(data);

  auto session = cluster.client().CreateFile(WindowName(1));
  ASSERT_TRUE(session.ok());
  {
    PoolBlocker blocker(HashPool::Shared());
    ASSERT_TRUE(session.value()->Write(all.first(2 * 4096)).ok());
    // Both chunks are sealed but unnamed, so still in the window.
    EXPECT_EQ(session.value()->stats().bytes_transferred, 0u);
    cluster.benefactor(1).Crash();
  }

  // Three more chunks overfill the window, so this Write() must push the
  // first two — and report that it could not.
  Status write = session.value()->Write(all.subspan(2 * 4096));
  EXPECT_EQ(write.code(), StatusCode::kUnavailable) << write;
  auto closed = session.value()->Close();
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), StatusCode::kUnavailable);

  EXPECT_FALSE(cluster.manager().GetVersion(WindowName(1)).ok());
  // No gap: the slots claimed so far tile the file from offset 0.
  std::uint64_t offset = 0;
  for (const ChunkLocation& loc : session.value()->chunk_map().chunks) {
    EXPECT_EQ(loc.file_offset, offset);
    offset += loc.size;
  }
  EXPECT_GT(offset, 0u);
  EXPECT_LE(offset, data.size());
}

}  // namespace
}  // namespace stdchk
