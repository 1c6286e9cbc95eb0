// Delivery of verified chunks into the caller's buffer: ReadAll and ReadAt
// at random offsets return the source bytes for every copy width (serial
// inline copies and pooled batches), FsCH and CbCH chunking, replicated and
// erasure-coded redundancy, with up to two holders crashed; and an error
// after earlier copies were posted returns only once they have landed, so
// the caller may free its buffer at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>

#include "chkpt/chunker.h"
#include "client/read_session.h"
#include "common/hash_pool.h"
#include "common/rng.h"
#include "core/cluster.h"

namespace stdchk {
namespace {

constexpr std::size_t kChunk = 4096;

CheckpointName Name(std::uint64_t t) { return CheckpointName{"app", "n1", t}; }

// Crashes holder `d` of `chunk`: its d-th replica, or the holder of its
// d-th shard.
void CrashHolder(StdchkCluster& cluster, const ChunkLocation& chunk,
                 std::size_t d) {
  NodeId node = chunk.erasure_coded() ? chunk.shards.at(d).node
                                      : chunk.replicas.at(d);
  for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
    if (cluster.benefactor(i).id() == node) {
      ASSERT_TRUE(cluster.CrashBenefactor(i).ok());
    }
  }
}

struct Layout {
  bool cbch;
  bool erasure;
};

class ReadDeliveryTest : public ::testing::TestWithParam<Layout> {};

TEST_P(ReadDeliveryTest, ReadAllAndReadAtMatchSourceForEveryWidth) {
  const Layout layout = GetParam();
  ClusterOptions options;
  options.benefactor_count = 9;
  options.client.chunk_size = kChunk;
  if (layout.cbch) {
    // ~1 KiB average chunks: several share one posted copy batch.
    CbchParams params;
    params.boundary_bits_k = 10;
    options.client.chunker = std::make_shared<ContentBasedChunker>(params);
  }
  if (layout.erasure) {
    options.client.erasure = {4, 2};
  } else {
    // Three whole replicas: two crashed holders leave one of each chunk.
    options.client.semantics = WriteSemantics::kPessimistic;
    options.client.replication_target = 3;
  }
  StdchkCluster cluster(options);
  Rng rng(layout.cbch * 2 + layout.erasure + 11);
  Bytes data = rng.RandomBytes(40 * kChunk + 321);
  ASSERT_TRUE(cluster.client().WriteFile(Name(1), data).ok());
  auto record = cluster.manager().GetVersion(Name(1));
  ASSERT_TRUE(record.ok());
  ASSERT_GT(record.value().chunk_map.chunks.size(), 20u);

  for (int dead = 0; dead <= 2; ++dead) {
    if (dead > 0) {
      CrashHolder(cluster, record.value().chunk_map.chunks.front(),
                  static_cast<std::size_t>(dead - 1));
    }
    for (int workers : {1, 2, 4}) {
      SCOPED_TRACE("dead " + std::to_string(dead) + " W " +
                   std::to_string(workers));
      ClientOptions o = cluster.client().options();
      o.hash_workers = workers;
      auto client = cluster.MakeClient(o);

      auto all = client->ReadFile(Name(1));
      ASSERT_TRUE(all.ok()) << all.status();
      EXPECT_EQ(all.value(), data);

      auto session = client->OpenFile(Name(1));
      ASSERT_TRUE(session.ok());
      Rng jump(static_cast<std::uint64_t>(dead * 10 + workers));
      for (int i = 0; i < 40; ++i) {
        std::uint64_t offset = jump.NextBelow(data.size());
        std::size_t want =
            1 + static_cast<std::size_t>(jump.NextBelow(6 * kChunk));
        Bytes buf(want);
        auto n = session.value()->ReadAt(offset, MutableByteSpan(buf));
        ASSERT_TRUE(n.ok()) << n.status();
        std::size_t expected =
            std::min<std::size_t>(want, data.size() - offset);
        ASSERT_EQ(n.value(), expected);
        ASSERT_TRUE(std::equal(
            buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(expected),
            data.begin() + static_cast<std::ptrdiff_t>(offset)))
            << "offset " << offset << " length " << want;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, ReadDeliveryTest,
    ::testing::Values(Layout{false, false}, Layout{true, false},
                      Layout{false, true}, Layout{true, true}),
    [](const ::testing::TestParamInfo<Layout>& info) {
      return std::string(info.param.cbch ? "Cbch" : "Fsch") +
             (info.param.erasure ? "Erasure" : "Replicated");
    });

// Occupies every worker of the shared pool until released, so batches
// posted meanwhile stay queued unless the thread awaiting them runs them.
class PoolBlocker {
 public:
  PoolBlocker() {
    HashPool& pool = HashPool::Shared();
    const int n = pool.worker_threads();
    ticket_ = pool.Post(static_cast<std::size_t>(n), n + 1,
                        [this](std::size_t) {
                          started_.fetch_add(1);
                          while (!released_.load()) std::this_thread::yield();
                        });
    while (started_.load() < n) std::this_thread::yield();
  }
  ~PoolBlocker() { Release(); }

  // Frees the workers, which then run whatever was left queued.
  void Release() {
    released_.store(true);
    HashPool::Shared().Await(ticket_);
  }

 private:
  std::atomic<int> started_{0};
  std::atomic<bool> released_{false};
  HashPool::Ticket ticket_;
};

TEST(ReadDeliveryErrorTest, ErrorReturnsAfterPostedCopiesLand) {
  // 1 MiB chunks: every chunk is its own posted copy batch.
  constexpr std::size_t kBig = 1 << 20;
  constexpr std::size_t kChunks = 8;
  constexpr std::size_t kBad = 6;
  ClusterOptions options;
  options.benefactor_count = 6;
  options.client.stripe_width = 4;
  options.client.chunk_size = kBig;
  StdchkCluster cluster(options);
  Rng rng(77);
  Bytes data = rng.RandomBytes(kChunks * kBig);
  ASSERT_TRUE(cluster.client().WriteFile(Name(1), data).ok());
  auto record = cluster.manager().GetVersion(Name(1));
  ASSERT_TRUE(record.ok());

  // Point chunk kBad at a benefactor that holds none of the file, and crash
  // that benefactor: the chunk has no reachable replica, and every chunk
  // before it reads fine.
  std::set<NodeId> holders;
  for (const ChunkLocation& c : record.value().chunk_map.chunks) {
    holders.insert(c.replicas.begin(), c.replicas.end());
  }
  std::size_t outsider = cluster.benefactor_count();
  for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
    if (!holders.contains(cluster.benefactor(i).id())) outsider = i;
  }
  ASSERT_LT(outsider, cluster.benefactor_count());
  ASSERT_TRUE(cluster.CrashBenefactor(outsider).ok());
  VersionRecord broken = record.value();
  broken.chunk_map.chunks[kBad].replicas = {cluster.benefactor(outsider).id()};

  ClientOptions o = cluster.client().options();
  o.hash_workers = 4;
  for (int round = 0; round < 3; ++round) {
    // With the workers held, the copies of chunks 0..kBad-1 are still
    // queued when chunk kBad fails: ReadAt must run them itself before it
    // returns.
    PoolBlocker blocker;
    ReadSession session(&cluster.transport(), broken, o);
    auto buffer = std::make_unique<std::uint8_t[]>(data.size());
    auto n = session.ReadAt(0, MutableByteSpan(buffer.get(), data.size()));
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), StatusCode::kUnavailable);
    EXPECT_GE(session.stats().chunks_fetched, kBad);
    EXPECT_TRUE(std::equal(buffer.get(), buffer.get() + kBad * kBig,
                           data.begin()));
    // Freed the moment the error is in hand; then the workers run whatever
    // is still queued. A copy left behind would write freed memory, which
    // ASan reports as heap-use-after-free.
    buffer.reset();
    blocker.Release();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace
}  // namespace stdchk
