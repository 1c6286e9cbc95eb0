// Tests for the benchmark's own code: the tail-percentile rule, self time
// from nested spans, and that the store and chunker decorators are
// transparent.
#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "common/rng.h"
#include "decorators.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(TailPercentile, KeepsAtLeastTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(19), 0);   // the median has only 9 beyond it
  EXPECT_EQ(TailPercentile(20), 50);
  EXPECT_EQ(TailPercentile(99), 50);  // p90 of 99 leaves 9 beyond
  EXPECT_EQ(TailPercentile(100), 90);
  EXPECT_EQ(TailPercentile(999), 90);  // p99 of 999 leaves 9 beyond
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailPercentile(10000), 99.9);
  EXPECT_EQ(TailPercentile(100000), 99.99);
  for (std::size_t n : {20u, 100u, 250u, 1000u, 5000u, 10000u}) {
    EXPECT_GE(SamplesBeyond(n, TailPercentile(n)), 10u) << n;
  }
}

TEST(TailPercentile, NearestRankValues) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  EXPECT_EQ(Percentile(samples, 50), 50);
  EXPECT_EQ(Percentile(samples, 90), 90);
  EXPECT_EQ(Percentile(samples, 100), 100);
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(Median({}), 0);
}

Span At(const char* name, std::int64_t start, std::int64_t end,
        std::int32_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTimes, SubtractsChildrenOnce) {
  std::vector<Span> spans = {
      At("client.checkpoint", 0, 100, -1),  // 0
      At("transport.submit", 10, 50, 0),    // 1
      At("chunk.put_batch", 20, 40, 1),     // 2
      At("transport.wait", 60, 70, 0),      // 3
      At("chkpt.scan", 65, 80, 0),          // 4: overlaps 3 (other thread)
      At("chunk.get", 90, 130, 0),          // 5: runs past its parent
  };
  std::vector<std::int64_t> self = SelfTimes(spans);
  // Children of the root cover [10,50) + [60,80) + [90,100) = 70.
  EXPECT_EQ(self[0], 30);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 15);
  EXPECT_EQ(self[5], 40);
  EXPECT_EQ(LayerOf(spans[1]), "transport");
}

TEST(Tracer, RecordsNestingAndOps) {
  Tracer tracer;
  Tracer::SetThreadOp(7);
  {
    Tracer::Scope outer(&tracer, "client.checkpoint");
    { Tracer::Scope inner(&tracer, "transport.submit"); }
    { Tracer::Scope inner(&tracer, "transport.wait"); }
  }
  Tracer::SetThreadOp(0);
  { Tracer::Scope none(nullptr, "ignored"); }
  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  for (const Span& s : spans) {
    EXPECT_EQ(s.op, 7u);
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self = SelfTimes(spans);
  EXPECT_GE(self[0], 0);
  EXPECT_LE(self[0], spans[0].end_ns - spans[0].start_ns);
}

// Runs the same sequence of store operations, batched puts and a
// compaction step included, and returns the final stats.
stdchk::ChunkStoreStats Exercise(stdchk::ChunkStore& store) {
  stdchk::Rng rng(42);
  std::vector<stdchk::ChunkPut> batch;
  for (int i = 0; i < 24; ++i) {
    stdchk::Bytes bytes =
        rng.RandomBytes(4096 + 512 * static_cast<std::size_t>(i));
    stdchk::ChunkId id = stdchk::ChunkId::For(bytes);
    batch.emplace_back(id, stdchk::BufferSlice::Copy(bytes));
  }
  EXPECT_TRUE(store.PutBatch(std::span(batch).first(16)).ok());
  EXPECT_TRUE(store.PutBatch(std::span(batch).subspan(16)).ok());
  stdchk::Bytes single = rng.RandomBytes(10000);
  EXPECT_TRUE(store.Put(stdchk::ChunkId::For(single), single).ok());
  for (const auto& put : batch) {
    auto got = store.Get(put.id);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(got.value().span().size(), put.data.size());
    }
  }
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(store.Delete(batch[i].id).ok());
  }
  stdchk::CompactionPolicy policy;
  EXPECT_TRUE(store.CompactStep(policy).ok());
  EXPECT_EQ(store.ChunkCount(), 5u);
  EXPECT_EQ(store.List().size(), 5u);
  return store.Stats();
}

void ExpectSameStats(const stdchk::ChunkStoreStats& a,
                     const stdchk::ChunkStoreStats& b) {
  EXPECT_EQ(a.put_batches, b.put_batches);
  EXPECT_EQ(a.data_syscalls, b.data_syscalls);
  EXPECT_EQ(a.fsyncs, b.fsyncs);
  EXPECT_EQ(a.segments_created, b.segments_created);
  EXPECT_EQ(a.segments_reclaimed, b.segments_reclaimed);
  EXPECT_EQ(a.mmap_reads, b.mmap_reads);
  EXPECT_EQ(a.compaction_steps, b.compaction_steps);
  EXPECT_EQ(a.segments_compacted, b.segments_compacted);
  EXPECT_EQ(a.generations_released, b.generations_released);
  EXPECT_EQ(a.compacted_bytes_rewritten, b.compacted_bytes_rewritten);
}

TEST(TracedStore, MemoryStoreStatsMatchUnwrapped) {
  Tracer tracer;
  auto plain = stdchk::MakeMemoryChunkStore();
  TracedStore wrapped(stdchk::MakeMemoryChunkStore(), &tracer);
  stdchk::ChunkStoreStats a = Exercise(*plain);
  stdchk::ChunkStoreStats b = Exercise(wrapped);
  ExpectSameStats(a, b);
  EXPECT_EQ(plain->BytesUsed(), wrapped.BytesUsed());
  EXPECT_EQ(plain->ResidentBytes(), wrapped.ResidentBytes());
  // Two PutBatch calls reached the store as batches, not per-chunk Puts.
  int batches = 0;
  for (const Span& s : tracer.spans()) {
    if (std::string(s.name) == "chunk.put_batch") ++batches;
    EXPECT_NE(std::string(s.name), "chunk.wipe");
  }
  EXPECT_EQ(batches, 2);
}

TEST(TracedStore, DiskStoreStatsMatchUnwrapped) {
  namespace fs = std::filesystem;
  fs::path root = fs::temp_directory_path() /
                  ("perfbench_test_" + std::to_string(::getpid()));
  fs::remove_all(root);
  {
    auto plain = stdchk::MakeDiskChunkStore((root / "plain").string());
    auto inner = stdchk::MakeDiskChunkStore((root / "wrapped").string());
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(inner.ok());
    Tracer tracer;
    TracedStore wrapped(std::move(inner).value(), &tracer);
    stdchk::ChunkStoreStats a = Exercise(*plain.value());
    stdchk::ChunkStoreStats b = Exercise(wrapped);
    ExpectSameStats(a, b);
    EXPECT_GT(a.fsyncs, 0u);
    EXPECT_EQ(plain.value()->BytesUsed(), wrapped.BytesUsed());
    EXPECT_TRUE(plain.value()->Wipe().ok());
    EXPECT_TRUE(wrapped.Wipe().ok());
    ExpectSameStats(plain.value()->Stats(), wrapped.Stats());
    EXPECT_EQ(wrapped.ChunkCount(), 0u);
  }
  fs::remove_all(root);
}

TEST(TracedChunker, SameBoundariesAsInner) {
  Tracer tracer;
  auto inner = std::make_shared<stdchk::ContentBasedChunker>(
      stdchk::CbchParams{});
  TracedChunker traced(inner, &tracer);
  stdchk::Bytes data = stdchk::Rng(7).RandomBytes(1 << 20);
  EXPECT_EQ(traced.Split(data), inner->Split(data));
  EXPECT_EQ(traced.SplitSealed(data), inner->SplitSealed(data));
  EXPECT_EQ(traced.name(), inner->name());
  // Streaming in uneven pieces through both scanners.
  std::vector<std::uint64_t> a, b;
  auto sa = inner->MakeScanner();
  auto sb = traced.MakeScanner();
  for (std::size_t pos = 0; pos < data.size(); pos += 100'003) {
    std::size_t len = std::min<std::size_t>(100'003, data.size() - pos);
    sa->Feed(stdchk::ByteSpan(data.data() + pos, len), a);
    sb->Feed(stdchk::ByteSpan(data.data() + pos, len), b);
  }
  sa->Finish(a);
  sb->Finish(b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(sa->consumed(), sb->consumed());
  int scans = 0;
  for (const Span& s : tracer.spans()) {
    if (std::string(s.name) == "chkpt.scan") ++scans;
  }
  EXPECT_EQ(scans, 12);  // 11 Feeds + Finish
}

}  // namespace
}  // namespace perfbench
