// The three write-optimized protocols of §IV.B through the staged write
// engine: CLW, IW and SW must commit byte-identical files with identical
// chunk maps, while their WriteStats expose the protocol-specific transfer
// timing (local spill vs increment flushes vs push-as-produced). Also
// covers erasure-coded writes, whose shards the naming window encodes and
// names, and CbCH-driven dedup on the functional streaming write path.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/cluster.h"
#include "erasure/reed_solomon.h"

namespace stdchk {
namespace {

constexpr std::size_t kFileSize = 64 * 1024;
constexpr std::size_t kChunkSize = 4096;
constexpr std::size_t kIncrementSize = 16384;

CheckpointName Name(std::uint64_t t) { return CheckpointName{"app", "n1", t}; }

ClusterOptions BaseOptions() {
  ClusterOptions options;
  options.benefactor_count = 6;
  options.client.stripe_width = 4;
  options.client.chunk_size = kChunkSize;
  options.client.increment_size = kIncrementSize;
  return options;
}

// Writes `data` in fixed-size pieces and returns the session's stats plus
// the committed record.
struct WrittenFile {
  WriteStats stats;
  VersionRecord record;
  std::uint64_t transport_rpcs = 0;
};

WrittenFile WriteWithProtocol(WriteProtocol protocol, ByteSpan data,
                              std::size_t piece, int hash_workers = 0) {
  ClusterOptions options = BaseOptions();
  options.client.protocol = protocol;
  options.client.hash_workers = hash_workers;
  StdchkCluster cluster(options);

  auto session = cluster.client().CreateFile(Name(1));
  EXPECT_TRUE(session.ok());
  std::size_t pos = 0;
  while (pos < data.size()) {
    std::size_t n = std::min(piece, data.size() - pos);
    EXPECT_TRUE(session.value()->Write(data.subspan(pos, n)).ok());
    pos += n;
  }
  auto outcome = session.value()->Close();
  EXPECT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome.value(), CloseOutcome::kCommitted);

  WrittenFile out;
  out.stats = session.value()->stats();
  out.transport_rpcs = cluster.transport().rpc_count();
  auto record = cluster.manager().GetVersion(Name(1));
  EXPECT_TRUE(record.ok());
  out.record = record.value();

  auto read_back = cluster.client().ReadFile(Name(1));
  EXPECT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), Bytes(data.begin(), data.end()));
  return out;
}

TEST(WriteProtocolEquivalenceTest, AllProtocolsCommitIdenticalChunkMaps) {
  Rng rng(42);
  Bytes data = rng.RandomBytes(kFileSize);

  WrittenFile clw =
      WriteWithProtocol(WriteProtocol::kCompleteLocal, data, 1000);
  WrittenFile iw = WriteWithProtocol(WriteProtocol::kIncremental, data, 1000);
  WrittenFile sw =
      WriteWithProtocol(WriteProtocol::kSlidingWindow, data, 1000);

  // Functionally equivalent: same size, same chunk boundaries, same
  // content addresses, in the same file order.
  for (const WrittenFile* f : {&iw, &sw}) {
    ASSERT_EQ(f->record.size, clw.record.size);
    ASSERT_EQ(f->record.chunk_map.chunks.size(),
              clw.record.chunk_map.chunks.size());
    for (std::size_t i = 0; i < clw.record.chunk_map.chunks.size(); ++i) {
      const ChunkLocation& a = clw.record.chunk_map.chunks[i];
      const ChunkLocation& b = f->record.chunk_map.chunks[i];
      EXPECT_EQ(a.id, b.id) << "chunk " << i;
      EXPECT_EQ(a.file_offset, b.file_offset) << "chunk " << i;
      EXPECT_EQ(a.size, b.size) << "chunk " << i;
    }
  }

  // Same bytes crossed the network either way.
  EXPECT_EQ(clw.stats.bytes_transferred, kFileSize);
  EXPECT_EQ(iw.stats.bytes_transferred, kFileSize);
  EXPECT_EQ(sw.stats.bytes_transferred, kFileSize);
  EXPECT_EQ(clw.stats.replica_puts, sw.stats.replica_puts);
}

TEST(WriteProtocolEquivalenceTest, StatsExposeProtocolTransferTiming) {
  Rng rng(43);
  Bytes data = rng.RandomBytes(kFileSize);

  WrittenFile clw =
      WriteWithProtocol(WriteProtocol::kCompleteLocal, data, 1000);
  WrittenFile iw = WriteWithProtocol(WriteProtocol::kIncremental, data, 1000);
  WrittenFile sw = WriteWithProtocol(WriteProtocol::kSlidingWindow, data,
                                     1000, /*hash_workers=*/1);

  // CLW: everything spills locally and drains in exactly one batch at
  // close; the client buffers the entire file.
  EXPECT_EQ(clw.stats.flushes, 1u);
  EXPECT_EQ(clw.stats.bytes_spilled_local, kFileSize);
  EXPECT_EQ(clw.stats.max_buffered_bytes, kFileSize);

  // IW: one drain per completed increment (plus the close-time tail); the
  // buffer high-water mark sits near the increment size, not the file.
  EXPECT_GT(iw.stats.flushes, 1u);
  EXPECT_LT(iw.stats.flushes, sw.stats.flushes);
  EXPECT_EQ(iw.stats.bytes_spilled_local, kFileSize);
  EXPECT_GE(iw.stats.max_buffered_bytes, kIncrementSize);
  EXPECT_LT(iw.stats.max_buffered_bytes, kFileSize / 2);

  // SW with hash_workers = 1: no local I/O at all, each chunk is named and
  // pushed as produced, so the window never holds much more than one
  // transfer chunk.
  EXPECT_EQ(sw.stats.bytes_spilled_local, 0u);
  EXPECT_GE(sw.stats.flushes, kFileSize / kChunkSize / 2);
  EXPECT_LT(sw.stats.max_buffered_bytes, 2 * kChunkSize);

  // Batching: CLW's single drain coalesces each benefactor's chunks into
  // one multi-chunk PUT, so it issues far fewer data RPCs than SW's
  // chunk-at-a-time pushes.
  EXPECT_LT(clw.stats.batched_puts, sw.stats.batched_puts);
  EXPECT_LT(clw.transport_rpcs, sw.transport_rpcs);
}

TEST(WriteProtocolEquivalenceTest, SlidingWindowBuffersAtMostWChunks) {
  // With W = hash_workers > 1, SW names chunks behind the application and
  // keeps up to W chunk-sizes unpushed (the chunk being filled included),
  // so one Write() can add at most its own size on top.
  constexpr std::size_t kPiece = 1000;
  Rng rng(45);
  Bytes data = rng.RandomBytes(kFileSize);
  WrittenFile iw =
      WriteWithProtocol(WriteProtocol::kIncremental, data, kPiece);

  for (int w : {2, 4}) {
    WrittenFile sw =
        WriteWithProtocol(WriteProtocol::kSlidingWindow, data, kPiece, w);
    EXPECT_EQ(sw.stats.bytes_spilled_local, 0u) << "W=" << w;
    EXPECT_LE(sw.stats.max_buffered_bytes,
              static_cast<std::uint64_t>(w) * kChunkSize + kPiece)
        << "W=" << w;
    // One push per drain generation, whenever its names complete.
    EXPECT_GE(sw.stats.flushes, kFileSize / kChunkSize / 2) << "W=" << w;
    EXPECT_LT(iw.stats.flushes, sw.stats.flushes) << "W=" << w;
    EXPECT_EQ(sw.stats.bytes_transferred, kFileSize) << "W=" << w;
    // IW's high-water mark is one increment plus a partial write. The
    // W = 2 window stays well below it; W = 4's bound (four chunks plus
    // one write) can pass it when every chunk in the window is unnamed.
    if (w == 2) {
      EXPECT_LT(sw.stats.max_buffered_bytes, iw.stats.max_buffered_bytes);
    }
  }
}

TEST(WriteProtocolEquivalenceTest, ProtocolsAgreeUnderContentBasedChunking) {
  // The planner's sealed-boundary rule must make the chunk map a pure
  // function of content even when drain timing differs per protocol.
  Rng rng(44);
  Bytes data = rng.RandomBytes(kFileSize);
  auto chunker = std::make_shared<ContentBasedChunker>(
      CbchParams{.window_m = 20, .boundary_bits_k = 11, .advance_p = 1});

  std::vector<VersionRecord> records;
  for (WriteProtocol protocol :
       {WriteProtocol::kCompleteLocal, WriteProtocol::kIncremental,
        WriteProtocol::kSlidingWindow}) {
    ClusterOptions options = BaseOptions();
    options.client.protocol = protocol;
    options.client.chunker = chunker;
    StdchkCluster cluster(options);
    auto session = cluster.client().CreateFile(Name(1));
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session.value()->Write(data).ok());
    ASSERT_TRUE(session.value()->Close().ok());
    auto record = cluster.manager().GetVersion(Name(1));
    ASSERT_TRUE(record.ok());
    records.push_back(record.value());

    auto read_back = cluster.client().ReadFile(Name(1));
    ASSERT_TRUE(read_back.ok());
    EXPECT_EQ(read_back.value(), Bytes(data.begin(), data.end()));
  }

  ASSERT_GT(records[0].chunk_map.chunks.size(), 4u);  // actually variable-size
  for (std::size_t p = 1; p < records.size(); ++p) {
    ASSERT_EQ(records[p].chunk_map.chunks.size(),
              records[0].chunk_map.chunks.size());
    for (std::size_t i = 0; i < records[0].chunk_map.chunks.size(); ++i) {
      EXPECT_EQ(records[p].chunk_map.chunks[i].id,
                records[0].chunk_map.chunks[i].id);
    }
  }
}

TEST(WriteProtocolEquivalenceTest,
     PessimisticFailoverReachesReplacementForAllChunks) {
  // A stripe member dies mid-write under pessimistic semantics with the
  // replication target equal to the stripe width: meeting the target then
  // requires *every* pending chunk — not just those queued on the dead
  // node when it failed — to reach the replacement donor.
  ClusterOptions options = BaseOptions();
  options.client.stripe_width = 3;
  options.client.chunk_size = 1024;
  options.client.semantics = WriteSemantics::kPessimistic;
  options.client.replication_target = 3;
  StdchkCluster cluster(options);

  auto session = cluster.client().CreateFile(Name(1));
  ASSERT_TRUE(session.ok());
  Rng rng(45);
  Bytes part1 = rng.RandomBytes(4 * 1024);
  ASSERT_TRUE(session.value()->Write(part1).ok());

  // Crash a node that holds part1's replicas (a stripe member).
  std::size_t victim = cluster.benefactor_count();
  for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
    if (cluster.benefactor(i).BytesUsed() > 0) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, cluster.benefactor_count());
  NodeId dead = cluster.benefactor(victim).id();
  cluster.benefactor(victim).Crash();

  Bytes part2 = rng.RandomBytes(8 * 1024);
  ASSERT_TRUE(session.value()->Write(part2).ok());
  auto outcome = session.value()->Close();
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  auto record = cluster.manager().GetVersion(Name(1));
  ASSERT_TRUE(record.ok());
  // part2's chunks all met the full target on live nodes.
  const auto& chunks = record.value().chunk_map.chunks;
  for (std::size_t i = part1.size() / 1024; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].replicas.size(), 3u) << "chunk " << i;
    for (NodeId node : chunks[i].replicas) EXPECT_NE(node, dead);
  }
}

TEST(WriteProtocolEquivalenceTest,
     ErasureCodedMapsIdenticalForEveryProtocolAndWidth) {
  // The naming window encodes and names every chunk's shards as 1 + k + m
  // independent pool tasks; the committed shard groups must not depend on
  // which thread ran what, nor on when the protocol pushes. The 3-byte
  // tail chunk has short and empty data shards.
  constexpr int kK = 4;
  constexpr int kM = 2;
  Rng rng(46);
  Bytes data = rng.RandomBytes(kFileSize + 3);
  const std::size_t chunks = kFileSize / kChunkSize + 1;
  auto rs = ReedSolomon::Create(kK, kM);
  ASSERT_TRUE(rs.ok());

  std::optional<ChunkMap> reference;
  for (WriteProtocol protocol :
       {WriteProtocol::kCompleteLocal, WriteProtocol::kIncremental,
        WriteProtocol::kSlidingWindow}) {
    for (int w : {1, 2, 4}) {
      SCOPED_TRACE("protocol " + std::to_string(static_cast<int>(protocol)) +
                   " W " + std::to_string(w));
      ClusterOptions options = BaseOptions();
      options.client.protocol = protocol;
      options.client.hash_workers = w;
      options.client.erasure = {kK, kM};
      StdchkCluster cluster(options);
      auto session = cluster.client().CreateFile(Name(1));
      ASSERT_TRUE(session.ok());
      for (std::size_t pos = 0; pos < data.size(); pos += 1000) {
        std::size_t n = std::min<std::size_t>(1000, data.size() - pos);
        ASSERT_TRUE(session.value()->Write(ByteSpan(data).subspan(pos, n)).ok());
      }
      auto outcome = session.value()->Close();
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      const WriteStats& ws = session.value()->stats();
      EXPECT_EQ(ws.erasure_encoded_chunks, chunks);
      EXPECT_EQ(ws.data_shards_written, chunks * kK);
      EXPECT_EQ(ws.parity_shards_written, chunks * kM);
      EXPECT_GT(ws.erasure_encode_ns, 0u);

      auto record = cluster.manager().GetVersion(Name(1));
      ASSERT_TRUE(record.ok());
      const ChunkMap& map = record.value().chunk_map;
      ASSERT_EQ(map.chunks.size(), chunks);
      if (!reference.has_value()) reference = map;
      for (std::size_t i = 0; i < chunks; ++i) {
        SCOPED_TRACE("chunk " + std::to_string(i));
        const ChunkLocation& got = map.chunks[i];
        const ChunkLocation& want = reference->chunks[i];
        EXPECT_EQ(got.id, want.id);
        EXPECT_EQ(got.ec_k, kK);
        EXPECT_EQ(got.ec_m, kM);
        ASSERT_EQ(got.shards.size(), want.shards.size());
        for (std::size_t s = 0; s < got.shards.size(); ++s) {
          EXPECT_EQ(got.shards[s].id, want.shards[s].id) << "shard " << s;
          EXPECT_EQ(got.shards[s].node, want.shards[s].node) << "shard " << s;
        }

        // The stored parity is what the block codec computes.
        ByteSpan chunk = ByteSpan(data).subspan(got.file_offset, got.size);
        const std::size_t shard_size = ErasureShardSize(got.size, kK);
        std::vector<ByteSpan> views;
        for (int j = 0; j < kK; ++j) {
          views.push_back(chunk.subspan(
              std::min(static_cast<std::size_t>(j) * shard_size, chunk.size()),
              ErasureShardLength(got.size, kK, j)));
        }
        auto parity = rs->EncodeParity(views, shard_size);
        ASSERT_TRUE(parity.ok());
        for (int r = 0; r < kM; ++r) {
          const ShardLocation& loc = got.shards[static_cast<std::size_t>(kK + r)];
          Benefactor* holder = cluster.FindBenefactor(loc.node);
          ASSERT_NE(holder, nullptr);
          auto stored = holder->GetChunk(loc.id);
          ASSERT_TRUE(stored.ok()) << stored.status();
          EXPECT_EQ(stored.value().ToBytes(),
                    parity.value()[static_cast<std::size_t>(r)])
              << "parity row " << r;
        }
      }
      auto read_back = cluster.client().ReadFile(Name(1));
      ASSERT_TRUE(read_back.ok()) << read_back.status();
      EXPECT_EQ(read_back.value(), data);
    }
  }
}

// ---- CbCH dedup through the functional streaming write path ----------------

class CbchStreamingDedupTest : public ::testing::Test {
 protected:
  // Writes `data` through a fresh session on `client`, in `piece`-sized
  // Write() calls, and returns the session stats.
  WriteStats StreamWrite(ClientProxy& client, const CheckpointName& name,
                         ByteSpan data, std::size_t piece) {
    auto session = client.CreateFile(name);
    EXPECT_TRUE(session.ok());
    std::size_t pos = 0;
    while (pos < data.size()) {
      std::size_t n = std::min(piece, data.size() - pos);
      EXPECT_TRUE(session.value()->Write(data.subspan(pos, n)).ok());
      pos += n;
    }
    auto outcome = session.value()->Close();
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    return session.value()->stats();
  }

  Bytes MakeShiftedVersion(const Bytes& v1, Rng& rng) {
    // v1 with bytes inserted near the front — the FsCH killer: every
    // fixed-size boundary after the insertion shifts.
    Bytes v2;
    Append(v2, ByteSpan(v1.data(), 10'000));
    Bytes inserted = rng.RandomBytes(512);
    Append(v2, inserted);
    Append(v2, ByteSpan(v1.data() + 10'000, v1.size() - 10'000));
    return v2;
  }
};

TEST_F(CbchStreamingDedupTest, InjectedCbchDedupsAcrossVersions) {
  ClusterOptions options = BaseOptions();
  options.client.protocol = WriteProtocol::kSlidingWindow;
  options.client.incremental_fsch = true;
  options.client.chunker = std::make_shared<ContentBasedChunker>(
      CbchParams{.window_m = 20, .boundary_bits_k = 11, .advance_p = 1});
  StdchkCluster cluster(options);

  Rng rng(7);
  Bytes v1 = rng.RandomBytes(kFileSize);
  Bytes v2 = MakeShiftedVersion(v1, rng);

  WriteStats s1 = StreamWrite(cluster.client(), Name(1), v1, 1000);
  EXPECT_EQ(s1.chunks_deduplicated, 0u);
  EXPECT_EQ(s1.bytes_transferred, v1.size());

  // Different Write() granularity for v2: sealed boundaries must depend
  // only on content, so dedup still lines up.
  WriteStats s2 = StreamWrite(cluster.client(), Name(2), v2, 3333);
  EXPECT_GT(s2.chunks_deduplicated, 0u);
  EXPECT_GT(s2.bytes_deduplicated, v1.size() / 2);
  EXPECT_LT(s2.bytes_transferred, v1.size() / 4);

  // Both versions read back intact.
  auto v1_back = cluster.client().ReadFile(Name(1));
  ASSERT_TRUE(v1_back.ok());
  EXPECT_EQ(v1_back.value(), v1);
  auto v2_back = cluster.client().ReadFile(Name(2));
  ASSERT_TRUE(v2_back.ok());
  EXPECT_EQ(v2_back.value(), v2);
}

TEST_F(CbchStreamingDedupTest, FschFindsAlmostNothingAcrossShiftedVersions) {
  // Control: the same workload under fixed-size chunking detects only the
  // unshifted prefix (the two chunks before the insertion point) — the
  // insertion shifts every later boundary, destroying the similarity CbCH
  // keeps.
  ClusterOptions options = BaseOptions();
  options.client.protocol = WriteProtocol::kSlidingWindow;
  options.client.incremental_fsch = true;
  StdchkCluster cluster(options);

  Rng rng(7);
  Bytes v1 = rng.RandomBytes(kFileSize);
  Bytes v2 = MakeShiftedVersion(v1, rng);

  StreamWrite(cluster.client(), Name(1), v1, 1000);
  WriteStats s2 = StreamWrite(cluster.client(), Name(2), v2, 3333);
  EXPECT_LE(s2.chunks_deduplicated, 10'000 / kChunkSize);
  EXPECT_GE(s2.bytes_transferred, v2.size() - 10'000);
}

}  // namespace
}  // namespace stdchk
