// End-to-end tests of the erasure-coded write/read path: striping k+m
// shards across distinct benefactors at write time, reconstructing from any
// k survivors at read time, k-survivor accounting in the manager (repair,
// loss, GC) and snapshot round-tripping of shard groups. The pipelined read
// side: identical bytes and counters for every assembly width, dead-holder
// skipping, random access and reads split on shard boundaries, integrity
// failures (a tampered data or parity shard, or in debug builds a shard list
// of another chunk) surfacing only on demand, no payload copies, and
// teardown with assemblies in flight. The write side's naming window:
// teardown with shard encodes queued, and a stripe death while encoded
// shards wait in the window.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "client/read_session.h"
#include "common/buffer.h"
#include "common/hash_pool.h"
#include "common/rng.h"
#include "core/cluster.h"

namespace stdchk {
namespace {

CheckpointName Name(std::uint64_t t) { return CheckpointName{"app", "n1", t}; }

class ErasureClusterTest : public ::testing::Test {
 protected:
  static constexpr int kK = 4;
  static constexpr int kM = 2;

  ErasureClusterTest() {
    ClusterOptions options;
    options.benefactor_count = 9;
    options.client.chunk_size = 4096;
    options.client.erasure = {kK, kM};
    cluster_ = std::make_unique<StdchkCluster>(options);
  }

  // The cluster index of the benefactor owning `node`.
  std::size_t IndexOf(NodeId node) {
    for (std::size_t i = 0; i < cluster_->benefactor_count(); ++i) {
      if (cluster_->benefactor(i).id() == node) return i;
    }
    ADD_FAILURE() << "no benefactor with id " << node;
    return 0;
  }

  VersionRecord Record(const CheckpointName& name) {
    auto record = cluster_->manager().GetVersion(name);
    EXPECT_TRUE(record.ok()) << record.status().ToString();
    return record.ok() ? record.value() : VersionRecord{};
  }

  std::unique_ptr<StdchkCluster> cluster_;
  Rng rng_{42};
};

TEST_F(ErasureClusterTest, CommitsShardGroupsWithZeroFullReplicas) {
  Bytes data = rng_.RandomBytes(3 * 4096 + 1234);  // tail chunk too
  auto session = cluster_->client().CreateFile(Name(1));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Write(ByteSpan(data.data(), data.size())).ok());
  ASSERT_TRUE(session.value()->Close().ok());

  const WriteStats& ws = session.value()->stats();
  EXPECT_EQ(ws.erasure_encoded_chunks, 4u);
  EXPECT_EQ(ws.parity_shards_written, 4u * kM);
  EXPECT_EQ(ws.data_shards_written, 4u * kK);
  EXPECT_GT(ws.erasure_encode_ns, 0u);

  VersionRecord record = Record(Name(1));
  ASSERT_EQ(record.chunk_map.chunks.size(), 4u);
  for (const ChunkLocation& loc : record.chunk_map.chunks) {
    EXPECT_TRUE(loc.erasure_coded());
    EXPECT_EQ(loc.ec_k, kK);
    EXPECT_EQ(loc.ec_m, kM);
    EXPECT_TRUE(loc.replicas.empty()) << "EC chunks store zero full copies";
    ASSERT_EQ(loc.shards.size(), static_cast<std::size_t>(kK + kM));
    std::set<NodeId> nodes;
    for (const ShardLocation& sl : loc.shards) {
      ASSERT_NE(sl.node, kInvalidNode);
      nodes.insert(sl.node);
    }
    EXPECT_EQ(nodes.size(), loc.shards.size())
        << "shards of one group must land on distinct benefactors";
  }

  // Healthy path: reads reassemble from the k data shards, no parity, no
  // reconstruction, no whole-replica fallback.
  auto reader = cluster_->client().OpenFile(Name(1));
  ASSERT_TRUE(reader.ok());
  auto read_back = reader.value()->ReadAll();
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), data);
  ReadStats rs = reader.value()->stats();
  EXPECT_EQ(rs.shard_fetches, 4u * kK);
  EXPECT_EQ(rs.parity_shard_fetches, 0u);
  EXPECT_EQ(rs.reconstructions, 0u);
  EXPECT_EQ(rs.full_replica_fallbacks, 0u);
}

TEST_F(ErasureClusterTest, ReadsReconstructAfterMBenefactorDeaths) {
  Bytes data = rng_.RandomBytes(5 * 4096 + 77);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), ByteSpan(data.data(),
                                                             data.size()))
                  .ok());

  // Kill m holders of the first chunk's data shards — the worst allowed
  // case. No ticks in between: the catalog still points at the dead nodes,
  // so the read path itself must fail over to parity.
  VersionRecord record = Record(Name(1));
  const ChunkLocation& first = record.chunk_map.chunks.front();
  for (int i = 0; i < kM; ++i) {
    ASSERT_TRUE(
        cluster_->CrashBenefactor(IndexOf(first.shards[i].node)).ok());
  }

  auto reader = cluster_->client().OpenFile(Name(1));
  ASSERT_TRUE(reader.ok());
  auto read_back = reader.value()->ReadAll();
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), data);

  ReadStats rs = reader.value()->stats();
  EXPECT_GT(rs.reconstructions, 0u);
  EXPECT_GT(rs.parity_shard_fetches, 0u);
  // Zero full-replica fallback: there are no full replicas to fall back to.
  EXPECT_EQ(rs.full_replica_fallbacks, 0u);
}

TEST_F(ErasureClusterTest, ShardRepairRestoresFullWidth) {
  Bytes data = rng_.RandomBytes(4 * 4096);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), ByteSpan(data.data(),
                                                             data.size()))
                  .ok());
  VersionRecord before = Record(Name(1));
  NodeId dead = before.chunk_map.chunks.front().shards[0].node;
  ASSERT_TRUE(cluster_->CrashBenefactor(IndexOf(dead)).ok());

  // Let the heartbeat expire, then let repair run.
  std::size_t repairs = 0;
  std::size_t repair_failures = 0;
  for (int i = 0; i < 30; ++i) {
    StdchkCluster::TickReport report = cluster_->Tick(1.0);
    repairs += report.shard_repair_commands;
    repair_failures += report.shard_repair_failures;
  }
  EXPECT_GT(repairs, 0u);
  EXPECT_EQ(repair_failures, 0u);

  // Every group is back to k+m shards on distinct, live benefactors, and
  // the rebuilt shards kept their content addresses.
  VersionRecord after = Record(Name(1));
  ASSERT_EQ(after.chunk_map.chunks.size(), before.chunk_map.chunks.size());
  for (std::size_t c = 0; c < after.chunk_map.chunks.size(); ++c) {
    const ChunkLocation& loc = after.chunk_map.chunks[c];
    std::set<NodeId> nodes;
    for (std::size_t s = 0; s < loc.shards.size(); ++s) {
      EXPECT_EQ(loc.shards[s].id, before.chunk_map.chunks[c].shards[s].id);
      ASSERT_NE(loc.shards[s].node, kInvalidNode);
      EXPECT_NE(loc.shards[s].node, dead);
      nodes.insert(loc.shards[s].node);
    }
    EXPECT_EQ(nodes.size(), loc.shards.size());
  }

  // And no data was lost along the way.
  EXPECT_TRUE(cluster_->manager().TakeLostChunks().empty());
  auto read_back = cluster_->client().ReadFile(Name(1));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), data);
}

TEST_F(ErasureClusterTest, LosingMoreThanMShardsReportsTheGroupLost) {
  Bytes data = rng_.RandomBytes(2 * 4096);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), ByteSpan(data.data(),
                                                             data.size()))
                  .ok());
  VersionRecord record = Record(Name(1));
  const ChunkLocation& first = record.chunk_map.chunks.front();
  // m+1 deaths in one group exceed the loss budget.
  for (int i = 0; i < kM + 1; ++i) {
    ASSERT_TRUE(
        cluster_->CrashBenefactor(IndexOf(first.shards[i].node)).ok());
  }
  for (int i = 0; i < 15; ++i) cluster_->Tick(1.0);

  std::vector<ChunkId> lost = cluster_->manager().TakeLostChunks();
  EXPECT_TRUE(std::find(lost.begin(), lost.end(), first.id) != lost.end())
      << "the group head (whole-chunk id) is the loss signal, not shard ids";
}

TEST_F(ErasureClusterTest, DeletingTheVersionReclaimsShardGroups) {
  Bytes data = rng_.RandomBytes(3 * 4096);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), ByteSpan(data.data(),
                                                             data.size()))
                  .ok());
  cluster_->Settle();
  EXPECT_EQ(cluster_->manager().Counters().shard_records_released, 0u);

  ASSERT_TRUE(cluster_->manager().DeleteVersion(Name(1)).ok());
  // Metadata half: every shard record of the three groups was released.
  EXPECT_EQ(cluster_->manager().Counters().shard_records_released,
            3u * (kK + kM));

  // Physical half: the GC exchange collects the orphaned shards.
  std::size_t reclaimed = 0;
  for (int i = 0; i < 10; ++i) {
    reclaimed += cluster_->Tick(1.0).gc_reclaimed_chunks;
  }
  EXPECT_EQ(reclaimed, 3u * (kK + kM));
}

TEST_F(ErasureClusterTest, SnapshotRoundTripsShardGroups) {
  Bytes data = rng_.RandomBytes(2 * 4096 + 500);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), ByteSpan(data.data(),
                                                             data.size()))
                  .ok());
  VersionRecord before = Record(Name(1));

  Bytes snapshot = cluster_->manager().SaveSnapshot();
  ASSERT_TRUE(cluster_->manager()
                  .LoadSnapshot(ByteSpan(snapshot.data(), snapshot.size()))
                  .ok());

  VersionRecord after = Record(Name(1));
  ASSERT_EQ(after.chunk_map.chunks.size(), before.chunk_map.chunks.size());
  for (std::size_t c = 0; c < after.chunk_map.chunks.size(); ++c) {
    const ChunkLocation& a = after.chunk_map.chunks[c];
    const ChunkLocation& b = before.chunk_map.chunks[c];
    EXPECT_EQ(a.ec_k, b.ec_k);
    EXPECT_EQ(a.ec_m, b.ec_m);
    ASSERT_EQ(a.shards.size(), b.shards.size());
    for (std::size_t s = 0; s < a.shards.size(); ++s) {
      EXPECT_EQ(a.shards[s].id, b.shards[s].id);
      EXPECT_EQ(a.shards[s].node, b.shards[s].node);
    }
  }

  // The promoted standby serves erasure-coded reads.
  auto read_back = cluster_->client().ReadFile(Name(1));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), data);
}

TEST_F(ErasureClusterTest, MixedModeMapsDedupAgainstReplicatedChunks) {
  // A replicated write first; an erasure-coded writer with dedup enabled
  // then reuses those chunks — its map mixes replicated entries (reused)
  // with erasure-coded ones (novel), and the read path serves both.
  Bytes shared = rng_.RandomBytes(2 * 4096);
  Bytes novel = rng_.RandomBytes(2 * 4096);

  ClientOptions plain = cluster_->client().options();
  plain.erasure = {};  // replication mode
  auto replicated_writer = cluster_->MakeClient(plain);
  ASSERT_TRUE(replicated_writer
                  ->WriteFile(Name(1), ByteSpan(shared.data(), shared.size()))
                  .ok());

  ClientOptions dedup = cluster_->client().options();
  dedup.incremental_fsch = true;
  auto ec_writer = cluster_->MakeClient(dedup);
  Bytes both = shared;
  both.insert(both.end(), novel.begin(), novel.end());
  ASSERT_TRUE(
      ec_writer->WriteFile(Name(2), ByteSpan(both.data(), both.size())).ok());

  VersionRecord record = Record(Name(2));
  ASSERT_EQ(record.chunk_map.chunks.size(), 4u);
  int replicated = 0, erasure_coded = 0;
  for (const ChunkLocation& loc : record.chunk_map.chunks) {
    loc.erasure_coded() ? ++erasure_coded : ++replicated;
  }
  EXPECT_EQ(replicated, 2);
  EXPECT_EQ(erasure_coded, 2);

  auto read_back = ec_writer->ReadFile(Name(2));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), both);
}

// ---- Pipelined erasure-coded reads ------------------------------------------

// Crashes `count` benefactors holding shards of the file's first chunk.
void CrashShardHolders(StdchkCluster& cluster, const VersionRecord& record,
                       int count) {
  const ChunkLocation& first = record.chunk_map.chunks.front();
  for (int d = 0; d < count; ++d) {
    NodeId node = first.shards[static_cast<std::size_t>(d)].node;
    for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
      if (cluster.benefactor(i).id() == node) {
        ASSERT_TRUE(cluster.CrashBenefactor(i).ok());
      }
    }
  }
}

TEST_F(ErasureClusterTest, ReadsMatchForEveryAssemblyWidth) {
  for (int dead = 0; dead <= kM; ++dead) {
    ClusterOptions options;
    options.benefactor_count = 9;
    options.client.chunk_size = 4096;
    options.client.erasure = {kK, kM};
    StdchkCluster cluster(options);
    Bytes data = rng_.RandomBytes(12 * 4096 + 1500);
    ASSERT_TRUE(cluster.client().WriteFile(Name(1), data).ok());
    auto record = cluster.manager().GetVersion(Name(1));
    ASSERT_TRUE(record.ok());
    CrashShardHolders(cluster, record.value(), dead);

    std::map<int, ReadStats> by_width;
    for (int workers : {1, 2, 4}) {
      ClientOptions o = cluster.client().options();
      o.hash_workers = workers;
      auto reader = cluster.MakeClient(o)->OpenFile(Name(1));
      ASSERT_TRUE(reader.ok());
      auto got = reader.value()->ReadAll();
      ASSERT_TRUE(got.ok()) << "dead " << dead << " W " << workers << ": "
                            << got.status();
      EXPECT_EQ(got.value(), data) << "dead " << dead << " W " << workers;
      by_width[workers] = reader.value()->stats();
    }

    const ReadStats& serial = by_width[1];
    for (const auto& [workers, rs] : by_width) {
      SCOPED_TRACE("dead " + std::to_string(dead) + " W " +
                   std::to_string(workers));
      EXPECT_EQ(rs.reconstructions, serial.reconstructions);
      EXPECT_EQ(rs.shard_fetches, serial.shard_fetches);
      EXPECT_EQ(rs.parity_shard_fetches, serial.parity_shard_fetches);
      // Each dead-holder shard in a chunk's path is either skipped or its
      // holder's one failed first contact, whatever the window.
      EXPECT_EQ(rs.dead_replica_skips + rs.failovers,
                serial.dead_replica_skips + serial.failovers);
      EXPECT_EQ(rs.full_replica_fallbacks, 0u);
    }
    if (dead > 0) {
      EXPECT_GT(serial.reconstructions, 0u);
    } else {
      EXPECT_EQ(serial.reconstructions, 0u);
      EXPECT_EQ(serial.parity_shard_fetches, 0u);
    }
  }
}

TEST_F(ErasureClusterTest, DeadShardHoldersCostOneFailedRpcEach) {
  Bytes data = rng_.RandomBytes(16 * 4096);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), data).ok());
  CrashShardHolders(*cluster_, Record(Name(1)), kM);

  for (int workers : {1, 4}) {
    ClientOptions o = cluster_->client().options();
    o.hash_workers = workers;
    auto reader = cluster_->MakeClient(o)->OpenFile(Name(1));
    ASSERT_TRUE(reader.ok());
    auto got = reader.value()->ReadAll();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got.value(), data);

    ReadStats rs = reader.value()->stats();
    // First contact with each crashed node fails; every later shard on it
    // is skipped instead of paying another doomed GET.
    EXPECT_LE(rs.failovers, static_cast<std::uint64_t>(kM)) << "W " << workers;
    EXPECT_GT(rs.dead_replica_skips, 0u) << "W " << workers;
    EXPECT_EQ(rs.single_gets, rs.shard_fetches + rs.failovers)
        << "W " << workers;
    EXPECT_GT(rs.parity_shard_fetches, 0u);
  }
}

TEST_F(ErasureClusterTest, RandomOffsetReadAtMatchesSource) {
  Bytes data = rng_.RandomBytes(20 * 4096 + 321);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), data).ok());
  CrashShardHolders(*cluster_, Record(Name(1)), 1);

  for (int workers : {1, 4}) {
    ClientOptions o = cluster_->client().options();
    o.hash_workers = workers;
    auto reader = cluster_->MakeClient(o)->OpenFile(Name(1));
    ASSERT_TRUE(reader.ok());
    Rng jump(7);
    for (int i = 0; i < 60; ++i) {
      std::uint64_t offset = jump.NextBelow(data.size());
      std::size_t want = 1 + static_cast<std::size_t>(jump.NextBelow(9000));
      Bytes buf(want);
      auto n = reader.value()->ReadAt(offset, MutableByteSpan(buf));
      ASSERT_TRUE(n.ok()) << n.status();
      std::size_t expected = std::min<std::size_t>(want, data.size() - offset);
      ASSERT_EQ(n.value(), expected);
      EXPECT_TRUE(std::equal(
          buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(expected),
          data.begin() + static_cast<std::ptrdiff_t>(offset)))
          << "W " << workers << " offset " << offset;
    }
  }
}

// Flips a byte in every delivered GET payload of one shard id, and counts
// the GETs submitted for it.
class TamperingTransport final : public Transport {
 public:
  TamperingTransport(Transport* inner, ChunkId target)
      : inner_(inner), target_(target) {}

  int target_gets() const { return target_gets_; }

  OpHandle Submit(ChunkOp op) override {
    bool hit = op.type == ChunkOpType::kGetChunk && op.id == target_;
    OpHandle h = inner_->Submit(std::move(op));
    if (hit) {
      ++target_gets_;
      tampered_.insert(h);
    }
    return h;
  }
  Result<OpCompletion> Wait(OpHandle handle) override {
    return Tamper(inner_->Wait(handle));
  }
  Result<OpCompletion> WaitAny(std::span<const OpHandle> handles) override {
    return Tamper(inner_->WaitAny(handles));
  }
  std::optional<OpCompletion> Poll(
      std::span<const OpHandle> handles) override {
    std::optional<OpCompletion> c = inner_->Poll(handles);
    if (c.has_value()) c = Tamper(std::move(*c)).value();
    return c;
  }
  bool Cancel(OpHandle handle) override { return inner_->Cancel(handle); }
  std::size_t InFlight() const override { return inner_->InFlight(); }

 private:
  Result<OpCompletion> Tamper(Result<OpCompletion> c) {
    if (!c.ok() || !tampered_.contains(c.value().handle) ||
        !c.value().status.ok() || c.value().data.empty()) {
      return c;
    }
    Bytes evil(c.value().data.span().begin(), c.value().data.span().end());
    evil[0] ^= 0x5A;
    c.value().data = BufferSlice(BufferRef::Take(std::move(evil)));
    return c;
  }

  Transport* inner_;
  ChunkId target_;
  int target_gets_ = 0;
  std::set<OpHandle> tampered_;
};

TEST_F(ErasureClusterTest, TamperedShardFailsOnlyWhenItsChunkIsDemanded) {
  constexpr std::size_t kChunk = 4096;
  Bytes data = rng_.RandomBytes(8 * kChunk);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), data).ok());
  VersionRecord record = Record(Name(1));
  const std::size_t bad = 2;

  for (int workers : {1, 4}) {
    SCOPED_TRACE("W " + std::to_string(workers));
    TamperingTransport tamper(&cluster_->transport(),
                              record.chunk_map.chunks[bad].shards[0].id);
    ClientOptions o = cluster_->client().options();
    o.hash_workers = workers;
    o.read_ahead_chunks = 2;
    ReadSession session(&tamper, record, o);

    // Chunks 0 and 1 read clean, while the bad chunk was already fetched
    // (and, with W > 1, assembled) as read-ahead.
    Bytes head(2 * kChunk);
    auto n = session.ReadAt(0, MutableByteSpan(head));
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_EQ(n.value(), head.size());
    EXPECT_TRUE(std::equal(head.begin(), head.end(), data.begin()));
    EXPECT_GE(tamper.target_gets(), 1);

    // Demanding it fails integrity verification, and not one byte of the
    // bad chunk reaches the caller.
    Bytes buf(kChunk, 0xEE);
    auto bad_read = session.ReadAt(bad * kChunk, MutableByteSpan(buf));
    ASSERT_FALSE(bad_read.ok());
    EXPECT_EQ(bad_read.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(buf, Bytes(kChunk, 0xEE));

    // The session reads on past it.
    Bytes tail(data.size() - (bad + 1) * kChunk);
    auto rest = session.ReadAt((bad + 1) * kChunk, MutableByteSpan(tail));
    ASSERT_TRUE(rest.ok()) << rest.status();
    EXPECT_TRUE(std::equal(
        tail.begin(), tail.end(),
        data.begin() + static_cast<std::ptrdiff_t>((bad + 1) * kChunk)));
  }
}

TEST_F(ErasureClusterTest, TamperedParityFailsOnlyWhenItsChunkIsDemanded) {
  constexpr std::size_t kChunk = 4096;
  Bytes data = rng_.RandomBytes(8 * kChunk);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), data).ok());
  VersionRecord record = Record(Name(1));
  const std::size_t bad = 2;
  const ChunkLocation& loc = record.chunk_map.chunks[bad];
  // With a data-shard holder down, the bad chunk decodes from its first
  // parity shard, which the transport corrupts. Parity is not hashed at
  // the reader: only the decoded shard's own address can catch it.
  ASSERT_TRUE(cluster_->CrashBenefactor(IndexOf(loc.shards[0].node)).ok());

  for (int workers : {1, 4}) {
    SCOPED_TRACE("W " + std::to_string(workers));
    TamperingTransport tamper(&cluster_->transport(), loc.shards[kK].id);
    ClientOptions o = cluster_->client().options();
    o.hash_workers = workers;
    o.read_ahead_chunks = 2;
    ReadSession session(&tamper, record, o);

    Bytes head(2 * kChunk);
    auto n = session.ReadAt(0, MutableByteSpan(head));
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_EQ(n.value(), head.size());
    EXPECT_TRUE(std::equal(head.begin(), head.end(), data.begin()));
    EXPECT_GE(tamper.target_gets(), 1) << "the parity was read ahead";

    Bytes buf(kChunk, 0xEE);
    auto bad_read = session.ReadAt(bad * kChunk, MutableByteSpan(buf));
    ASSERT_FALSE(bad_read.ok());
    EXPECT_EQ(bad_read.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(buf, Bytes(kChunk, 0xEE));

    Bytes tail(data.size() - (bad + 1) * kChunk);
    auto rest = session.ReadAt((bad + 1) * kChunk, MutableByteSpan(tail));
    ASSERT_TRUE(rest.ok()) << rest.status();
    EXPECT_TRUE(std::equal(
        tail.begin(), tail.end(),
        data.begin() + static_cast<std::ptrdiff_t>((bad + 1) * kChunk)));
    EXPECT_GT(session.stats().reconstructions, 0u);
  }
}

TEST_F(ErasureClusterTest, ShardsOfAnotherChunkFailInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "the whole-chunk check runs only in builds without NDEBUG";
#else
  constexpr std::size_t kChunk = 4096;
  Bytes data = rng_.RandomBytes(8 * kChunk);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), data).ok());
  VersionRecord record = Record(Name(1));
  const std::size_t bad = 2;
  // Every shard of the bad chunk matches its own address, but the chunk id
  // names another chunk: the shard list does not belong to it.
  record.chunk_map.chunks[bad].id = record.chunk_map.chunks[bad + 1].id;

  for (int workers : {1, 4}) {
    SCOPED_TRACE("W " + std::to_string(workers));
    ClientOptions o = cluster_->client().options();
    o.hash_workers = workers;
    o.read_ahead_chunks = 2;
    ReadSession session(&cluster_->transport(), record, o);

    Bytes head(bad * kChunk);
    auto n = session.ReadAt(0, MutableByteSpan(head));
    ASSERT_TRUE(n.ok()) << n.status();
    EXPECT_TRUE(std::equal(head.begin(), head.end(), data.begin()));

    Bytes buf(kChunk, 0xEE);
    auto bad_read = session.ReadAt(bad * kChunk, MutableByteSpan(buf));
    ASSERT_FALSE(bad_read.ok());
    EXPECT_EQ(bad_read.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(buf, Bytes(kChunk, 0xEE));

    Bytes tail(data.size() - (bad + 1) * kChunk);
    auto rest = session.ReadAt((bad + 1) * kChunk, MutableByteSpan(tail));
    ASSERT_TRUE(rest.ok()) << rest.status();
    EXPECT_TRUE(std::equal(
        tail.begin(), tail.end(),
        data.begin() + static_cast<std::ptrdiff_t>((bad + 1) * kChunk)));
  }
#endif
}

TEST_F(ErasureClusterTest, RestartsCopyNoPayload) {
  // Fetched shards are served from the benefactor's buffer and decoded
  // ones from the assembly's: the one copy into the caller's buffer is the
  // read path's only one, and it is not a payload duplication.
  Bytes data = rng_.RandomBytes(12 * 4096 + 1500);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), data).ok());
  for (int dead : {0, kM}) {
    if (dead > 0) CrashShardHolders(*cluster_, Record(Name(1)), dead);
    for (int workers : {1, 4}) {
      SCOPED_TRACE("dead " + std::to_string(dead) + " W " +
                   std::to_string(workers));
      ClientOptions o = cluster_->client().options();
      o.hash_workers = workers;
      auto reader = cluster_->MakeClient(o)->OpenFile(Name(1));
      ASSERT_TRUE(reader.ok());
      CopyStatsSnapshot before = copy_stats::Snapshot();
      auto got = reader.value()->ReadAll();
      CopyStatsSnapshot after = copy_stats::Snapshot();
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got.value(), data);
      EXPECT_EQ(after.payload_copies, before.payload_copies);
      EXPECT_EQ(after.payload_copy_bytes, before.payload_copy_bytes);
      EXPECT_EQ(reader.value()->stats().reconstructions > 0, dead > 0);
    }
  }
}

TEST_F(ErasureClusterTest, ReadsSplitExactlyOnShardBoundaries) {
  // 4097-byte chunks: shard width 1025, so each chunk's tail data shard is
  // a short 1022 bytes, and the file's last chunk (1501 bytes) has shards
  // of 376 and a 373-byte tail.
  constexpr std::uint32_t kChunk = 4097;
  constexpr std::uint32_t kLast = 1501;
  ClusterOptions options;
  options.benefactor_count = 9;
  options.client.chunk_size = kChunk;
  options.client.erasure = {kK, kM};
  StdchkCluster cluster(options);
  Bytes data = rng_.RandomBytes(3 * kChunk + kLast);
  ASSERT_TRUE(cluster.client().WriteFile(Name(1), data).ok());
  auto record = cluster.manager().GetVersion(Name(1));
  ASSERT_TRUE(record.ok());
  ASSERT_EQ(record.value().chunk_map.chunks.size(), 4u);

  // Interesting offsets: every shard boundary, one byte either side, and
  // points inside each chunk's short tail shard.
  std::set<std::uint64_t> points{data.size()};
  for (const ChunkLocation& loc : record.value().chunk_map.chunks) {
    const std::size_t width = ErasureShardSize(loc.size, kK);
    for (int s = 0; s < kK; ++s) {
      std::uint64_t at = loc.file_offset + static_cast<std::size_t>(s) * width;
      points.insert({at, at + 1});
      if (at > 0) points.insert(at - 1);
    }
    points.insert(loc.file_offset + loc.size - 2);
  }

  for (int dead : {0, 1}) {
    if (dead > 0) {
      // Down: the holder of the last chunk's tail shard, so that short
      // shard is decoded rather than fetched.
      const ChunkLocation& last = record.value().chunk_map.chunks.back();
      for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
        if (cluster.benefactor(i).id() == last.shards[kK - 1].node) {
          ASSERT_TRUE(cluster.CrashBenefactor(i).ok());
        }
      }
    }
    for (int workers : {1, 4}) {
      ClientOptions o = cluster.client().options();
      o.hash_workers = workers;
      auto reader = cluster.MakeClient(o)->OpenFile(Name(1));
      ASSERT_TRUE(reader.ok());
      for (auto a = points.begin(); a != points.end(); ++a) {
        for (auto b = std::next(a); b != points.end(); ++b) {
          Bytes buf(static_cast<std::size_t>(*b - *a));
          auto n = reader.value()->ReadAt(*a, MutableByteSpan(buf));
          ASSERT_TRUE(n.ok()) << n.status();
          ASSERT_EQ(n.value(), buf.size());
          ASSERT_TRUE(std::equal(
              buf.begin(), buf.end(),
              data.begin() + static_cast<std::ptrdiff_t>(*a)))
              << "dead " << dead << " W " << workers << " [" << *a << ", "
              << *b << ")";
        }
      }
      EXPECT_EQ(reader.value()->stats().reconstructions > 0, dead > 0)
          << "W " << workers;
    }
  }
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

TEST_F(ErasureClusterTest, SessionDestroyedWithAssembliesInFlight) {
  Bytes data = rng_.RandomBytes(12 * 4096);
  ASSERT_TRUE(cluster_->client().WriteFile(Name(1), data).ok());
  CrashShardHolders(*cluster_, Record(Name(1)), 1);
  ClientOptions o = cluster_->client().options();
  o.hash_workers = 4;
  auto client = cluster_->MakeClient(o);

  // Workers busy: the read-ahead assemblies stay queued until the
  // destructor awaits them.
  {
    PoolBlocker blocker(HashPool::Shared());
    auto reader = client->OpenFile(Name(1));
    ASSERT_TRUE(reader.ok());
    Bytes head(4096);
    ASSERT_TRUE(reader.value()->ReadAt(0, MutableByteSpan(head)).ok());
    EXPECT_TRUE(std::equal(head.begin(), head.end(), data.begin()));
    EXPECT_GT(reader.value()->stats().inflight_peak, 1u);
  }
  // Workers free: the destructor races assemblies already running.
  for (int round = 0; round < 10; ++round) {
    auto reader = client->OpenFile(Name(1));
    ASSERT_TRUE(reader.ok());
    Bytes head(4096);
    ASSERT_TRUE(reader.value()->ReadAt(0, MutableByteSpan(head)).ok());
  }
}

// ---- Shard encode in the write session's naming window ----------------------

TEST_F(ErasureClusterTest, AbortAndDestroyWithShardEncodesQueued) {
  ClientOptions o = cluster_->client().options();
  o.protocol = WriteProtocol::kSlidingWindow;
  o.hash_workers = 4;  // a window of four chunk-sizes
  auto client = cluster_->MakeClient(o);
  Bytes data = rng_.RandomBytes(3 * 4096);  // three chunks: window not full

  if (HashPool::Shared().worker_threads() > 0) {
    // Encode and naming tasks that no worker has claimed yet.
    PoolBlocker blocker(HashPool::Shared());
    auto aborted = client->CreateFile(Name(1));
    ASSERT_TRUE(aborted.ok());
    ASSERT_TRUE(aborted.value()->Write(data).ok());
    EXPECT_EQ(aborted.value()->stats().bytes_transferred, 0u);
    EXPECT_EQ(aborted.value()->stats().erasure_encoded_chunks, 0u);
    aborted.value()->Abort();

    auto dropped = client->CreateFile(Name(2));
    ASSERT_TRUE(dropped.ok());
    ASSERT_TRUE(dropped.value()->Write(data).ok());
    EXPECT_EQ(dropped.value()->stats().bytes_transferred, 0u);
    dropped.value().reset();  // destroyed without Abort or Close
  }
  // Encodes racing the abort on live workers.
  for (std::uint64_t t = 3; t < 23; ++t) {
    auto session = client->CreateFile(Name(t));
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session.value()->Write(data).ok());
    if (t % 2 == 0) session.value()->Abort();
  }

  for (std::uint64_t t = 1; t < 23; ++t) {
    EXPECT_FALSE(cluster_->manager().GetVersion(Name(t)).ok()) << t;
  }
  ASSERT_TRUE(client->WriteFile(Name(100), data).ok());
  auto read_back = client->ReadFile(Name(100));
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(read_back.value(), data);
}

TEST_F(ErasureClusterTest, StripeDeathWhileShardsInWindowRetriesToCommit) {
  if (HashPool::Shared().worker_threads() == 0) {
    GTEST_SKIP() << "an inline pool encodes and pushes before Write() returns";
  }
  // Exactly k+m benefactors: a dead stripe member has no replacement, so
  // the first flush fails; once it is back, the retry re-sends the shards
  // encoded in the window and commits.
  ClusterOptions options;
  options.benefactor_count = kK + kM;
  options.client.chunk_size = 4096;
  options.client.erasure = {kK, kM};
  options.client.protocol = WriteProtocol::kSlidingWindow;
  options.client.hash_workers = 4;
  StdchkCluster cluster(options);
  Bytes data = rng_.RandomBytes(5 * 4096 + 100);
  ByteSpan all(data);

  auto session = cluster.client().CreateFile(Name(1));
  ASSERT_TRUE(session.ok());
  {
    PoolBlocker blocker(HashPool::Shared());
    ASSERT_TRUE(session.value()->Write(all.first(2 * 4096)).ok());
    // Both chunks are sealed but neither encoded nor named: in the window.
    EXPECT_EQ(session.value()->stats().bytes_transferred, 0u);
    ASSERT_TRUE(cluster.CrashBenefactor(1).ok());
  }

  // Three more chunks overfill the window, so this Write() must push the
  // first two — and report that it could not.
  Status write = session.value()->Write(all.subspan(2 * 4096));
  EXPECT_EQ(write.code(), StatusCode::kUnavailable) << write;
  EXPECT_LT(session.value()->stats().parity_shards_written +
                session.value()->stats().data_shards_written,
            2u * (kK + kM))
      << "no shard may land on the dead node";

  ASSERT_TRUE(cluster.RestartBenefactor(1).ok());
  auto closed = session.value()->Close();
  ASSERT_TRUE(closed.ok()) << closed.status();
  const WriteStats& ws = session.value()->stats();
  EXPECT_EQ(ws.erasure_encoded_chunks, 6u);
  EXPECT_EQ(ws.chunks_total, 6u);

  auto record = cluster.manager().GetVersion(Name(1));
  ASSERT_TRUE(record.ok()) << record.status();
  ASSERT_EQ(record.value().chunk_map.chunks.size(), 6u);
  for (const ChunkLocation& loc : record.value().chunk_map.chunks) {
    ASSERT_EQ(loc.shards.size(), static_cast<std::size_t>(kK + kM));
    std::set<NodeId> nodes;
    for (const ShardLocation& sl : loc.shards) nodes.insert(sl.node);
    EXPECT_EQ(nodes.size(), loc.shards.size());
  }
  auto read_back = cluster.client().ReadFile(Name(1));
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(read_back.value(), data);
}

}  // namespace
}  // namespace stdchk
