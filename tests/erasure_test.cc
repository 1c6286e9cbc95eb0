#include "erasure/reed_solomon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>

#include "chunk/chunk.h"
#include "common/rng.h"
#include "erasure/gf256.h"
#include "rs_test_util.h"

namespace stdchk {
namespace {

TEST(Gf256Test, AddIsXor) {
  EXPECT_EQ(gf256::Add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(gf256::Add(7, 7), 0);
}

TEST(Gf256Test, MulIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(gf256::Mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(gf256::Mul(static_cast<std::uint8_t>(a), 0), 0);
    EXPECT_EQ(gf256::Mul(0, static_cast<std::uint8_t>(a)), 0);
  }
}

TEST(Gf256Test, MulCommutativeAssociative) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto a = static_cast<std::uint8_t>(rng.Next());
    auto b = static_cast<std::uint8_t>(rng.Next());
    auto c = static_cast<std::uint8_t>(rng.Next());
    EXPECT_EQ(gf256::Mul(a, b), gf256::Mul(b, a));
    EXPECT_EQ(gf256::Mul(gf256::Mul(a, b), c), gf256::Mul(a, gf256::Mul(b, c)));
  }
}

TEST(Gf256Test, MulDistributesOverAdd) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    auto a = static_cast<std::uint8_t>(rng.Next());
    auto b = static_cast<std::uint8_t>(rng.Next());
    auto c = static_cast<std::uint8_t>(rng.Next());
    EXPECT_EQ(gf256::Mul(a, gf256::Add(b, c)),
              gf256::Add(gf256::Mul(a, b), gf256::Mul(a, c)));
  }
}

TEST(Gf256Test, InverseRoundTrips) {
  for (int a = 1; a < 256; ++a) {
    auto inv = gf256::Inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(gf256::Mul(static_cast<std::uint8_t>(a), inv), 1) << a;
    EXPECT_EQ(gf256::Div(1, static_cast<std::uint8_t>(a)), inv);
  }
}

TEST(Gf256Test, DivInvertsMul) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    auto a = static_cast<std::uint8_t>(rng.Next());
    auto b = static_cast<std::uint8_t>(rng.NextInRange(1, 255));
    EXPECT_EQ(gf256::Div(gf256::Mul(a, b), b), a);
  }
}

TEST(Gf256Test, KnownProduct) {
  // 0x53 * 0xCA = 0x01 in AES-polynomial GF(256)... (0x11B). We use 0x11D,
  // where the classic known pair is 2 * 0x8E = 1 (0x8E = inverse of 2).
  EXPECT_EQ(gf256::Mul(2, gf256::Inv(2)), 1);
  EXPECT_EQ(gf256::Exp(0), 1);
  EXPECT_EQ(gf256::Exp(1), 2);
  EXPECT_EQ(gf256::Exp(255), 1);  // order of the multiplicative group
}

TEST(Gf256Test, MulAccumMatchesScalarLoop) {
  Rng rng(4);
  Bytes src = rng.RandomBytes(1000);
  Bytes dst1 = rng.RandomBytes(1000);
  Bytes dst2 = dst1;
  std::uint8_t c = 0x5A;
  gf256::MulAccum(c, src.data(), dst1.data(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst2[i] = gf256::Add(dst2[i], gf256::Mul(c, src[i]));
  }
  EXPECT_EQ(dst1, dst2);
}

// ---- Reed-Solomon -----------------------------------------------------------

struct RsCase {
  int k;
  int m;
};

class ReedSolomonTest : public ::testing::TestWithParam<RsCase> {};

TEST_P(ReedSolomonTest, SurvivesEveryLossPatternUpToM) {
  const auto [k, m] = GetParam();
  auto rs = ReedSolomon::Create(k, m);
  ASSERT_TRUE(rs.ok());

  Rng rng(static_cast<std::uint64_t>(k * 100 + m));
  Bytes data = rng.RandomBytes(static_cast<std::size_t>(k) * 257 + 13);
  EncodedBlock encoded = EncodeShards(*rs, data);
  ASSERT_EQ(encoded.parity.size(), static_cast<std::size_t>(m));

  // Knock out m shards at rotating positions; always recoverable.
  for (int start = 0; start < k + m; ++start) {
    std::vector<std::optional<ByteSpan>> damaged = encoded.Shards();
    for (int loss = 0; loss < m; ++loss) {
      damaged[static_cast<std::size_t>((start + loss * 2) % (k + m))] =
          std::nullopt;
    }
    auto decoded = DecodeShards(*rs, damaged, data.size());
    ASSERT_TRUE(decoded.ok()) << "start=" << start;
    EXPECT_EQ(decoded.value(), data);
  }
}

TEST_P(ReedSolomonTest, ReconstructRestoresParityToo) {
  const auto [k, m] = GetParam();
  auto rs = ReedSolomon::Create(k, m);
  ASSERT_TRUE(rs.ok());
  Rng rng(static_cast<std::uint64_t>(k * 7 + m));
  Bytes data = rng.RandomBytes(static_cast<std::size_t>(k) * 64);
  EncodedBlock encoded = EncodeShards(*rs, data);
  std::vector<std::optional<ByteSpan>> damaged = encoded.Shards();

  // Lose the last parity shard, plus a data shard when m allows two losses.
  std::vector<int> lost{k + m - 1};
  if (m >= 2) lost.insert(lost.begin(), 0);
  for (int s : lost) damaged[static_cast<std::size_t>(s)] = std::nullopt;

  // Recovering parity takes full-width outputs for every wanted shard.
  std::vector<Bytes> recovered(lost.size(), Bytes(encoded.shard_size, 0));
  std::vector<MutableByteSpan> outs(recovered.begin(), recovered.end());
  ASSERT_TRUE(rs->RecoverShards(damaged, encoded.shard_size, lost, outs).ok());
  std::vector<std::optional<ByteSpan>> original = encoded.Shards();
  for (std::size_t w = 0; w < lost.size(); ++w) {
    ByteSpan want = *original[static_cast<std::size_t>(lost[w])];
    EXPECT_EQ(recovered[w], Bytes(want.begin(), want.end()))
        << "shard " << lost[w];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ReedSolomonTest,
    ::testing::Values(RsCase{1, 1}, RsCase{2, 1}, RsCase{4, 2}, RsCase{8, 2},
                      RsCase{8, 3}, RsCase{10, 4}, RsCase{16, 4}),
    [](const auto& info) {
      return "k" + std::to_string(info.param.k) + "m" +
             std::to_string(info.param.m);
    });

TEST(ReedSolomonTest, FailsBeyondMLosses) {
  auto rs = ReedSolomon::Create(4, 2);
  ASSERT_TRUE(rs.ok());
  Rng rng(9);
  Bytes data = rng.RandomBytes(4096);
  EncodedBlock encoded = EncodeShards(*rs, data);
  std::vector<std::optional<ByteSpan>> damaged = encoded.Shards();
  damaged[0] = damaged[1] = damaged[2] = std::nullopt;  // 3 > m = 2
  Bytes out(encoded.shard_size);
  EXPECT_EQ(rs->RecoverShards(damaged, encoded.shard_size, {0},
                              {MutableByteSpan(out)})
                .code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeShards(*rs, damaged, data.size()).status().code(),
            StatusCode::kDataLoss);
}

TEST(ReedSolomonTest, NoLossIsNoOp) {
  auto rs = ReedSolomon::Create(3, 2);
  ASSERT_TRUE(rs.ok());
  Bytes data = ToBytes("erasure coded checkpoint data");
  EncodedBlock encoded = EncodeShards(*rs, data);
  std::vector<std::optional<ByteSpan>> intact = encoded.Shards();
  // Nothing wanted: nothing to do.
  ASSERT_TRUE(rs->RecoverShards(intact, encoded.shard_size, {}, {}).ok());
  // A present shard that is wanted anyway comes back as it is.
  Bytes copy(encoded.data[1].size());
  ASSERT_TRUE(rs->RecoverShards(intact, encoded.shard_size, {1},
                                {MutableByteSpan(copy)})
                  .ok());
  EXPECT_TRUE(std::equal(copy.begin(), copy.end(), encoded.data[1].begin()));
  auto decoded = DecodeShards(*rs, intact, data.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), data);
}

TEST(ReedSolomonTest, ValidatesParameters) {
  EXPECT_FALSE(ReedSolomon::Create(0, 1).ok());
  EXPECT_FALSE(ReedSolomon::Create(1, 0).ok());
  EXPECT_FALSE(ReedSolomon::Create(200, 100).ok());
  EXPECT_TRUE(ReedSolomon::Create(251, 4).ok());
}

TEST(ReedSolomonTest, EncodeParityRejectsOversizedViewsAndWrongCount) {
  auto rs = ReedSolomon::Create(2, 1);
  ASSERT_TRUE(rs.ok());
  Bytes a(10, 1), b(11, 2);
  // Shorter views are virtual zero padding; a longer one is an error.
  EXPECT_TRUE(rs->EncodeParity({ByteSpan(a), ByteSpan(b)}, 11).ok());
  EXPECT_FALSE(rs->EncodeParity({ByteSpan(a), ByteSpan(b)}, 10).ok());
  EXPECT_FALSE(rs->EncodeParity({ByteSpan(a)}, 10).ok());
}

TEST(ReedSolomonTest, TinyAndEmptyPayloads) {
  auto rs = ReedSolomon::Create(4, 2);
  ASSERT_TRUE(rs.ok());
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{4}, std::size_t{5}}) {
    Rng rng(n + 1);
    Bytes data = rng.RandomBytes(n);
    EncodedBlock encoded = EncodeShards(*rs, data);
    std::vector<std::optional<ByteSpan>> damaged = encoded.Shards();
    damaged[1] = std::nullopt;
    damaged[4] = std::nullopt;
    auto decoded = DecodeShards(*rs, damaged, n);
    ASSERT_TRUE(decoded.ok()) << n;
    EXPECT_EQ(decoded.value(), data);
  }
}

TEST(ReedSolomonTest, ParityRowsMatchEncodeParity) {
  // Per-row encoding (the write session runs one row per pool task) against
  // the whole-block EncodeParity and, independently, against parity
  // recovered from the data shards, over short and empty tail views.
  for (auto [k, m] : {std::pair{4, 2}, std::pair{3, 3}, std::pair{6, 1}}) {
    auto rs = ReedSolomon::Create(k, m);
    ASSERT_TRUE(rs.ok());
    for (std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                             std::size_t{4096}, std::size_t{4097},
                             std::size_t{3 * 4096 + 1234}}) {
      SCOPED_TRACE("k " + std::to_string(k) + " m " + std::to_string(m) +
                   " size " + std::to_string(size));
      Rng rng(size + 7);
      Bytes data = rng.RandomBytes(size);
      const auto chunk = static_cast<std::uint32_t>(size);
      const std::size_t shard_size = ErasureShardSize(chunk, k);
      std::vector<ByteSpan> views;
      std::vector<std::optional<ByteSpan>> shards;
      for (int j = 0; j < k; ++j) {
        views.push_back(ByteSpan(data).subspan(
            std::min(static_cast<std::size_t>(j) * shard_size, size),
            ErasureShardLength(chunk, k, j)));
        shards.emplace_back(views.back());
      }
      shards.resize(static_cast<std::size_t>(k + m));  // parity lost
      auto parity = rs->EncodeParity(views, shard_size);
      ASSERT_TRUE(parity.ok());
      ASSERT_EQ(parity.value().size(), static_cast<std::size_t>(m));

      for (int r = m - 1; r >= 0; --r) {  // any order, one buffer each
        Bytes row(shard_size, 0);
        rs->EncodeParityRow(views, r, MutableByteSpan(row));
        EXPECT_EQ(row, parity.value()[static_cast<std::size_t>(r)])
            << "row " << r;
        Bytes recovered(shard_size, 0);
        ASSERT_TRUE(rs->RecoverShards(shards, shard_size, {k + r},
                                      {MutableByteSpan(recovered)})
                        .ok());
        EXPECT_EQ(row, recovered) << "row " << r;
      }
    }
  }
}

}  // namespace
}  // namespace stdchk
