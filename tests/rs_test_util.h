// Reed-Solomon test helpers over the data-path entry points only: a block is
// sharded the way the write session shards a chunk (k unpadded data-shard
// views of ErasureShardSize width plus EncodeParity over them), and rebuilt
// from any k survivors with RecoverShards, the way ReadSession decodes.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "chunk/chunk.h"
#include "common/bytes.h"
#include "common/status.h"
#include "erasure/reed_solomon.h"

namespace stdchk {

struct EncodedBlock {
  std::size_t shard_size = 0;
  std::vector<ByteSpan> data;  // k views into the block; the tail is short
  std::vector<Bytes> parity;   // m full-width shards

  // All k+m shards, data first, every one present.
  std::vector<std::optional<ByteSpan>> Shards() const {
    std::vector<std::optional<ByteSpan>> shards(data.begin(), data.end());
    for (const Bytes& p : parity) shards.emplace_back(ByteSpan(p));
    return shards;
  }
};

inline EncodedBlock EncodeShards(const ReedSolomon& rs, ByteSpan block) {
  const int k = rs.data_shards();
  const auto size = static_cast<std::uint32_t>(block.size());
  EncodedBlock out;
  out.shard_size = ErasureShardSize(size, k);
  for (int s = 0; s < k; ++s) {
    std::size_t offset =
        std::min(static_cast<std::size_t>(s) * out.shard_size, block.size());
    out.data.push_back(block.subspan(offset, ErasureShardLength(size, k, s)));
  }
  out.parity = rs.EncodeParity(out.data, out.shard_size).value();
  return out;
}

// Rebuilds a block of `size` bytes from `shards` (k+m slots, std::nullopt
// marks a loss): lost data shards are recovered at their stored length and
// the k data shards are concatenated.
inline Result<Bytes> DecodeShards(
    const ReedSolomon& rs, const std::vector<std::optional<ByteSpan>>& shards,
    std::size_t size) {
  const int k = rs.data_shards();
  const auto chunk = static_cast<std::uint32_t>(size);
  std::vector<int> want;
  std::vector<Bytes> recovered;
  for (int s = 0; s < k; ++s) {
    std::size_t len = ErasureShardLength(chunk, k, s);
    if (len > 0 && !shards[static_cast<std::size_t>(s)].has_value()) {
      want.push_back(s);
      recovered.emplace_back(len);
    }
  }
  std::vector<MutableByteSpan> outs(recovered.begin(), recovered.end());
  STDCHK_RETURN_IF_ERROR(
      rs.RecoverShards(shards, ErasureShardSize(chunk, k), want, outs));
  Bytes block;
  block.reserve(size);
  std::size_t next = 0;
  for (int s = 0; s < k; ++s) {
    std::size_t len = ErasureShardLength(chunk, k, s);
    if (len == 0) continue;
    const auto& shard = shards[static_cast<std::size_t>(s)];
    ByteSpan bytes = shard.has_value() ? *shard : ByteSpan(recovered[next++]);
    block.insert(block.end(), bytes.begin(), bytes.end());
  }
  return block;
}

}  // namespace stdchk
