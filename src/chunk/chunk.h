// Chunk vocabulary: stdchk fragments every dataset into fixed-size chunks
// that are striped across benefactor nodes (paper §IV.A). Chunks are named
// by the SHA-1 of their content ("content based addressability", §IV.C),
// which both enables incremental-checkpoint dedup and lets any reader verify
// integrity against tampering by faulty benefactors.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/hash.h"

namespace stdchk {

// The default chunk size used throughout the paper's evaluation.
inline constexpr std::size_t kDefaultChunkSize = 1_MiB;

// Content address of a chunk.
struct ChunkId {
  Sha1Digest digest;

  auto operator<=>(const ChunkId&) const = default;
  std::string ToHex() const { return digest.ToHex(); }

  static ChunkId For(ByteSpan data) { return ChunkId{Sha1(data)}; }

  // Slices stamped at naming time answer from the memo in O(1); unstamped
  // slices (disk reads, copies, external callers) pay the full hash.
  static ChunkId For(const BufferSlice& data) {
    if (const Sha1Digest* d = data.stamped_digest()) return ChunkId{*d};
    return For(data.span());
  }
};

struct ChunkIdHash {
  std::size_t operator()(const ChunkId& id) const {
    return static_cast<std::size_t>(id.digest.Prefix64());
  }
};

// One entry of a file's chunk map: which chunk, where it sits in the file,
// and which benefactors hold replicas.
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

// One shard of an erasure-coded chunk: its own content address (the SHA-1
// of the stored shard bytes, so benefactor put/get integrity checks work
// unchanged) and the single benefactor holding it. kInvalidNode marks a
// shard whose holder departed (awaiting repair).
struct ShardLocation {
  ChunkId id;
  NodeId node = kInvalidNode;

  auto operator<=>(const ShardLocation&) const = default;
};

struct ChunkLocation {
  ChunkLocation() = default;
  ChunkLocation(ChunkId chunk_id, std::uint64_t offset, std::uint32_t len,
                std::vector<NodeId> nodes)
      : id(chunk_id),
        file_offset(offset),
        size(len),
        replicas(std::move(nodes)) {}

  ChunkId id;
  std::uint64_t file_offset = 0;
  std::uint32_t size = 0;
  std::vector<NodeId> replicas;  // benefactor nodes holding this chunk

  // Erasure-coded placement (ClientOptions::erasure): instead of whole
  // replicas, the chunk is striped into ec_k data + ec_m parity shards on
  // distinct benefactors — `shards` lists them in shard order (data first,
  // then parity) and `replicas` stays empty (zero full copies, ~(k+m)/k
  // storage overhead). A reader checks every data shard it serves, fetched
  // or decoded, against that shard's id; parity is checked only through
  // the shards decoded from it. `id` remains the whole-chunk content
  // address, the chunk-map and dedup key; the read path re-checks it over
  // the verified shards only in builds without NDEBUG. Shard sizes are
  // derived, not stored: ErasureShardSize/ErasureShardLength below.
  std::uint16_t ec_k = 0;
  std::uint16_t ec_m = 0;
  std::vector<ShardLocation> shards;

  bool erasure_coded() const { return ec_k > 0; }
};

// Nominal shard width of an erasure-coded chunk: ceil(size / k).
inline std::size_t ErasureShardSize(std::uint32_t chunk_size, int k) {
  return (static_cast<std::size_t>(chunk_size) + static_cast<std::size_t>(k) -
          1) /
         static_cast<std::size_t>(k);
}

// Stored length of shard `index` (0-based, data shards first): data shards
// are stored unpadded — the tail shard is short (possibly empty) and the
// codec treats it as virtually zero-padded — while parity shards are always
// full width.
inline std::size_t ErasureShardLength(std::uint32_t chunk_size, int k,
                                      int index) {
  std::size_t shard_size = ErasureShardSize(chunk_size, k);
  if (index >= k) return shard_size;
  std::size_t offset = static_cast<std::size_t>(index) * shard_size;
  if (offset >= chunk_size) return 0;
  return std::min(shard_size, static_cast<std::size_t>(chunk_size) - offset);
}

// One element of a batched multi-chunk store request (the write engine
// coalesces per-benefactor puts into one RPC). `data` shares the sender's
// staging buffers — receivers may alias it (zero-copy) or hold it past the
// call; the refcount keeps the backing alive.
struct ChunkPut {
  ChunkPut() = default;
  ChunkPut(ChunkId put_id, BufferSlice put_data)
      : id(put_id), data(std::move(put_data)) {}

  ChunkId id;
  BufferSlice data;

  // Shard-group tag for erasure-coded uploads: the whole-chunk id this put
  // is a shard of, and its position in the group (data shards first). A
  // default-constructed group (shard_index < 0) marks a plain whole-chunk
  // put. Benefactors store shards like any content-addressed chunk; the tag
  // rides along for observability and wire-protocol parity.
  ChunkId group;
  std::int32_t shard_index = -1;
};

// The chunk map of one file version: ordered chunk locations covering
// [0, file_size). Committed atomically to the manager at close() — this
// atomic commit is what provides session semantics (§IV.A).
struct ChunkMap {
  std::vector<ChunkLocation> chunks;

  std::uint64_t FileSize() const {
    return chunks.empty()
               ? 0
               : chunks.back().file_offset + chunks.back().size;
  }
};

}  // namespace stdchk
