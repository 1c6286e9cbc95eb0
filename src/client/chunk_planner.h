// Layer 1 of the staged write engine: buffering and chunk-boundary
// decisions.
//
// The planner accepts the application's byte stream and carves it into
// content-addressed chunks under any Chunker — FsCH for the paper's
// fixed-size transfer chunks, CbCH for shift-resilient incremental
// checkpointing (§IV.C). Boundaries are found by the chunker's streaming
// ChunkScanner as bytes arrive: each byte is scanned exactly once, no
// matter how often the protocols drain (the old re-offer-the-suffix
// discipline re-scanned CbCH tails O(n·drains) times). A chunk is only
// released once no amount of future data can move its edges, so the chunk
// map is a pure function of file content, independent of Write() call
// granularity or drain timing.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chkpt/chunker.h"
#include "chunk/chunk.h"
#include "common/buffer.h"
#include "common/bytes.h"

namespace stdchk {

// A chunk the planner has sealed: a ref-counted slice of the drained
// buffer generation plus its content address, which the write session's
// naming window fills in (the planner leaves it empty). The slice keeps
// the generation alive for as long as any of its chunks is still pending —
// no per-chunk copies, so a CLW close-drain of a large image stays at ~1x
// the image in memory.
//
// In an erasure-coded session the window also fills `shards` — the k
// data-shard views of `data` and the m parity shards — and each shard's
// content address, so the uploader only places them and a retried flush
// re-sends the same shards instead of re-encoding.
struct StagedChunk {
  ChunkId id;
  BufferSlice data;
  std::vector<BufferSlice> shards;
  std::vector<ChunkId> shard_ids;
};

class ChunkPlanner {
 public:
  explicit ChunkPlanner(std::shared_ptr<const Chunker> chunker);

  // Buffers more application data (checkpoint images arrive sequentially)
  // and runs the streaming boundary scan over it — the single
  // materialization point of the write path.
  void Append(ByteSpan data);

  // Bytes accepted but not yet drained — the client-side spill/window the
  // three protocols manage differently.
  std::size_t buffered_bytes() const { return buffer_.size(); }

  // Removes and returns chunks whose boundaries are sealed, unnamed.
  // `final` seals the tail as well (close-time drain); afterwards the
  // planner is empty.
  std::vector<StagedChunk> Drain(bool final);

  const Chunker& chunker() const { return *chunker_; }

 private:
  std::shared_ptr<const Chunker> chunker_;
  std::unique_ptr<ChunkScanner> scanner_;
  Bytes buffer_;                 // bytes from the last drained boundary on
  std::uint64_t buffer_start_ = 0;  // absolute stream offset of buffer_[0]
  // Sealed boundaries (absolute stream offsets) not yet drained.
  std::vector<std::uint64_t> sealed_ends_;
};

}  // namespace stdchk
