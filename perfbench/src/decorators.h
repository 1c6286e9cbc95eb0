// Tracing decorators for the layer interfaces the traced run observes.
//
// Each forwards every virtual method of the interface it wraps to the
// wrapped object, so a traced run executes the same program as an untraced
// one: the store still receives whole batches through PutBatch (a wrapper
// that left PutBatch to the base class would fall back to per-chunk Put and
// change the disk I/O pattern), and the chunker still hands out its native
// streaming scanner. What they add is a span around each call (and, for
// the transport, op counts and an in-flight read after each Submit).
#pragma once

#include <array>
#include <atomic>
#include <memory>

#include "chkpt/chunker.h"
#include "chunk/chunk_store.h"
#include "client/transport.h"
#include "trace.h"

namespace perfbench {

// Span names: "chunk.put", "chunk.put_batch", "chunk.get", "chunk.delete",
// "chunk.wipe", "chunk.list", "chunk.compact".
class TracedStore final : public stdchk::ChunkStore {
 public:
  TracedStore(std::unique_ptr<stdchk::ChunkStore> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  using ChunkStore::Put;
  stdchk::Status Put(const stdchk::ChunkId& id,
                     stdchk::BufferSlice data) override;
  stdchk::Status PutBatch(std::span<const stdchk::ChunkPut> puts) override;
  stdchk::Result<stdchk::BufferSlice> Get(
      const stdchk::ChunkId& id) const override;
  bool Contains(const stdchk::ChunkId& id) const override;
  stdchk::Status Delete(const stdchk::ChunkId& id) override;
  stdchk::Status Wipe() override;
  std::vector<stdchk::ChunkId> List() const override;
  std::uint64_t BytesUsed() const override;
  std::size_t ChunkCount() const override;
  std::uint64_t ResidentBytes() const override;
  stdchk::Result<stdchk::CompactionStepReport> CompactStep(
      const stdchk::CompactionPolicy& policy) override;
  stdchk::ChunkStoreStats Stats() const override;

 private:
  std::unique_ptr<stdchk::ChunkStore> inner_;
  Tracer* tracer_;
};

// Span names: "transport.submit", "transport.wait", "transport.poll".
// Also counts submitted ops by type and the inner transport's in-flight
// high watermark. Thread-safe: one instance serves every client.
class TracedTransport final : public stdchk::Transport {
 public:
  TracedTransport(stdchk::Transport* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  stdchk::OpHandle Submit(stdchk::ChunkOp op) override;
  stdchk::Result<stdchk::OpCompletion> Wait(stdchk::OpHandle handle) override;
  stdchk::Result<stdchk::OpCompletion> WaitAny(
      std::span<const stdchk::OpHandle> handles) override;
  std::optional<stdchk::OpCompletion> Poll(
      std::span<const stdchk::OpHandle> handles) override;
  bool Cancel(stdchk::OpHandle handle) override;
  std::size_t InFlight() const override;

  std::uint64_t ops(stdchk::ChunkOpType type) const {
    return ops_[static_cast<std::size_t>(type)].load();
  }
  std::size_t inflight_peak() const { return inflight_peak_.load(); }

 private:
  stdchk::Transport* inner_;
  Tracer* tracer_;
  std::array<std::atomic<std::uint64_t>, 6> ops_{};  // one per ChunkOpType
  std::atomic<std::size_t> inflight_peak_{0};
};

// Span names: "chkpt.split", "chkpt.split_sealed", and "chkpt.scan" around
// each Feed/Finish of the scanners it hands out.
class TracedChunker final : public stdchk::Chunker {
 public:
  TracedChunker(std::shared_ptr<const stdchk::Chunker> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::vector<stdchk::ChunkSpan> Split(stdchk::ByteSpan data) const override;
  std::vector<stdchk::ChunkSpan> SplitSealed(
      stdchk::ByteSpan data) const override;
  std::unique_ptr<stdchk::ChunkScanner> MakeScanner() const override;
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const stdchk::Chunker> inner_;
  Tracer* tracer_;
};

}  // namespace perfbench
