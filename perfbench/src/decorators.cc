#include "decorators.h"

namespace perfbench {

using stdchk::BufferSlice;
using stdchk::ChunkId;
using stdchk::OpCompletion;
using stdchk::OpHandle;
using stdchk::Result;
using stdchk::Status;

// ---- TracedStore ------------------------------------------------------------

Status TracedStore::Put(const ChunkId& id, BufferSlice data) {
  Tracer::Scope span(tracer_, "chunk.put");
  return inner_->Put(id, std::move(data));
}

Status TracedStore::PutBatch(std::span<const stdchk::ChunkPut> puts) {
  Tracer::Scope span(tracer_, "chunk.put_batch");
  return inner_->PutBatch(puts);
}

Result<BufferSlice> TracedStore::Get(const ChunkId& id) const {
  Tracer::Scope span(tracer_, "chunk.get");
  return inner_->Get(id);
}

bool TracedStore::Contains(const ChunkId& id) const {
  return inner_->Contains(id);
}

Status TracedStore::Delete(const ChunkId& id) {
  Tracer::Scope span(tracer_, "chunk.delete");
  return inner_->Delete(id);
}

Status TracedStore::Wipe() {
  Tracer::Scope span(tracer_, "chunk.wipe");
  return inner_->Wipe();
}

std::vector<ChunkId> TracedStore::List() const {
  Tracer::Scope span(tracer_, "chunk.list");
  return inner_->List();
}

std::uint64_t TracedStore::BytesUsed() const { return inner_->BytesUsed(); }

std::size_t TracedStore::ChunkCount() const { return inner_->ChunkCount(); }

std::uint64_t TracedStore::ResidentBytes() const {
  return inner_->ResidentBytes();
}

Result<stdchk::CompactionStepReport> TracedStore::CompactStep(
    const stdchk::CompactionPolicy& policy) {
  Tracer::Scope span(tracer_, "chunk.compact");
  return inner_->CompactStep(policy);
}

stdchk::ChunkStoreStats TracedStore::Stats() const { return inner_->Stats(); }

// ---- TracedTransport --------------------------------------------------------

OpHandle TracedTransport::Submit(stdchk::ChunkOp op) {
  ops_[static_cast<std::size_t>(op.type)].fetch_add(1);
  OpHandle handle;
  {
    Tracer::Scope span(tracer_, "transport.submit");
    handle = inner_->Submit(std::move(op));
  }
  std::size_t inflight = inner_->InFlight();
  std::size_t peak = inflight_peak_.load();
  while (inflight > peak &&
         !inflight_peak_.compare_exchange_weak(peak, inflight)) {
  }
  return handle;
}

Result<OpCompletion> TracedTransport::Wait(OpHandle handle) {
  Tracer::Scope span(tracer_, "transport.wait");
  return inner_->Wait(handle);
}

Result<OpCompletion> TracedTransport::WaitAny(
    std::span<const OpHandle> handles) {
  Tracer::Scope span(tracer_, "transport.wait");
  return inner_->WaitAny(handles);
}

std::optional<OpCompletion> TracedTransport::Poll(
    std::span<const OpHandle> handles) {
  Tracer::Scope span(tracer_, "transport.poll");
  return inner_->Poll(handles);
}

bool TracedTransport::Cancel(OpHandle handle) { return inner_->Cancel(handle); }

std::size_t TracedTransport::InFlight() const { return inner_->InFlight(); }

// ---- TracedChunker ----------------------------------------------------------

namespace {

class TracedScanner final : public stdchk::ChunkScanner {
 public:
  TracedScanner(std::unique_ptr<stdchk::ChunkScanner> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void Feed(stdchk::ByteSpan data, std::vector<std::uint64_t>& out) override {
    Tracer::Scope span(tracer_, "chkpt.scan");
    inner_->Feed(data, out);
  }
  void Finish(std::vector<std::uint64_t>& out) override {
    Tracer::Scope span(tracer_, "chkpt.scan");
    inner_->Finish(out);
  }
  std::uint64_t consumed() const override { return inner_->consumed(); }

 private:
  std::unique_ptr<stdchk::ChunkScanner> inner_;
  Tracer* tracer_;
};

}  // namespace

std::vector<stdchk::ChunkSpan> TracedChunker::Split(
    stdchk::ByteSpan data) const {
  Tracer::Scope span(tracer_, "chkpt.split");
  return inner_->Split(data);
}

std::vector<stdchk::ChunkSpan> TracedChunker::SplitSealed(
    stdchk::ByteSpan data) const {
  Tracer::Scope span(tracer_, "chkpt.split_sealed");
  return inner_->SplitSealed(data);
}

std::unique_ptr<stdchk::ChunkScanner> TracedChunker::MakeScanner() const {
  return std::make_unique<TracedScanner>(inner_->MakeScanner(), tracer_);
}

}  // namespace perfbench
