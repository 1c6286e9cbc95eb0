#include "client/chunk_planner.h"

#include <cassert>
#include <utility>

namespace stdchk {

ChunkPlanner::ChunkPlanner(std::shared_ptr<const Chunker> chunker)
    : chunker_(std::move(chunker)) {
  assert(chunker_ != nullptr);
  scanner_ = chunker_->MakeScanner();
}

void ChunkPlanner::Append(ByteSpan data) {
  // Scan before buffering: the scanner sees every byte exactly once.
  scanner_->Feed(data, sealed_ends_);
  copy_stats::RecordMaterialize(data.size());
  stdchk::Append(buffer_, data);
}

std::vector<StagedChunk> ChunkPlanner::Drain(bool final) {
  if (final) scanner_->Finish(sealed_ends_);
  std::vector<StagedChunk> out;
  if (sealed_ends_.empty()) return out;

  // Freeze the current buffer generation: sealed chunks become ref-counted
  // slices into it (zero-copy; the slices hold it alive), and only the
  // unsealed tail moves back into the working buffer. The working buffer
  // keeps the frozen generation's capacity, so refilling it does not
  // regrow (and re-copy) through every power of two.
  const std::size_t frozen = buffer_.size();
  std::size_t consumed =
      static_cast<std::size_t>(sealed_ends_.back() - buffer_start_);
  Bytes next;
  if (!final) next.reserve(frozen);
  next.assign(buffer_.begin() + static_cast<std::ptrdiff_t>(consumed),
              buffer_.end());
  BufferRef backing = BufferRef::Take(std::move(buffer_));
  buffer_ = std::move(next);

  out.reserve(sealed_ends_.size());
  std::uint64_t start = buffer_start_;
  for (std::uint64_t end : sealed_ends_) {
    out.emplace_back().data =
        BufferSlice(backing, static_cast<std::size_t>(start - buffer_start_),
                    static_cast<std::size_t>(end - start));
    start = end;
  }
  buffer_start_ = sealed_ends_.back();
  sealed_ends_.clear();
  return out;
}

}  // namespace stdchk
