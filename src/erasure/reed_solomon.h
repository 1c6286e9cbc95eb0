// Systematic Reed-Solomon erasure coding over GF(256), Cauchy-matrix
// construction: k data shards + m parity shards; any k of the k+m shards
// reconstruct the original data.
//
// Used by the erasure-coded write path (ClientOptions::erasure) and by the
// replication-vs-erasure ablation (paper §IV.A): the paper rejects erasure
// coding for checkpoint data because of encode/decode CPU cost and repair
// traffic; with the SIMD GF(256) kernels that tradeoff is measured, not
// asserted.
//
// The API is span-based (EncodeParity and its per-row EncodeParityRow,
// RecoverShards): callers encode straight out of BufferSlice views and
// decode straight into caller buffers, with no staging copies. Views shorter than the nominal
// shard size are treated as zero-padded to it — the stored tail shard of a
// block whose size is not a multiple of k — so the virtual padding never
// materializes either.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace stdchk {

class ReedSolomon {
 public:
  // k data shards, m parity shards; k >= 1, m >= 1, k + m <= 255.
  static Result<ReedSolomon> Create(int data_shards, int parity_shards);

  int data_shards() const { return k_; }
  int parity_shards() const { return m_; }
  int total_shards() const { return k_ + m_; }

  // Parity: encodes from k data-shard views, each at most
  // `shard_size` bytes (shorter views are virtually zero-padded — no copy,
  // the missing tail contributes nothing). Returns m parity shards of
  // exactly `shard_size` bytes, one EncodeParityRow each.
  Result<std::vector<Bytes>> EncodeParity(
      const std::vector<ByteSpan>& data_shards, std::size_t shard_size) const;

  // One parity row: computes parity shard `row` (in [0, m)) of the k
  // data-shard views into `out`, which the caller sizes to the shard size
  // and the row defines in full (prior contents are ignored); views may be
  // shorter (virtually zero-padded) but not longer. A row reads the views
  // and writes only `out`, so the m rows of one block may run on m threads
  // at once — the write session's naming window does — with a result
  // independent of the split. EncodeParity
  // validates its arguments; this entry point only asserts them.
  void EncodeParityRow(std::span<const ByteSpan> data_shards, int row,
                       MutableByteSpan out) const;

  // Recovers the shards listed in `want` (indices in [0, k+m)) from any k
  // surviving shard views. `shards` has k+m entries: std::nullopt marks a
  // lost shard; engaged views shorter than `shard_size` are treated as
  // zero-padded (an engaged empty view is a present, all-zero shard — not
  // a loss). Each wanted shard is written to the parallel `out` buffer,
  // which may be shorter than `shard_size` to recover just a prefix (the
  // stored length of a tail data shard) — except when any parity shard is
  // wanted, in which case full-size data outputs are required so parity
  // sees whole shards. Fails if fewer than k shards survive.
  Status RecoverShards(const std::vector<std::optional<ByteSpan>>& shards,
                       std::size_t shard_size, const std::vector<int>& want,
                       const std::vector<MutableByteSpan>& out) const;

 private:
  ReedSolomon(int k, int m);

  // Row `r` of the (k+m) x k encoding matrix. Rows 0..k-1 form the
  // identity (systematic); rows k..k+m-1 are Cauchy rows.
  const std::vector<std::uint8_t>& Row(int r) const {
    return matrix_[static_cast<std::size_t>(r)];
  }

  int k_;
  int m_;
  std::vector<std::vector<std::uint8_t>> matrix_;  // (k+m) rows x k cols
};

}  // namespace stdchk
