#include "chkpt/chunker.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"
#include "common/rolling_hash.h"

namespace stdchk {
namespace {

class FixedScanner final : public ChunkScanner {
 public:
  explicit FixedScanner(std::size_t chunk_size) : chunk_size_(chunk_size) {}

  void Feed(ByteSpan data, std::vector<std::uint64_t>& out) override {
    consumed_ += data.size();
    while (consumed_ - sealed_ >= chunk_size_) {
      sealed_ += chunk_size_;
      out.push_back(sealed_);
    }
  }

  void Finish(std::vector<std::uint64_t>& out) override {
    if (consumed_ > sealed_) {
      sealed_ = consumed_;
      out.push_back(sealed_);
    }
  }

  std::uint64_t consumed() const override { return consumed_; }

 private:
  std::size_t chunk_size_;
  std::uint64_t consumed_ = 0;
  std::uint64_t sealed_ = 0;
};

std::size_t SkipAfterBoundary(const CbchParams& params) {
  return params.min_chunk > params.window_m
             ? params.min_chunk - params.window_m
             : 0;
}

// p == 1 with the gear/CDC hash: the cheapest boundary scan. No ring
// buffer — bytes age out of the 64-bit state by shifting — so the steady
// state is one shift, one add, one table lookup and one mask test per
// byte. window_m is honoured as a warm-up: no boundary can be declared
// until m bytes of the open chunk have been hashed, matching the windowed
// scanners' minimum-chunk behaviour. State never straddles Feed edges,
// so streaming reproduces the whole-file scan bit for bit.
class CbchGearScanner final : public ChunkScanner {
 public:
  explicit CbchGearScanner(const CbchParams& params)
      : m_(params.window_m),
        mask_(gear::BoundaryMask(params.boundary_bits_k)),
        max_chunk_(params.max_chunk),
        skip_init_(SkipAfterBoundary(params)),
        skip_left_(SkipAfterBoundary(params)) {}  // min applies to chunk 0

  void Feed(ByteSpan data, std::vector<std::uint64_t>& out) override {
    const std::uint8_t* p = data.data();
    const std::uint8_t* const end = p + data.size();
    // Hot state in locals; written back on exit.
    std::uint64_t h = hash_;
    std::uint64_t pos = pos_, chunk_start = chunk_start_;
    std::size_t filled = filled_, skip = skip_left_;
    const std::uint64_t* const table = gear::kTable.data();

    while (p < end) {
      if (skip > 0) {
        std::size_t take =
            std::min<std::size_t>(skip, static_cast<std::size_t>(end - p));
        p += take;
        pos += take;
        skip -= take;
        continue;
      }
      if (filled < m_) {
        // Warm-up: accumulate without boundary checks so chunks are at
        // least window_m bytes, as with the windowed scanners.
        while (p < end && filled < m_) {
          h = (h << 1) + table[*p++];
          ++filled;
          ++pos;
        }
        if (filled < m_) break;
        if ((h & mask_) == 0 ||
            (max_chunk_ != 0 && pos - chunk_start >= max_chunk_)) {
          out.push_back(pos);
          chunk_start = pos;
          h = 0;
          filled = 0;
          skip = skip_init_;
        }
        continue;
      }
      // Steady state: one shift+add+lookup+mask per byte.
      while (p < end) {
        h = (h << 1) + table[*p++];
        ++pos;
        if ((h & mask_) == 0 ||
            (max_chunk_ != 0 && pos - chunk_start >= max_chunk_)) {
          out.push_back(pos);
          chunk_start = pos;
          h = 0;
          filled = 0;
          skip = skip_init_;
          break;
        }
      }
    }

    hash_ = h;
    pos_ = pos;
    chunk_start_ = chunk_start;
    filled_ = filled;
    skip_left_ = skip;
  }

  void Finish(std::vector<std::uint64_t>& out) override {
    if (pos_ > chunk_start_) {
      out.push_back(pos_);
      chunk_start_ = pos_;
    }
  }

  std::uint64_t consumed() const override { return pos_; }

 private:
  const std::size_t m_;
  const std::uint64_t mask_;
  const std::uint64_t max_chunk_;
  const std::size_t skip_init_;

  std::uint64_t hash_ = 0;
  std::size_t filled_ = 0;         // warm-up bytes hashed in the open chunk
  std::uint64_t pos_ = 0;          // stream bytes consumed
  std::uint64_t chunk_start_ = 0;  // start of the open chunk
  std::size_t skip_left_;          // min-chunk skip-ahead remaining
};

// Hopping windows (p > 1) and the paper-faithful recompute mode (a full
// window hash — SHA-1 or FNV — at every inspected position). Windows may
// straddle Feed edges; a carry of at most m-1 stream bytes stitches them.
class CbchHopScanner final : public ChunkScanner {
 public:
  explicit CbchHopScanner(const CbchParams& params)
      : params_(params),
        m_(params.window_m),
        advance_(params.advance_p),
        mask_((1ull << params.boundary_bits_k) - 1),
        skip_init_(SkipAfterBoundary(params)),
        next_window_(SkipAfterBoundary(params)) {}  // min applies to chunk 0

  void Feed(ByteSpan data, std::vector<std::uint64_t>& out) override {
    const std::uint64_t data_start = pos_;
    pos_ += data.size();

    // Windows straddling the carry/data border are stitched into `tmp`.
    Bytes tmp;
    while (next_window_ + m_ <= pos_) {
      std::uint64_t h;
      if (next_window_ >= data_start) {
        h = WindowHash(data.subspan(
            static_cast<std::size_t>(next_window_ - data_start), m_));
      } else {
        std::size_t from_carry =
            static_cast<std::size_t>(data_start - next_window_);
        std::size_t carry_off = carry_.size() - from_carry;
        tmp.assign(carry_.begin() + static_cast<std::ptrdiff_t>(carry_off),
                   carry_.end());
        tmp.insert(tmp.end(), data.begin(),
                   data.begin() + static_cast<std::ptrdiff_t>(m_ - from_carry));
        h = WindowHash(tmp);
      }
      std::uint64_t window_end = next_window_ + m_;
      bool boundary = (Mix64(h) & mask_) == 0;
      bool forced = params_.max_chunk != 0 &&
                    window_end - chunk_start_ >= params_.max_chunk;
      if (boundary || forced) {
        out.push_back(window_end);
        chunk_start_ = window_end;
        next_window_ = window_end + skip_init_;
      } else {
        next_window_ += advance_;
      }
    }

    // Keep the stream bytes the next window still needs (< m of them).
    if (next_window_ >= data_start) {
      std::size_t keep_from =
          static_cast<std::size_t>(next_window_ - data_start);
      keep_from = std::min(keep_from, data.size());
      carry_.assign(data.begin() + static_cast<std::ptrdiff_t>(keep_from),
                    data.end());
    } else {
      Append(carry_, data);
    }
  }

  void Finish(std::vector<std::uint64_t>& out) override {
    if (pos_ > chunk_start_) {
      out.push_back(pos_);
      chunk_start_ = pos_;
    }
  }

  std::uint64_t consumed() const override { return pos_; }

 private:
  std::uint64_t WindowHash(ByteSpan window) const {
    return params_.recompute_per_window ? Sha1(window).Prefix64()
                                        : Fnv1a64(window);
  }

  const CbchParams params_;
  const std::size_t m_;
  const std::size_t advance_;
  const std::uint64_t mask_;
  const std::size_t skip_init_;

  Bytes carry_;  // stream bytes [next_window_, pos_) not yet scanned past
  std::uint64_t pos_ = 0;
  std::uint64_t next_window_;  // absolute start of the next window
  std::uint64_t chunk_start_ = 0;
};

std::vector<ChunkSpan> SpansFromEnds(std::uint64_t total,
                                     const std::vector<std::uint64_t>& ends) {
  std::vector<ChunkSpan> out;
  out.reserve(ends.size());
  std::uint64_t start = 0;
  for (std::uint64_t end : ends) {
    out.push_back(ChunkSpan{start, static_cast<std::uint32_t>(end - start)});
    start = end;
  }
  assert(start == total);
  (void)total;
  return out;
}

}  // namespace

std::vector<ChunkSpan> Chunker::SplitSealed(ByteSpan data) const {
  std::vector<ChunkSpan> spans = Split(data);
  // Conservative default: the trailing span ends at the buffer edge, not at
  // a content-determined boundary, so it may still grow.
  if (!spans.empty()) spans.pop_back();
  return spans;
}

FixedSizeChunker::FixedSizeChunker(std::size_t chunk_size)
    : chunk_size_(chunk_size) {
  assert(chunk_size_ > 0);
}

std::vector<ChunkSpan> FixedSizeChunker::Split(ByteSpan data) const {
  std::vector<ChunkSpan> out;
  out.reserve(data.size() / chunk_size_ + 1);
  std::uint64_t offset = 0;
  while (offset < data.size()) {
    std::uint32_t size = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(chunk_size_, data.size() - offset));
    out.push_back(ChunkSpan{offset, size});
    offset += size;
  }
  return out;
}

std::vector<ChunkSpan> FixedSizeChunker::SplitSealed(ByteSpan data) const {
  std::vector<ChunkSpan> spans = Split(data);
  if (!spans.empty() && spans.back().size < chunk_size_) spans.pop_back();
  return spans;
}

std::unique_ptr<ChunkScanner> FixedSizeChunker::MakeScanner() const {
  return std::make_unique<FixedScanner>(chunk_size_);
}

std::string FixedSizeChunker::name() const {
  return "FsCH(" + std::to_string(chunk_size_) + ")";
}

ContentBasedChunker::ContentBasedChunker(CbchParams params)
    : params_(params) {
  assert(params_.window_m > 0);
  assert(params_.advance_p > 0);
  assert(params_.boundary_bits_k > 0 && params_.boundary_bits_k < 64);
}

// The scanner is the single source of truth for boundary placement: the
// whole-file split simply streams the image through a fresh scanner, so
// streaming (planner) and one-shot scans agree by construction.
std::vector<ChunkSpan> ContentBasedChunker::Split(ByteSpan data) const {
  if (data.empty()) return {};
  std::unique_ptr<ChunkScanner> scanner = MakeScanner();
  std::vector<std::uint64_t> ends;
  scanner->Feed(data, ends);
  scanner->Finish(ends);
  return SpansFromEnds(data.size(), ends);
}

std::unique_ptr<ChunkScanner> ContentBasedChunker::MakeScanner() const {
  if (params_.overlap() && !params_.recompute_per_window) {
    return std::make_unique<CbchGearScanner>(params_);
  }
  return std::make_unique<CbchHopScanner>(params_);
}

std::string ContentBasedChunker::name() const {
  std::string out = "CbCH(m=" + std::to_string(params_.window_m) +
                    ",k=" + std::to_string(params_.boundary_bits_k) +
                    ",p=" + std::to_string(params_.advance_p);
  if (params_.min_chunk > 0) {
    out += ",min=" + std::to_string(params_.min_chunk);
  }
  if (params_.overlap() && !params_.recompute_per_window) out += ",gear";
  return out + ")";
}

ChunkSizeStats ComputeChunkSizeStats(const std::vector<ChunkSpan>& spans) {
  ChunkSizeStats stats;
  if (spans.empty()) return stats;
  stats.count = spans.size();
  stats.min_bytes = spans[0].size;
  stats.max_bytes = spans[0].size;
  double total = 0;
  for (const ChunkSpan& span : spans) {
    total += span.size;
    stats.min_bytes = std::min(stats.min_bytes, span.size);
    stats.max_bytes = std::max(stats.max_bytes, span.size);
  }
  stats.avg_bytes = total / static_cast<double>(spans.size());
  return stats;
}

std::vector<ChunkId> HashChunks(ByteSpan data,
                                const std::vector<ChunkSpan>& spans) {
  std::vector<ChunkId> out;
  out.reserve(spans.size());
  for (const ChunkSpan& span : spans) {
    out.push_back(ChunkId::For(data.subspan(span.offset, span.size)));
  }
  return out;
}

}  // namespace stdchk
