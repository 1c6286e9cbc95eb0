#include "workload/trace_generators.h"

#include <algorithm>
#include <cstring>

namespace stdchk {
namespace {

// ---- Application-level -------------------------------------------------------
class AppLevelTrace final : public CheckpointTrace {
 public:
  explicit AppLevelTrace(AppLevelTraceOptions options)
      : options_(options), rng_(options.seed) {}

  Bytes Next() override {
    double jitter = 1.0 + options_.size_jitter * (2 * rng_.NextDouble() - 1);
    std::size_t size = static_cast<std::size_t>(
        static_cast<double>(options_.image_bytes) * jitter);
    // A user-controlled, compressed format: statistically fresh bytes each
    // time, so compare-by-hash finds nothing across versions.
    return rng_.RandomBytes(size);
  }

  std::string name() const override { return "app-level"; }

 private:
  AppLevelTraceOptions options_;
  Rng rng_;
};

// ---- Shared page-image machinery -----------------------------------------------
// A synthetic process address space: a sequence of pages, some all-zero,
// the rest filled from a per-page seed so a page's bytes are stable until
// the page is dirtied.
class PageImage {
 public:
  PageImage(std::size_t pages, std::size_t page_bytes, double zero_fraction,
            Rng* rng)
      : page_bytes_(page_bytes) {
    pages_.reserve(pages);
    for (std::size_t i = 0; i < pages; ++i) {
      pages_.push_back(Page{rng->Next(), rng->NextDouble() < zero_fraction});
    }
  }

  std::size_t page_count() const { return pages_.size(); }
  std::size_t page_bytes() const { return page_bytes_; }

  // Dirties ~fraction of all pages in contiguous runs of ~run_pages each
  // (applications rewrite whole buffers, not uniformly scattered pages).
  void DirtyRandomPages(double fraction, std::size_t run_pages, Rng* rng) {
    if (pages_.empty()) return;
    std::size_t budget = static_cast<std::size_t>(
        fraction * static_cast<double>(pages_.size()));
    run_pages = std::max<std::size_t>(1, run_pages);
    while (budget > 0) {
      std::size_t start = rng->NextBelow(pages_.size());
      // Run length: uniform in [run_pages/2, 3*run_pages/2].
      std::size_t len = run_pages / 2 + rng->NextBelow(run_pages + 1);
      len = std::max<std::size_t>(1, std::min(len, budget));
      for (std::size_t i = 0; i < len && start + i < pages_.size(); ++i) {
        Page& page = pages_[start + i];
        page.seed = rng->Next();
        page.zero = false;  // a dirtied page has real content now
      }
      budget -= len;
    }
  }

  void InsertPage(std::size_t at, Rng* rng) {
    at = std::min(at, pages_.size());
    pages_.insert(pages_.begin() + static_cast<std::ptrdiff_t>(at),
                  Page{rng->Next(), false});
  }

  void DeletePage(std::size_t at) {
    if (pages_.empty()) return;
    at = std::min(at, pages_.size() - 1);
    pages_.erase(pages_.begin() + static_cast<std::ptrdiff_t>(at));
  }

  // Renders page `idx`'s content into `out` (page_bytes_ bytes).
  void RenderPage(std::size_t idx, std::uint8_t* out) const {
    const Page& page = pages_[idx];
    if (page.zero) {
      std::memset(out, 0, page_bytes_);
      return;
    }
    // Deterministic per-seed content: cheap xorshift stream.
    std::uint64_t x = page.seed | 1;
    std::size_t i = 0;
    while (i + 8 <= page_bytes_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::memcpy(out + i, &x, 8);
      i += 8;
    }
    for (; i < page_bytes_; ++i) out[i] = static_cast<std::uint8_t>(x >> (i % 8));
  }

 private:
  struct Page {
    std::uint64_t seed;
    bool zero;
  };
  std::vector<Page> pages_;
  std::size_t page_bytes_;
};

// ---- BLCR-like -----------------------------------------------------------------
class BlcrLikeTrace final : public CheckpointTrace {
 public:
  explicit BlcrLikeTrace(BlcrTraceOptions options)
      : options_(options),
        rng_(options.seed),
        image_(options.initial_pages, options.page_bytes,
               options.zero_page_fraction, &rng_) {}

  Bytes Next() override {
    if (emitted_ > 0) Evolve();
    ++emitted_;
    // BLCR dumps the address space linearly — page contents back to back —
    // with variable-length segment records interleaved at segment starts.
    std::size_t blob_bytes = 0;
    for (const Blob& blob : blobs_) blob_bytes += blob.data.size();
    Bytes out(image_.page_count() * image_.page_bytes() + blob_bytes);

    std::size_t pos = 0;
    std::size_t next_blob = 0;
    for (std::size_t i = 0; i < image_.page_count(); ++i) {
      while (next_blob < blobs_.size() && blobs_[next_blob].page_index == i) {
        const Bytes& data = blobs_[next_blob].data;
        std::memcpy(out.data() + pos, data.data(), data.size());
        pos += data.size();
        ++next_blob;
      }
      image_.RenderPage(i, out.data() + pos);
      pos += image_.page_bytes();
    }
    // Trailing blobs (page_index == page_count).
    while (next_blob < blobs_.size()) {
      const Bytes& data = blobs_[next_blob].data;
      std::memcpy(out.data() + pos, data.data(), data.size());
      pos += data.size();
      ++next_blob;
    }
    out.resize(pos);
    return out;
  }

  std::string name() const override { return "blcr-like"; }

 private:
  // Poisson-distributed count via thinning (small means).
  std::size_t PoissonCount(double mean) {
    std::size_t count = 0;
    double remaining = mean;
    while (remaining > 0) {
      if (rng_.NextDouble() < std::min(1.0, remaining)) ++count;
      remaining -= 1.0;
    }
    return count;
  }

  void ShiftBlobIndices(std::size_t at, std::ptrdiff_t delta) {
    for (Blob& blob : blobs_) {
      if (blob.page_index >= at) {
        blob.page_index = static_cast<std::size_t>(
            static_cast<std::ptrdiff_t>(blob.page_index) + delta);
      }
    }
  }

  void Evolve() {
    image_.DirtyRandomPages(options_.dirty_fraction, options_.dirty_run_pages,
                            &rng_);
    std::size_t insertions = PoissonCount(options_.mean_insertions);
    for (std::size_t i = 0; i < insertions; ++i) {
      std::size_t at = rng_.NextBelow(image_.page_count() + 1);
      image_.InsertPage(at, &rng_);
      ShiftBlobIndices(at, +1);
    }
    std::size_t odd = PoissonCount(options_.mean_odd_insertions);
    for (std::size_t i = 0; i < odd; ++i) {
      Blob blob;
      blob.page_index = rng_.NextBelow(image_.page_count() + 1);
      // Odd length in [65, 2111]: never a multiple of any chunk grid.
      blob.data = rng_.RandomBytes(65 + 2 * rng_.NextBelow(1024));
      blobs_.push_back(blob);
      std::sort(blobs_.begin(), blobs_.end(),
                [](const Blob& a, const Blob& b) {
                  return a.page_index < b.page_index;
                });
    }
    if (rng_.NextDouble() < options_.deletion_prob) {
      std::size_t at = rng_.NextBelow(image_.page_count());
      image_.DeletePage(at);
      ShiftBlobIndices(at + 1, -1);
    }
  }

  struct Blob {
    std::size_t page_index;  // rendered just before this page
    Bytes data;              // stable content once created
  };

  BlcrTraceOptions options_;
  Rng rng_;
  PageImage image_;
  std::vector<Blob> blobs_;
  std::size_t emitted_ = 0;
};

// ---- Xen-like ------------------------------------------------------------------
class XenLikeTrace final : public CheckpointTrace {
 public:
  explicit XenLikeTrace(XenTraceOptions options)
      : options_(options),
        rng_(options.seed),
        image_(options.pages, options.page_bytes, options.zero_page_fraction,
               &rng_) {}

  Bytes Next() override {
    if (emitted_ > 0) {
      image_.DirtyRandomPages(options_.dirty_fraction,
                              options_.dirty_run_pages, &rng_);
    }
    ++emitted_;

    // Xen "optimizes for speed ... saves memory pages in essentially random
    // order" and "adds additional information to each saved memory page".
    std::vector<std::size_t> order(image_.page_count());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng_);

    const std::size_t record = options_.header_bytes + image_.page_bytes();
    Bytes out(order.size() * record);
    std::size_t pos = 0;
    for (std::size_t idx : order) {
      // Header: pfn + per-save flags (differ run to run, like Xen's).
      std::uint64_t pfn = idx;
      std::uint64_t flags = rng_.Next();
      std::memcpy(out.data() + pos, &pfn, std::min<std::size_t>(8, options_.header_bytes));
      if (options_.header_bytes > 8) {
        std::size_t n = std::min<std::size_t>(8, options_.header_bytes - 8);
        std::memcpy(out.data() + pos + 8, &flags, n);
      }
      if (options_.header_bytes > 16) {
        std::memset(out.data() + pos + 16, 0, options_.header_bytes - 16);
      }
      image_.RenderPage(idx, out.data() + pos + options_.header_bytes);
      pos += record;
    }
    return out;
  }

  std::string name() const override { return "xen-like"; }

 private:
  XenTraceOptions options_;
  Rng rng_;
  PageImage image_;
  std::size_t emitted_ = 0;
};

}  // namespace

std::unique_ptr<CheckpointTrace> MakeAppLevelTrace(
    AppLevelTraceOptions options) {
  return std::make_unique<AppLevelTrace>(options);
}

std::unique_ptr<CheckpointTrace> MakeBlcrLikeTrace(BlcrTraceOptions options) {
  return std::make_unique<BlcrLikeTrace>(options);
}

BlcrTraceOptions BlcrOptionsForInterval(int interval_minutes,
                                        std::size_t image_pages,
                                        std::uint64_t seed) {
  BlcrTraceOptions options;
  options.initial_pages = image_pages;
  options.seed = seed;
  // Mutation volume scales with the interval: a 15-minute interval
  // accumulates ~3x the dirty pages and heap-growth events of a 5-minute
  // one, which is what separates the two columns of Table 3.
  double scale = static_cast<double>(interval_minutes) / 5.0;
  options.dirty_fraction = std::min(0.9, 0.08 * scale);
  options.mean_insertions = 0.5 * scale;
  options.mean_odd_insertions = 2.0 * scale;
  options.deletion_prob = std::min(0.9, 0.1 * scale);
  return options;
}

std::unique_ptr<CheckpointTrace> MakeXenLikeTrace(XenTraceOptions options) {
  return std::make_unique<XenLikeTrace>(options);
}

std::vector<TraceSpec> PaperTable2Specs() {
  return {
      {"BMS", "Application", 1, 100, 2.7},
      {"BLAST", "Library (BLCR)", 5, 902, 279.6},
      {"BLAST", "Library (BLCR)", 15, 654, 308.1},
      {"BLAST", "VM (Xen)", 5, 100, 1024.8},
      {"BLAST", "VM (Xen)", 15, 300, 1024.8},
  };
}

}  // namespace stdchk
