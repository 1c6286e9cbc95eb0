#include "client/write_session.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <utility>

namespace stdchk {

namespace {

ClientOptions ResolveOptions(MetadataManager* manager,
                             const CheckpointName& name,
                             ClientOptions options) {
  // Resolve the effective replication target once, from the folder policy,
  // unless the client overrides it per write.
  if (options.replication_target <= 0) {
    auto policy = manager->GetFolderPolicy(name.app);
    options.replication_target =
        policy.ok() ? policy.value().replication_target : 1;
  }
  // FsCH at the transfer chunk size is the default boundary heuristic; an
  // injected chunker (e.g. CbCH) replaces it wholesale.
  if (!options.chunker) {
    options.chunker = std::make_shared<FixedSizeChunker>(options.chunk_size);
  }
  // Erasure-coded writes stripe k+m shards across distinct stripe members,
  // so the stripe must be at least that wide.
  if (options.erasure.enabled()) {
    options.stripe_width =
        std::max(options.stripe_width, options.erasure.k + options.erasure.m);
  }
  return options;
}

std::uint64_t NanosSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>((std::chrono::steady_clock::now() - t0) /
                                    std::chrono::nanoseconds(1));
}

}  // namespace

WriteSession::WriteSession(MetadataManager* manager, Transport* transport,
                           CheckpointName name, ClientOptions options,
                           PlacementTableCache& table_cache)
    : options_(ResolveOptions(manager, name, std::move(options))),
      planner_(options_.chunker),
      placement_(std::make_unique<RoundRobinPlacement>()),
      coordinator_(manager, transport, std::move(name), options_, &stats_,
                   table_cache),
      uploader_(transport, placement_.get(), &coordinator_, options_, &stats_),
      naming_workers_(HashPool::ResolveThreads(options_.hash_workers)) {}

WriteSession::~WriteSession() {
  if (!closed_ && !aborted_) Abort();
}

Status WriteSession::SealAndPost(bool final) {
  const ErasureCoded ec = options_.erasure;
  if (ec.enabled() && !codec_.has_value()) {
    STDCHK_ASSIGN_OR_RETURN(ReedSolomon codec,
                            ReedSolomon::Create(ec.k, ec.m));
    codec_.emplace(std::move(codec));
  }
  std::vector<StagedChunk> chunks = planner_.Drain(final);
  if (chunks.empty()) return OkStatus();
  // The generation is built in place: deque growth at the back never moves
  // it, and it leaves the window only after its ticket is awaited.
  Generation& gen = window_.emplace_back();
  gen.chunks = std::move(chunks);
  for (const StagedChunk& chunk : gen.chunks) gen.bytes += chunk.data.size();
  stats_.hash_chunks += gen.chunks.size();
  stats_.hash_bytes += gen.bytes;
  if (ec.enabled()) StageShards(gen);

  // Slices are immutable views of one frozen generation, so naming them is
  // embarrassingly parallel; each task fills its own slot of a vector whose
  // storage stays put in the window, and generations are pushed in order,
  // so the committed chunk map is the same for any W.
  const std::size_t per_chunk =
      ec.enabled() ? static_cast<std::size_t>(1 + ec.k + ec.m) : 1;
  Generation* posted = &gen;
  auto t0 = std::chrono::steady_clock::now();
  gen.naming = HashPool::Shared().Post(
      gen.chunks.size() * per_chunk, naming_workers_,
      [this, posted, per_chunk](std::size_t i) {
        if (naming_cancelled_) return;
        int now = ++naming_running_;
        for (int peak = naming_peak_; now > peak &&
             !naming_peak_.compare_exchange_weak(peak, now);) {
        }
        RunNamingTask(*posted, i / per_chunk, i % per_chunk);
        --naming_running_;
      });
  stats_.hash_ns += NanosSince(t0);  // W = 1 names inline, inside Post
  window_bytes_ += gen.bytes;
  return OkStatus();
}

void WriteSession::StageShards(Generation& gen) {
  const int k = options_.erasure.k;
  const int m = options_.erasure.m;
  gen.data_views.reserve(gen.chunks.size() * static_cast<std::size_t>(k));
  gen.parity.reserve(gen.chunks.size() * static_cast<std::size_t>(m));
  for (StagedChunk& chunk : gen.chunks) {
    const std::uint32_t size = static_cast<std::uint32_t>(chunk.data.size());
    const std::size_t shard_size = ErasureShardSize(size, k);
    chunk.shards.reserve(static_cast<std::size_t>(k + m));
    chunk.shard_ids.resize(static_cast<std::size_t>(k + m));
    for (int j = 0; j < k; ++j) {
      // Data shards are zero-copy views of the chunk, stored unpadded: the
      // tail shard is short and the codec zero-pads it virtually.
      std::size_t off = std::min(static_cast<std::size_t>(j) * shard_size,
                                 chunk.data.size());
      chunk.shards.push_back(
          chunk.data.Subslice(off, ErasureShardLength(size, k, j)));
      gen.data_views.push_back(chunk.shards.back().span());
    }
    // Parity is allocated here rather than by the encode tasks: buffers
    // allocated on pool workers land in glibc per-thread arenas and raise
    // peak RSS. Left unfilled: each encode task defines its whole row.
    for (int i = 0; i < m; ++i) gen.parity.emplace_back(shard_size);
  }
}

void WriteSession::RunNamingTask(Generation& gen, std::size_t c,
                                 std::size_t task) {
  StagedChunk& chunk = gen.chunks[c];
  if (task == 0) {
    chunk.id = ChunkId::For(chunk.data.span());
    // Downstream verifies compare the stamp instead of re-hashing.
    chunk.data.StampDigest(chunk.id.digest);
    return;
  }
  const std::size_t k = static_cast<std::size_t>(options_.erasure.k);
  const std::size_t m = static_cast<std::size_t>(options_.erasure.m);
  const std::size_t shard = task - 1;
  if (shard < k) {
    chunk.shard_ids[shard] = ChunkId::For(chunk.shards[shard].span());
    return;
  }
  Bytes& parity = gen.parity[c * m + (shard - k)];
  auto t0 = std::chrono::steady_clock::now();
  codec_->EncodeParityRow(std::span(gen.data_views).subspan(c * k, k),
                          static_cast<int>(shard - k), MutableByteSpan(parity));
  encode_ns_ += NanosSince(t0);
  chunk.shard_ids[shard] = ChunkId::For(parity);
}

Status WriteSession::PushWindow(bool all) {
  const std::uint64_t limit =
      static_cast<std::uint64_t>(naming_workers_) * options_.chunk_size;
  while (!window_.empty()) {
    bool full = window_bytes_ + planner_.buffered_bytes() >= limit;
    if (!all && !full && !window_.front().naming.done()) break;
    auto t0 = std::chrono::steady_clock::now();
    HashPool::Shared().Await(window_.front().naming);
    stats_.hash_ns += NanosSince(t0);
    Generation gen = std::move(window_.front());
    window_.pop_front();
    window_bytes_ -= gen.bytes;
    stats_.hash_workers_peak = std::max<std::uint64_t>(
        stats_.hash_workers_peak, static_cast<std::uint64_t>(naming_peak_));
    stats_.chunks_total += gen.chunks.size();
    if (options_.erasure.enabled()) {
      // The parity buffers are final: they become the chunks' shards.
      const std::size_t m = static_cast<std::size_t>(options_.erasure.m);
      for (std::size_t c = 0; c < gen.chunks.size(); ++c) {
        for (std::size_t i = 0; i < m; ++i) {
          gen.chunks[c].shards.emplace_back(
              BufferRef::Take(std::move(gen.parity[c * m + i])));
        }
      }
      stats_.erasure_encoded_chunks += gen.chunks.size();
      stats_.erasure_encode_ns = encode_ns_;
    }

    // One compare-by-hash round trip covers the whole generation.
    // Best-effort: nothing between leaving the window and Stage() may
    // fail, or sealed chunks would be lost from the stream.
    std::vector<std::vector<NodeId>> reuse;
    if (options_.incremental_fsch) {
      std::vector<ChunkId> ids;
      ids.reserve(gen.chunks.size());
      for (const StagedChunk& chunk : gen.chunks) ids.push_back(chunk.id);
      reuse = coordinator_.LocateReusable(ids);
    }
    for (std::size_t i = 0; i < gen.chunks.size(); ++i) {
      StagedChunk& chunk = gen.chunks[i];
      if (!reuse.empty() && !reuse[i].empty()) {
        coordinator_.ReuseExisting(
            chunk.id, static_cast<std::uint32_t>(chunk.data.size()),
            std::move(reuse[i]));
        continue;
      }
      uploader_.Stage(std::move(chunk));
    }
    STDCHK_RETURN_IF_ERROR(FlushPending());
  }
  return OkStatus();
}

Status WriteSession::FlushPending() {
  if (uploader_.pending_chunks() == 0) return OkStatus();
  ++stats_.flushes;
  return uploader_.Flush();
}

Status WriteSession::Write(ByteSpan data) {
  if (closed_ || aborted_) {
    return FailedPreconditionError("write on closed session");
  }
  planner_.Append(data);
  stats_.bytes_written += data.size();
  stats_.max_buffered_bytes =
      std::max<std::uint64_t>(stats_.max_buffered_bytes,
                              planner_.buffered_bytes() + window_bytes_);

  switch (options_.protocol) {
    case WriteProtocol::kCompleteLocal:
      // Everything spills to local storage; pushed at Close().
      stats_.bytes_spilled_local += data.size();
      return OkStatus();
    case WriteProtocol::kIncremental:
      // Increments land in local temp files; each completed temp file is
      // pushed (in one batched drain) while the app writes the next.
      stats_.bytes_spilled_local += data.size();
      if (planner_.buffered_bytes() >= options_.increment_size) {
        STDCHK_RETURN_IF_ERROR(SealAndPost(/*final=*/false));
        return PushWindow(/*all=*/true);
      }
      return OkStatus();
    case WriteProtocol::kSlidingWindow:
      // No local I/O at all: each sealed chunk is named behind the
      // application and leaves as soon as its name is ready.
      if (planner_.buffered_bytes() >= options_.chunk_size) {
        STDCHK_RETURN_IF_ERROR(SealAndPost(/*final=*/false));
      }
      STDCHK_RETURN_IF_ERROR(PushWindow(/*all=*/false));
      // Reserve the stripe while the manager is known to be reachable, as
      // a synchronous first push would: a manager crash before Close()
      // must still find a stripe to stash the chunk map on.
      if (!window_.empty() && !coordinator_.have_reservation()) {
        return coordinator_.EnsureReservation(window_bytes_);
      }
      return OkStatus();
  }
  return InternalError("unknown write protocol");
}

Result<CloseOutcome> WriteSession::Close() {
  if (closed_) return FailedPreconditionError("session already closed");
  if (aborted_) return FailedPreconditionError("session aborted");
  STDCHK_RETURN_IF_ERROR(SealAndPost(/*final=*/true));
  STDCHK_RETURN_IF_ERROR(PushWindow(/*all=*/true));
  // Retries a flush that failed earlier with nothing sealed since.
  STDCHK_RETURN_IF_ERROR(FlushPending());
  closed_ = true;
  return coordinator_.Commit();
}

void WriteSession::Abort() {
  aborted_ = true;
  naming_cancelled_ = true;
  for (const Generation& gen : window_) HashPool::Shared().Await(gen.naming);
  window_.clear();
  window_bytes_ = 0;
  coordinator_.ReleaseReservation();
}

}  // namespace stdchk
