#include "client/read_session.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <optional>
#include <utility>

namespace stdchk {
namespace {

std::vector<BufferSlice> OneSlice(BufferSlice data) {
  std::vector<BufferSlice> slices;
  slices.push_back(std::move(data));
  return slices;
}

}  // namespace

ReadSession::ReadSession(Transport* transport, VersionRecord record,
                         ClientOptions options)
    : transport_(transport),
      record_(std::move(record)),
      options_(options),
      assembly_workers_(HashPool::ResolveThreads(options_.hash_workers)) {}

ReadSession::~ReadSession() {
  // Await every posted assembly (tasks point into gathers_), and drop
  // replies for anything still in flight so the transport does not
  // accumulate undeliverable completions. Locked for the rank validator's
  // benefit (session rank sits below the transport's and the pool's);
  // Clang's analysis skips destructors.
  MutexLock lock(mu_);
  AwaitAssemblies();
  for (const auto& [handle, fetch] : inflight_) {
    (void)transport_->Cancel(handle);
  }
}

std::size_t ReadSession::WindowEnd(std::size_t demand) const {
  std::size_t ahead =
      static_cast<std::size_t>(std::max(0, options_.read_ahead_chunks));
  return std::min(record_.chunk_map.chunks.size() - 1, demand + ahead);
}

std::size_t ReadSession::ErasureWindowEnd(std::size_t demand) const {
  // W chunks give every pool worker one to assemble; the budget check keeps
  // the widened window from holding more than the cache may.
  const auto& chunks = record_.chunk_map.chunks;
  const std::uint64_t budget = options_.read_cache_budget_bytes;
  std::size_t end = WindowEnd(demand);
  std::uint64_t bytes = 0;
  for (std::size_t i = demand; i <= end; ++i) bytes += chunks[i].size;
  while (end + 1 < chunks.size() &&
         end + 1 - demand < static_cast<std::size_t>(assembly_workers_) &&
         (budget == 0 || bytes + chunks[end + 1].size <= budget)) {
    bytes += chunks[++end].size;
  }
  return end;
}

std::size_t ReadSession::MaxInflight() const {
  return static_cast<std::size_t>(std::max(0, options_.read_ahead_chunks)) + 1;
}

Result<NodeId> ReadSession::PickReplica(std::size_t index) {
  const ChunkLocation& loc = record_.chunk_map.chunks[index];
  if (loc.replicas.empty()) {
    return DataLossError("chunk " + loc.id.ToHex() + " has no replicas");
  }
  auto failed_it = failed_replicas_.find(index);
  auto failed = [&](NodeId n) {
    return failed_it != failed_replicas_.end() && failed_it->second.contains(n);
  };
  // Rotate the starting replica across picks so load spreads over the
  // stripe (round-robin read striping, as in FreeLoader).
  std::size_t start = rr_replica_++ % loc.replicas.size();
  NodeId dead_fallback = kInvalidNode;
  for (std::size_t k = 0; k < loc.replicas.size(); ++k) {
    NodeId n = loc.replicas[(start + k) % loc.replicas.size()];
    if (failed(n)) continue;
    if (dead_nodes_.contains(n)) {
      // Observed dead this session: do not pay a doomed RPC while a live
      // candidate exists.
      ++stats_.dead_replica_skips;
      if (dead_fallback == kInvalidNode) dead_fallback = n;
      continue;
    }
    return n;
  }
  // No live candidate left. A node marked dead may have been a transient
  // drop — retry one before giving up on the chunk.
  if (dead_fallback != kInvalidNode) return dead_fallback;
  // Every replica has failed for this chunk. Failures can be transient
  // (a dropped RPC), so clear the per-chunk blacklist and sweep the
  // replicas again — bounded by a failover budget mirroring the
  // uploader's, after which the chunk is genuinely unreadable.
  if (fetch_attempts_[index] < 2 * loc.replicas.size()) {
    if (failed_it != failed_replicas_.end()) failed_it->second.clear();
    return loc.replicas[start];
  }
  return UnavailableError("no replica of chunk " + loc.id.ToHex() +
                          " reachable");
}

Status ReadSession::PumpWindow(std::size_t demand) {
  const auto& chunks = record_.chunk_map.chunks;
  if (chunks.empty()) return OkStatus();
  std::size_t window_end = WindowEnd(demand);
  std::size_t erasure_end = ErasureWindowEnd(demand);
  std::size_t max_inflight = MaxInflight();
  RetireGathers(demand, erasure_end);

  std::map<NodeId, std::vector<std::size_t>> queues;
  for (std::size_t i = demand; i <= erasure_end; ++i) {
    if (cache_index_.contains(i)) continue;
    // Erasure-coded chunks gather shards instead — except those ChunkData
    // demoted to the replica path after a failed shard recovery
    // (mixed-mode fallback).
    if (chunks[i].erasure_coded() && !replica_fallback_.contains(i)) {
      GatherShards(i, demand);
      continue;
    }
    if (i > window_end || inflight_chunks_.size() >= max_inflight ||
        inflight_chunks_.contains(i)) {
      continue;
    }
    Result<NodeId> pick = PickReplica(i);
    if (!pick.ok()) {
      // Read-ahead misses stay soft; only the demand chunk is fatal.
      if (i == demand) return pick.status();
      continue;
    }
    queues[pick.value()].push_back(i);
    inflight_chunks_.insert(i);
  }

  for (auto& [node, indices] : queues) {
    // Chunks flagged for solo retry (after a batch rejection) go out as
    // individual GETs so failures are attributed precisely; the rest of a
    // node's window share one batch GET.
    std::vector<std::size_t> batchable;
    for (std::size_t i : indices) {
      if (singles_only_.contains(i)) {
        OpHandle h =
            transport_->Submit(ChunkOp::Get(node, chunks[i].id));
        inflight_.emplace(h, Fetch{{i}, node});
        ++stats_.single_gets;
      } else {
        batchable.push_back(i);
      }
    }
    if (batchable.size() == 1) {
      OpHandle h =
          transport_->Submit(ChunkOp::Get(node, chunks[batchable[0]].id));
      inflight_.emplace(h, Fetch{std::move(batchable), node});
      ++stats_.single_gets;
    } else if (batchable.size() > 1) {
      std::vector<ChunkId> ids;
      ids.reserve(batchable.size());
      for (std::size_t i : batchable) ids.push_back(chunks[i].id);
      OpHandle h = transport_->Submit(ChunkOp::GetBatch(node, std::move(ids)));
      inflight_.emplace(h, Fetch{std::move(batchable), node});
      ++stats_.batch_gets;
    }
  }
  stats_.inflight_peak = std::max(stats_.inflight_peak,
                                  inflight_chunks_.size() + gathers_.size());
  return OkStatus();
}

std::vector<OpHandle> ReadSession::InflightHandles() const {
  std::vector<OpHandle> handles;
  handles.reserve(inflight_.size());
  for (const auto& [h, fetch] : inflight_) handles.push_back(h);
  return handles;
}

Status ReadSession::HarvestOne(std::size_t demand) {
  STDCHK_ASSIGN_OR_RETURN(OpCompletion c,
                          transport_->WaitAny(InflightHandles()));
  Deliver(std::move(c), demand);
  return OkStatus();
}

void ReadSession::NoteReply(NodeId node, const Status& status) {
  contacted_.insert(node);
  probes_.erase(node);
  // A node that answers is rehabilitated if a drop had marked it dead; a
  // node-level failure marks it so later picks skip it.
  if (status.ok()) {
    dead_nodes_.erase(node);
  } else if (status.code() == StatusCode::kUnavailable) {
    dead_nodes_.insert(node);
  }
}

void ReadSession::Deliver(OpCompletion c, std::size_t demand) {
  auto it = inflight_.find(c.handle);
  Fetch fetch = std::move(it->second);
  inflight_.erase(it);
  NoteReply(fetch.node, c.status);

  if (fetch.shard >= 0) {
    // The next PumpWindow covers a lost shard or posts the assembly.
    const std::size_t index = fetch.indices[0];
    const auto s = static_cast<std::size_t>(fetch.shard);
    Gather& g = gathers_.at(index);
    --g.pending;
    if (c.status.ok()) {
      g.state[s] = ShardState::kGot;
      g.got[s] = std::move(c.data);
      ++g.have;
      ++stats_.shard_fetches;
      if (fetch.shard >= record_.chunk_map.chunks[index].ec_k) {
        ++stats_.parity_shard_fetches;
      }
    } else {
      g.state[s] = ShardState::kFailed;
      ++stats_.failovers;
    }
    return;
  }

  for (std::size_t i : fetch.indices) inflight_chunks_.erase(i);
  if (c.status.ok()) {
    // The node answered: let its chunks batch again — the mark describes a
    // transient state.
    if (fetch.indices.size() == 1) {
      singles_only_.erase(fetch.indices[0]);
      Insert(fetch.indices[0], OneSlice(std::move(c.data)));
    } else {
      for (std::size_t j = 0; j < fetch.indices.size(); ++j) {
        Insert(fetch.indices[j], OneSlice(std::move(c.batch[j])));
      }
    }
    stats_.chunks_fetched += fetch.indices.size();
    EvictToBudget(demand);
    return;
  }

  stats_.failovers += fetch.indices.size();
  for (std::size_t i : fetch.indices) ++fetch_attempts_[i];
  if (c.status.code() == StatusCode::kUnavailable) {
    // Node-level failure: walk every affected chunk on to its next
    // replica.
    for (std::size_t i : fetch.indices) failed_replicas_[i].insert(fetch.node);
  } else if (fetch.indices.size() > 1) {
    // A batch rejected wholesale for a chunk-level reason (one chunk
    // missing or corrupt) says nothing about the other chunks on this
    // node: retry each alone so the bad chunk is pinpointed.
    for (std::size_t i : fetch.indices) singles_only_.insert(i);
  } else {
    failed_replicas_[fetch.indices[0]].insert(fetch.node);
  }
}

Result<const std::vector<BufferSlice>*> ReadSession::ChunkData(
    std::size_t index) {
  const ChunkLocation& loc = record_.chunk_map.chunks[index];
  while (true) {
    if (auto it = cache_index_.find(index); it != cache_index_.end()) {
      return &it->second->slices;
    }
    STDCHK_RETURN_IF_ERROR(PumpWindow(index));
    auto gather = gathers_.find(index);
    if (gather != gathers_.end() && gather->second.settled) {
      // While the demand chunk assembles, deliver replies already in, so
      // read-ahead assemblies get posted behind it.
      if (!gather->second.ticket.done() && !inflight_.empty()) {
        if (std::optional<OpCompletion> c =
                transport_->Poll(InflightHandles())) {
          Deliver(std::move(*c), index);
          continue;
        }
      }
      Status assembled = TakeAssembly(index, index);
      if (assembled.ok()) continue;  // cached now
      // Mixed-mode escape hatch: a chunk can carry whole replicas besides
      // its shard group (dedup reuse of a replication-era copy). Only then
      // is a full-replica fallback even possible — and the EC acceptance
      // bar is that it never fires for pure erasure files.
      if (loc.replicas.empty()) return assembled;
      ++stats_.full_replica_fallbacks;
      replica_fallback_.insert(index);
      continue;
    }
    if (inflight_.empty()) {
      return InternalError("read engine stalled with no fetch in flight");
    }
    STDCHK_RETURN_IF_ERROR(HarvestOne(index));
  }
}

void ReadSession::GatherShards(std::size_t index, std::size_t demand) {
  const ChunkLocation& loc = record_.chunk_map.chunks[index];
  const int k = loc.ec_k;
  const auto total = static_cast<std::size_t>(k + loc.ec_m);
  auto [it, fresh] = gathers_.try_emplace(index);
  Gather& g = it->second;
  if (g.settled) return;
  auto fail = [&g](Status status) {
    g.out.status = std::move(status);
    g.settled = true;
  };
  if (fresh) {
    g.state.assign(total, ShardState::kIdle);
    g.got.resize(total);
    if (loc.shards.size() != total) {
      return fail(DataLossError("chunk " + loc.id.ToHex() +
                                " has a malformed shard group"));
    }
    // Zero-length tail data shards (chunk smaller than (k-1) shard widths)
    // are virtually present: nothing stored, nothing to fetch.
    for (int s = 0; s < k; ++s) {
      if (ErasureShardLength(loc.size, k, s) == 0) {
        g.state[static_cast<std::size_t>(s)] = ShardState::kGot;
        g.got[static_cast<std::size_t>(s)] = BufferSlice();
        ++g.have;
      }
    }
  }
  if (!RequestShards(index, g)) {
    CancelShardGets(index);
    return fail(DataLossError("only " + std::to_string(g.have) +
                              " of the required " + std::to_string(k) +
                              " shards of chunk " + loc.id.ToHex() +
                              " are reachable"));
  }
  if (g.have < k || (index != demand && assembling_ >= assembly_workers_)) {
    return;
  }

  // A missing data shard needs the codec: one per (k, m), built once and
  // shared read-only by every assembly task.
  const ReedSolomon* rs = nullptr;
  std::size_t missing_bytes = 0;
  for (int s = 0; s < k; ++s) {
    if (!g.got[static_cast<std::size_t>(s)].has_value()) {
      missing_bytes += ErasureShardLength(loc.size, k, s);
    }
  }
  if (missing_bytes > 0) {
    auto codec = codecs_.find({k, loc.ec_m});
    if (codec == codecs_.end()) {
      Result<ReedSolomon> created = ReedSolomon::Create(k, loc.ec_m);
      if (!created.ok()) return fail(created.status());
      codec = codecs_.emplace(std::pair{k, loc.ec_m},
                              std::move(created).value()).first;
    }
    rs = &codec->second;
  }
  g.out.decoded.resize(missing_bytes);  // not filled: decoding defines it
  g.out.slices.reserve(static_cast<std::size_t>(k));
  g.settled = true;
  g.posted = true;
  ++assembling_;
  const std::vector<std::optional<BufferSlice>>* got = &g.got;
  Assembly* out = &g.out;
  g.ticket = HashPool::Shared().Post(
      1, assembly_workers_,
      [&loc, got, rs, out](std::size_t) { Assemble(loc, *got, rs, out); });
}

bool ReadSession::RequestShards(std::size_t index, Gather& g) {
  const ChunkLocation& loc = record_.chunk_map.chunks[index];
  const std::size_t total = g.state.size();
  int need = loc.ec_k;  // shards still to ask for
  int live = 0;         // candidates on holders not observed dead
  for (std::size_t s = 0; s < total; ++s) {
    ShardState st = g.state[s];
    NodeId node = loc.shards[s].node;
    if (st == ShardState::kGot || st == ShardState::kPending) {
      --need;
    } else if (st != ShardState::kFailed && node != kInvalidNode &&
               !dead_nodes_.contains(node)) {
      ++live;
    }
  }
  for (std::size_t s = 0; s < total && need > 0; ++s) {
    ShardState& st = g.state[s];
    NodeId node = loc.shards[s].node;
    // kInvalidNode: the holder departed and the shard awaits repair.
    if (st == ShardState::kGot || st == ShardState::kPending ||
        st == ShardState::kFailed || node == kInvalidNode) {
      continue;
    }
    if (dead_nodes_.contains(node)) {
      if (live >= need) {
        if (st != ShardState::kSkipped) ++stats_.dead_replica_skips;
        st = ShardState::kSkipped;
        continue;
      }
      // Too few live holders left: the dead mark may have been a transient
      // drop, so retry it.
    } else {
      --live;
    }
    --need;
    if (probes_.contains(node)) continue;  // held for the first reply
    if (!contacted_.contains(node)) probes_.insert(node);
    OpHandle h = transport_->Submit(ChunkOp::Get(node, loc.shards[s].id));
    inflight_.emplace(h, Fetch{{index}, node, static_cast<int>(s)});
    ++stats_.single_gets;
    ++g.pending;
    st = ShardState::kPending;
  }
  return need == 0;
}

void ReadSession::Assemble(const ChunkLocation& loc,
                           const std::vector<std::optional<BufferSlice>>& got,
                           const ReedSolomon* rs, Assembly* out) {
  const int k = loc.ec_k;
  const std::size_t shard_size = ErasureShardSize(loc.size, k);
  auto shard_error = [&loc](int s, const char* what) {
    return DataLossError("shard " + std::to_string(s) + " of chunk " +
                         loc.id.ToHex() + " " + what);
  };

  // Fetched data shards are checked against their own addresses and
  // served as they are; the missing ones are listed for decoding.
  std::vector<int> want;
  for (int s = 0; s < k; ++s) {
    const std::size_t len = ErasureShardLength(loc.size, k, s);
    if (len == 0) continue;
    const auto& shard = got[static_cast<std::size_t>(s)];
    if (!shard.has_value()) {
      want.push_back(s);
    } else if (shard->size() != len) {
      out->status = shard_error(s, "has the wrong stored size");
      return;
    } else if (ChunkId::For(*shard) !=
               loc.shards[static_cast<std::size_t>(s)].id) {
      out->status = shard_error(s, "failed integrity verification");
      return;
    }
  }

  // Missing shards decode into consecutive regions of the buffer the
  // session thread sized for them alone, and each is hashed against its
  // own address. Parity is never hashed: a corrupt parity shard shows up
  // as a decoded shard that fails its id.
  BufferRef rebuilt;
  if (!want.empty()) {
    Bytes decoded = std::move(out->decoded);
    std::vector<MutableByteSpan> outs;
    std::size_t offset = 0;
    for (int s : want) {
      const std::size_t len = ErasureShardLength(loc.size, k, s);
      outs.emplace_back(decoded.data() + offset, len);
      offset += len;
    }
    std::vector<std::optional<ByteSpan>> views(got.size());
    for (std::size_t s = 0; s < got.size(); ++s) {
      const auto& shard = got[s];
      if (shard.has_value()) views[s] = shard->span();
    }
    out->status = rs->RecoverShards(views, shard_size, want, outs);
    if (!out->status.ok()) return;
    for (std::size_t w = 0; w < want.size(); ++w) {
      if (ChunkId::For(ByteSpan(outs[w])) !=
          loc.shards[static_cast<std::size_t>(want[w])].id) {
        out->status = shard_error(want[w],
                                  "failed integrity verification after "
                                  "reconstruction");
        return;
      }
    }
    rebuilt = BufferRef::Take(std::move(decoded));
    out->rebuilt = true;
  }

  // The verified data shards in chunk order: fetched ones alias the
  // serving node's buffer, decoded ones the rebuilt buffer.
  std::size_t offset = 0;
  for (int s = 0; s < k; ++s) {
    const std::size_t len = ErasureShardLength(loc.size, k, s);
    if (len == 0) continue;
    const auto& shard = got[static_cast<std::size_t>(s)];
    if (shard.has_value()) {
      out->slices.push_back(*shard);
    } else {
      out->slices.emplace_back(rebuilt, offset, len);
      offset += len;
    }
  }

#ifndef NDEBUG
  // The whole-chunk id is the map and dedup key, not the read check; debug
  // builds still confirm the verified shards make up exactly that chunk,
  // which catches a decoder or shard-layout bug, or a shard list that does
  // not belong to the chunk. Like the shard checks, it fails the chunk, not
  // the process.
  Sha1Hasher whole;
  for (const BufferSlice& slice : out->slices) whole.Update(slice.span());
  if (ChunkId{whole.Finish()} != loc.id) {
    out->slices.clear();
    out->status = DataLossError("shards of chunk " + loc.id.ToHex() +
                                " do not make up the chunk");
  }
#endif
}

Status ReadSession::TakeAssembly(std::size_t index, std::size_t demand) {
  auto it = gathers_.find(index);
  Gather& g = it->second;
  if (g.posted) {
    HashPool::Shared().Await(g.ticket);
    --assembling_;
  }
  if (g.out.rebuilt) ++stats_.reconstructions;
  Status status = std::move(g.out.status);
  if (status.ok()) {
    Insert(index, std::move(g.out.slices));
    EvictToBudget(demand);
  }
  gathers_.erase(it);
  return status;
}

void ReadSession::CancelShardGets(std::size_t index) {
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->second.shard < 0 || it->second.indices[0] != index) {
      ++it;
      continue;
    }
    (void)transport_->Cancel(it->first);
    probes_.erase(it->second.node);
    it = inflight_.erase(it);
  }
}

void ReadSession::RetireGathers(std::size_t demand, std::size_t end) {
  for (auto it = gathers_.begin(); it != gathers_.end();) {
    const std::size_t index = (it++)->first;
    if (index >= demand && index <= end) continue;
    if (gathers_.at(index).settled) {
      // Assembled work is not wasted: a verified chunk lands in the cache.
      (void)TakeAssembly(index, demand);
    } else {
      CancelShardGets(index);
      gathers_.erase(index);
    }
  }
}

void ReadSession::AwaitAssemblies() {
  for (const auto& [index, g] : gathers_) HashPool::Shared().Await(g.ticket);
}

void ReadSession::Insert(std::size_t index,
                         std::vector<BufferSlice> slices) {
  if (cache_index_.contains(index)) return;
  cache_bytes_ += record_.chunk_map.chunks[index].size;
  stats_.cache_bytes_peak = std::max<std::uint64_t>(stats_.cache_bytes_peak,
                                                    cache_bytes_);
  cache_.push_back(Cached{index, std::move(slices)});
  cache_index_[index] = std::prev(cache_.end());
}

void ReadSession::EvictToBudget(std::size_t demand) {
  if (options_.read_cache_budget_bytes == 0) return;
  std::size_t window_end = WindowEnd(demand);
  auto it = cache_.begin();
  while (cache_bytes_ > options_.read_cache_budget_bytes &&
         it != cache_.end()) {
    // Never evict what the active window still needs — a budget below the
    // window size degrades to window-sized caching, not livelock.
    if (it->index >= demand && it->index <= window_end) {
      ++it;
      continue;
    }
    cache_bytes_ -= record_.chunk_map.chunks[it->index].size;
    cache_index_.erase(it->index);
    it = cache_.erase(it);
    ++stats_.cache_evictions;
  }
}

namespace {

// Delivers verified chunk bytes into the caller's buffer. With W > 1 the
// copies queue up and go to the shared HashPool in batches of at least
// `batch_bytes`, so they run on the pool while the session thread fetches
// and verifies the next chunks, and small (CbCH) chunks share a post; with
// W == 1 each copy runs inline, the serial path bit for bit. Queued pieces
// hold their slices, so eviction from the read-ahead cache cannot pull the
// bytes out from under a pending copy; the slices drop with the CopyOut, on
// the session thread.
class CopyOut {
 public:
  CopyOut(int workers, std::size_t batch_bytes)
      : workers_(workers), batch_bytes_(batch_bytes) {}

  void Add(BufferSlice piece, std::uint8_t* dst) {
    if (workers_ <= 1) {
      std::memcpy(dst, piece.data(), piece.size());
      return;
    }
    queued_bytes_ += piece.size();
    queued_.push_back(Piece{std::move(piece), dst});
    if (queued_bytes_ >= batch_bytes_) Post();
  }

  // Posts what is still queued, then blocks until every posted copy has
  // run. Newest batch first: workers take batches oldest first, so the
  // awaiting thread copies the tail itself instead of waiting behind it.
  void AwaitAll() {
    Post();
    for (auto it = posted_.rbegin(); it != posted_.rend(); ++it) {
      HashPool::Shared().Await(it->ticket);
    }
  }

 private:
  struct Piece {
    BufferSlice src;
    std::uint8_t* dst;
  };
  struct Batch {
    std::vector<Piece> pieces;  // stays put while posted (deque element)
    HashPool::Ticket ticket;
  };

  void Post() {
    if (queued_.empty()) return;
    Batch& batch = posted_.emplace_back();
    batch.pieces = std::move(queued_);
    queued_.clear();
    queued_bytes_ = 0;
    const std::vector<Piece>* pieces = &batch.pieces;
    batch.ticket = HashPool::Shared().Post(
        pieces->size(), workers_, [pieces](std::size_t i) {
          const Piece& p = (*pieces)[i];
          std::memcpy(p.dst, p.src.data(), p.src.size());
        });
  }

  const int workers_;
  const std::size_t batch_bytes_;
  std::vector<Piece> queued_;
  std::size_t queued_bytes_ = 0;
  std::deque<Batch> posted_;
};

}  // namespace

Result<std::size_t> ReadSession::ReadAt(std::uint64_t offset,
                                        MutableByteSpan out) {
  if (offset >= record_.size || out.empty()) return std::size_t{0};

  // Serialize the whole call: the window, cache and failover state are one
  // coherent machine, and ChunkData's returned pointer aliases the cache.
  MutexLock lock(mu_);

  // The failover budget bounds retries within one call; a fresh call gets
  // a fresh budget (links heal, nodes restart), like the pre-pipelined
  // reader whose every attempt re-swept the replica set.
  fetch_attempts_.clear();

  const auto& chunks = record_.chunk_map.chunks;
  // Chunks are ordered by file_offset; binary-search the starting chunk.
  std::size_t lo = 0, hi = chunks.size();
  while (lo + 1 < hi) {
    std::size_t mid = (lo + hi) / 2;
    if (chunks[mid].file_offset <= offset) {
      lo = mid;
    } else {
      hi = mid;
    }
  }

  CopyOut copies(assembly_workers_, options_.chunk_size);
  Status status;
  std::size_t written = 0;
  std::uint64_t pos = offset;
  for (std::size_t i = lo; i < chunks.size() && written < out.size(); ++i) {
    const ChunkLocation& c = chunks[i];
    if (pos < c.file_offset) break;  // hole (should not happen)
    if (pos >= c.file_offset + c.size) continue;

    bool was_cached = cache_index_.contains(i);
    // ChunkData yields verified bytes only — a replica was checked against
    // its address by the serving benefactor, each data shard of an
    // erasure-coded chunk against its shard address — so nothing
    // unverified is queued for the caller.
    Result<const std::vector<BufferSlice>*> chunk = ChunkData(i);
    if (!chunk.ok()) {
      status = chunk.status();
      break;
    }
    if (was_cached) ++stats_.cache_hits;

    // One piece per slice the range overlaps.
    auto skip = static_cast<std::size_t>(pos - c.file_offset);
    std::size_t left = static_cast<std::size_t>(
        std::min<std::uint64_t>(c.size - skip, out.size() - written));
    for (const BufferSlice& slice : *chunk.value()) {
      if (left == 0) break;
      if (skip >= slice.size()) {
        skip -= slice.size();
        continue;
      }
      std::size_t n = std::min(slice.size() - skip, left);
      copies.Add(slice.Subslice(skip, n), out.data() + written);
      written += n;
      pos += n;
      left -= n;
      skip = 0;
    }
  }
  // Every copy lands before the call returns, on success or error alike:
  // the caller may free `out` the moment it has the result.
  copies.AwaitAll();
  if (!status.ok()) {
    // Leave no assembly running behind an error.
    AwaitAssemblies();
    return status;
  }
  return written;
}

Result<Bytes> ReadSession::ReadAll() {
  // Sized without zero-filling (Bytes(n) leaves the bytes unspecified):
  // ReadAt overwrites every byte, in parallel.
  Bytes out(record_.size);
  STDCHK_ASSIGN_OR_RETURN(std::size_t n, ReadAt(0, MutableByteSpan(out)));
  if (n < out.size()) {
    return DataLossError("short read at offset " + std::to_string(n));
  }
  return out;
}

}  // namespace stdchk
