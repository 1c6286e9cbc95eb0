// Pipelined read engine: chunk-map lookup at the manager, then overlapped
// chunk fetches from benefactors through the async transport (paper §IV.E:
// "improves read performance through read-ahead and high volume caching").
// Reads matter for timely job restarts (§III.B).
//
// The engine keeps a bounded window of chunk fetches in flight — the demand
// chunk plus ClientOptions::read_ahead_chunks of read-ahead — overlapping
// transfers across distinct benefactors. Chunks of the window that land on
// the same replica are coalesced into one GetChunkBatch RPC. Replica
// selection round-robins over each chunk's replica set, skips nodes already
// observed dead this session before paying a failed RPC (retrying them only
// as a last resort), and fails over per chunk. The read-ahead cache is
// bounded by ClientOptions::read_cache_budget_bytes; evictions show up in
// ReadStats.
//
// Erasure-coded chunks ride the same window, widened to W =
// ClientOptions::hash_workers chunks when that is larger (as far as the
// cache budget holds it): the engine gathers k shards for each, and once a
// chunk has them its assembly — check each fetched data shard against its
// shard address, Reed-Solomon decode the missing ones and check those the
// same way — is posted to the shared HashPool, at most W at a time, while
// the session thread goes on gathering. A chunk's assembly is awaited,
// counted and cached only when the chunk is demanded. Every byte delivered
// from an erasure-coded chunk has been checked against its shard's content
// address; the whole-chunk id is the chunk-map and dedup key, re-checked
// over the verified shards in builds without NDEBUG only, where a mismatch
// fails the chunk with kDataLoss like a shard check does.
//
// A cached chunk is an ordered list of verified slices: one for a replica,
// the k data shards for an erasure-coded chunk (fetched shards alias the
// serving node's buffer; decoded ones share one buffer per chunk). ReadAt
// queues one piece per slice its range overlaps, with its destination, and
// posts the copies to the same pool in batches of at least
// ClientOptions::chunk_size bytes, so the read path's one copy spreads over
// W threads behind the fetch window — for both redundancy modes.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "client/client_options.h"
#include "client/transport.h"
#include "common/annotated_mutex.h"
#include "common/hash_pool.h"
#include "common/status.h"
#include "erasure/reed_solomon.h"
#include "manager/metadata_manager.h"

namespace stdchk {

// Per-session read accounting.
struct ReadStats {
  std::uint64_t chunks_fetched = 0;  // chunk payloads received
  std::uint64_t cache_hits = 0;      // demand chunk already cached at ReadAt
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_bytes_peak = 0;
  std::uint64_t single_gets = 0;  // GetChunk ops issued
  std::uint64_t batch_gets = 0;   // GetChunkBatch ops issued
  std::uint64_t failovers = 0;    // chunk fetches retried after a failure
  std::uint64_t dead_replica_skips = 0;  // replicas or shards skipped: their
                                         // holder was observed dead
  std::size_t inflight_peak = 0;  // engine's overlap high watermark (chunks)

  // Erasure-coded chunks (ChunkLocation::erasure_coded()):
  std::uint64_t shard_fetches = 0;         // shard payloads received
  std::uint64_t parity_shard_fetches = 0;  // parity pulled to cover a loss
  std::uint64_t reconstructions = 0;       // chunks rebuilt from parity
  std::uint64_t full_replica_fallbacks = 0;  // EC chunks served by a whole
                                             // replica after shard recovery
                                             // failed (mixed-mode dedup only)
};

class ReadSession {
 public:
  ReadSession(Transport* transport, VersionRecord record,
              ClientOptions options);
  ~ReadSession();

  ReadSession(const ReadSession&) = delete;
  ReadSession& operator=(const ReadSession&) = delete;

  std::uint64_t size() const { return record_.size; }

  // Reads up to `out.size()` bytes at `offset`; returns bytes read (0 at
  // EOF). Sequential callers get the full pipelined window. Serialized on
  // the session mutex: concurrent callers share one window and cache.
  // Each chunk is verified before any of its bytes reach `out`; the copies
  // into `out` — the read path's one copy — run on the shared HashPool
  // (W > 1) while later chunks are fetched, and every one has landed
  // before ReadAt returns, whether it succeeds or fails. One call, one
  // failover budget.
  Result<std::size_t> ReadAt(std::uint64_t offset, MutableByteSpan out)
      EXCLUDES(mu_);

  // Convenience: the whole file, as one ReadAt into a buffer sized without
  // zero-filling.
  Result<Bytes> ReadAll();

  // Snapshot of the accounting, copied under the session mutex so a reader
  // concurrent with ReadAt sees a consistent struct.
  ReadStats stats() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }
  std::uint64_t chunks_fetched() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_.chunks_fetched;
  }
  std::uint64_t cache_hits() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_.cache_hits;
  }

 private:
  // A verified chunk: its bytes in order, as slices that share the serving
  // node's buffer (or, for decoded shards, the assembly's) — never a copy.
  struct Cached {
    std::size_t index;
    std::vector<BufferSlice> slices;
  };
  // One in-flight transport op and the window chunks riding on it.
  struct Fetch {
    std::vector<std::size_t> indices;
    NodeId node = kInvalidNode;
    int shard = -1;  // >= 0: a GET of this shard of EC chunk indices[0]
  };

  enum class ShardState : std::uint8_t {
    kIdle,
    kSkipped,  // passed over: its holder was observed dead
    kPending,  // GET in flight
    kGot,
    kFailed,
  };
  // An assembly task's slots: the only memory the task writes.
  struct Assembly {
    // Sized for the missing data shards only (empty when none is missing)
    // on the session thread, so decoded bytes come from its allocator
    // arena: buffers allocated by pool workers would park freed chunks in
    // per-thread arenas and raise the process's peak RSS.
    Bytes decoded;
    Status status;
    // The k data shards' verified slices in chunk order (zero-length tail
    // shards left out); reserved on the session thread too.
    std::vector<BufferSlice> slices;
    bool rebuilt = false;  // decoded from parity
  };
  // An erasure-coded chunk in the window: its shard gather, then its
  // assembly. Map nodes stay put, so a posted task may point into one; from
  // post until the ticket is awaited the task writes only `out` and the
  // session thread only `ticket`.
  struct Gather {
    std::vector<ShardState> state;
    std::vector<std::optional<BufferSlice>> got;  // k+m slots
    int have = 0;
    int pending = 0;
    bool settled = false;  // assembly posted, or the gather failed
    bool posted = false;
    HashPool::Ticket ticket;
    Assembly out;
  };

  std::size_t WindowEnd(std::size_t demand) const;
  // Last position of the erasure-coded window: WindowEnd, widened to W
  // chunks as far as their bytes fit the cache budget.
  std::size_t ErasureWindowEnd(std::size_t demand) const;
  std::size_t MaxInflight() const;
  // Selects a replica for chunk `index`: round-robin over its replica set,
  // skipping replicas that already failed for this chunk and nodes observed
  // dead this session (dead nodes are retried only when no live candidate
  // remains — a drop may have been transient, so exhausted blacklists are
  // cleared and re-swept under a bounded per-chunk failover budget).
  Result<NodeId> PickReplica(std::size_t index) REQUIRES(mu_);
  // Fills the in-flight window for demand position `demand`, coalescing
  // same-replica chunks into batch GETs and gathering the shards of
  // erasure-coded ones; retires gathers the window has left. Errors only
  // if the demand chunk itself has no fetchable replica; read-ahead
  // failures stay soft.
  Status PumpWindow(std::size_t demand) REQUIRES(mu_);
  // Blocks for one completion and delivers it. Blocks in the transport
  // while holding mu_ — legal because kClientReadSession ranks below
  // kTransport, and intended: the window state must not shift under the
  // wait.
  Status HarvestOne(std::size_t demand) REQUIRES(mu_);
  // Delivers one completion: caches payloads or files shards, or records
  // the failure and releases its chunks for failover resubmission.
  void Deliver(OpCompletion c, std::size_t demand) REQUIRES(mu_);
  // Liveness bookkeeping for a reply from `node`.
  void NoteReply(NodeId node, const Status& status) REQUIRES(mu_);
  std::vector<OpHandle> InflightHandles() const REQUIRES(mu_);
  // Blocks until chunk `index` is cached (pumping + harvesting the window)
  // and returns its verified slices in order. The pointer aliases the
  // cache; it stays valid only until the next call that may evict (ReadAt
  // takes sub-slices of it at once).
  Result<const std::vector<BufferSlice>*> ChunkData(std::size_t index)
      REQUIRES(mu_);
  // Gathers erasure-coded chunk `index`: concurrent GETs for its k data
  // shards (each on its own benefactor — the striped-read parallelism comes
  // free), parity only to cover a shard whose holder is dead or failed.
  // Once k shards are in, posts the assembly (see Assemble) — the demand
  // chunk always, read-ahead while fewer than W are posted.
  void GatherShards(std::size_t index, std::size_t demand) REQUIRES(mu_);
  // Requests shards until k are in hand or asked for, in shard order
  // (data first). A holder observed dead is passed over while an untried
  // shard on another holder can cover it, and retried only as a last
  // resort; a holder not yet heard from gets one request at a time, so a
  // dead node costs one failed RPC per session. Returns false when the
  // chunk can no longer gather k shards.
  bool RequestShards(std::size_t index, Gather& g) REQUIRES(mu_);
  // The assembly task: verifies a chunk one data shard at a time and lists
  // its slices, copying nothing. A fetched data shard is checked against
  // its shard id (a stamp compare when the serving store stamped it, a
  // re-hash otherwise) and served as is; missing ones decode straight into
  // `out->decoded` and are hashed against their own shard ids. Parity is
  // not hashed: a corrupt parity shard surfaces as a decoded shard that
  // fails its id. `rs` is null when no data shard is missing. Reads only
  // its inputs and writes only `out`, so it runs on any pool thread.
  static void Assemble(const ChunkLocation& loc,
                       const std::vector<std::optional<BufferSlice>>& got,
                       const ReedSolomon* rs, Assembly* out);
  // Awaits gather `index`'s assembly, counts it and caches a verified
  // chunk; drops the gather and returns the assembly's status.
  Status TakeAssembly(std::size_t index, std::size_t demand) REQUIRES(mu_);
  // Cancels the shard GETs still in flight for gather `index`.
  void CancelShardGets(std::size_t index) REQUIRES(mu_);
  // Cancels, awaits or takes every gather outside [demand, end].
  void RetireGathers(std::size_t demand, std::size_t end) REQUIRES(mu_);
  void AwaitAssemblies() REQUIRES(mu_);

  void Insert(std::size_t index, std::vector<BufferSlice> slices)
      REQUIRES(mu_);
  void EvictToBudget(std::size_t demand) REQUIRES(mu_);

  Transport* transport_;
  VersionRecord record_;
  ClientOptions options_;
  const int assembly_workers_;  // W

  // Session lock: one ReadAt (window pump + harvest + cache) runs at a
  // time, and the stats accessors snapshot under it. Ranks below the
  // transport because HarvestOne waits on completions while holding it.
  mutable Mutex mu_{LockRank::kClientReadSession, 0, "read_session"};

  ReadStats stats_ GUARDED_BY(mu_);

  std::list<Cached> cache_ GUARDED_BY(mu_);  // insertion order = eviction order
  std::map<std::size_t, std::list<Cached>::iterator> cache_index_
      GUARDED_BY(mu_);
  std::uint64_t cache_bytes_ GUARDED_BY(mu_) = 0;

  std::map<OpHandle, Fetch> inflight_ GUARDED_BY(mu_);
  std::set<std::size_t> inflight_chunks_ GUARDED_BY(mu_);

  // Nodes observed unreachable this session.
  std::set<NodeId> dead_nodes_ GUARDED_BY(mu_);
  // Nodes whose liveness this session has seen (a reply or a failed RPC),
  // and those not yet seen that have a shard GET out.
  std::set<NodeId> contacted_ GUARDED_BY(mu_);
  std::set<NodeId> probes_ GUARDED_BY(mu_);
  std::map<std::size_t, std::set<NodeId>> failed_replicas_
      GUARDED_BY(mu_);  // per chunk
  std::map<std::size_t, std::size_t> fetch_attempts_
      GUARDED_BY(mu_);  // failed, per ReadAt
  // Retry alone after a batch rejection.
  std::set<std::size_t> singles_only_ GUARDED_BY(mu_);
  std::size_t rr_replica_ GUARDED_BY(mu_) = 0;
  // EC chunks demoted to the whole-replica path after shard recovery
  // failed (possible only for mixed-mode chunks that also carry replicas).
  std::set<std::size_t> replica_fallback_ GUARDED_BY(mu_);

  // The erasure-coded window. Every posted ticket is awaited before the
  // session dies; a task reads the record, a codec and its gather's shards.
  std::map<std::size_t, Gather> gathers_ GUARDED_BY(mu_);
  int assembling_ GUARDED_BY(mu_) = 0;  // posted, not yet taken
  std::map<std::pair<int, int>, ReedSolomon> codecs_ GUARDED_BY(mu_);
};

}  // namespace stdchk
