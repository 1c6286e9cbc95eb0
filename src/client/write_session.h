// One open-for-write file: the client proxy's side of session semantics.
//
// WriteSession is a thin facade over the staged write engine:
//
//   ChunkPlanner       buffering + chunk-boundary decisions (any Chunker)
//   PlacementPolicy    which stripe members receive each chunk's replicas
//   ChunkUploader      per-benefactor queues, batched multi-chunk PUTs
//   CommitCoordinator  reservation growth, dedup queries, atomic commit,
//                      stash-for-recovery when the manager is down
//
// The application streams bytes in with Write(). Each sealed drain
// generation enters one naming window: its SHA-1 naming is posted to the
// shared HashPool without waiting, and named generations are pushed in
// file order. In an erasure-coded session the window also encodes and
// names every chunk's shards: 1 + k + m independent tasks per chunk (the
// chunk's name, one per data-shard view, one per parity row encoded and
// then named), so the uploader only places finished shards. The protocol
// (§IV.B) decides when: SW keeps up to W = hash_workers chunk-sizes
// unpushed (the chunk being filled included) and pushes each generation
// once named, so a push failure surfaces at the next Write() or at
// Close(); IW pushes per completed increment; CLW spills locally and
// drains everything at Close(). All three commit identical chunk maps —
// Close() pushes whatever remains, then commits atomically; until that
// commit no reader can observe the file (paper §IV.A, session semantics).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "client/transport.h"
#include "client/chunk_planner.h"
#include "client/chunk_uploader.h"
#include "client/client_options.h"
#include "client/commit_coordinator.h"
#include "client/placement.h"
#include "client/write_stats.h"
#include "common/hash_pool.h"
#include "common/status.h"
#include "erasure/reed_solomon.h"
#include "manager/metadata_manager.h"
#include "manager/types.h"

namespace stdchk {

class WriteSession {
 public:
  // `table_cache` is the owning ClientProxy's: the session computes its
  // stripe from the cached placement table.
  WriteSession(MetadataManager* manager, Transport* transport,
               CheckpointName name, ClientOptions options,
               PlacementTableCache& table_cache);
  ~WriteSession();

  WriteSession(const WriteSession&) = delete;
  WriteSession& operator=(const WriteSession&) = delete;

  // Appends application data (checkpoint images are written sequentially).
  Status Write(ByteSpan data);

  // Flush + atomic commit. Idempotent: second call is an error.
  Result<CloseOutcome> Close();

  // Abandons the write: cancels naming still in flight, releases the
  // reservation; pushed chunks become orphans and are reclaimed by GC.
  void Abort();

  const WriteStats& stats() const { return stats_; }
  bool closed() const { return closed_; }

  // Introspection on the assembled chunk map (committed only after a
  // successful Close): the map itself, which slots were satisfied by
  // compare-by-hash reuse, and the file size so far.
  const ChunkMap& chunk_map() const { return coordinator_.map(); }
  const std::vector<bool>& chunk_reused() const {
    return coordinator_.slot_reused();
  }
  std::uint64_t file_size() const { return coordinator_.file_size(); }

 private:
  // A sealed drain generation whose chunks are being named.
  struct Generation {
    std::vector<StagedChunk> chunks;
    std::uint64_t bytes = 0;
    HashPool::Ticket naming;
    // Erasure-coded sessions: every chunk's k data-shard views and m parity
    // buffers, chunk by chunk. Set up (parity zeroed) on the session thread
    // at seal time; the encode tasks fill the buffers, which move into the
    // chunks' shards once the generation is named.
    std::vector<ByteSpan> data_views;
    std::vector<Bytes> parity;
  };

  // Seals what the planner can release and posts the generation's naming
  // (and, erasure-coded, its shard encoding) to the shared pool without
  // waiting. Fails only if the erasure codec cannot be built.
  Status SealAndPost(bool final);
  // Sets up `gen`'s shard views and zeroed parity buffers.
  void StageShards(Generation& gen);
  // Naming task `task` of chunk `c`: 0 names the chunk; 1..k name a data
  // shard; k+1..k+m encode a parity row, then name it.
  void RunNamingTask(Generation& gen, std::size_t c, std::size_t task);
  // Pushes window generations in file order, one flush each, after
  // filtering chunks the system already stores (compare-by-hash dedup):
  // all of them if `all`, else those already named plus as many as it
  // takes to bring the unpushed bytes under W chunk-sizes.
  Status PushWindow(bool all);
  // Drains the uploader if anything is pending; one network drain point.
  Status FlushPending();

  ClientOptions options_;
  WriteStats stats_;

  ChunkPlanner planner_;
  std::unique_ptr<PlacementPolicy> placement_;
  CommitCoordinator coordinator_;
  ChunkUploader uploader_;

  // The naming window. Every ticket is awaited before its generation
  // leaves the window or the session dies, so naming tasks may point into
  // the window and at this session.
  const int naming_workers_;        // W
  std::optional<ReedSolomon> codec_;  // erasure-coded sessions, first seal
  std::deque<Generation> window_;
  std::uint64_t window_bytes_ = 0;  // sealed, not yet pushed
  std::atomic<bool> naming_cancelled_{false};
  std::atomic<int> naming_running_{0};
  std::atomic<int> naming_peak_{0};
  std::atomic<std::uint64_t> encode_ns_{0};  // summed over encode tasks

  bool closed_ = false;
  bool aborted_ = false;
};

}  // namespace stdchk
