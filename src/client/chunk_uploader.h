// Layer 3 of the staged write engine: moving sealed chunks to benefactors.
//
// Staged chunks accumulate in an ordered pending set; Flush() drains them
// through per-benefactor queues as batched multi-chunk PUTs, submitted
// through the async transport so every target node (and every batch slice)
// is in flight simultaneously — the drain's wall time is the slowest link,
// not the sum of links. The three §IV.B protocols differ only in when they
// call Flush(): SW after every sealed chunk, IW once per completed
// increment, CLW once at close. Failover re-routes a rejected batch
// wholesale: the dead stripe member is swapped for a fresh donor
// (CommitCoordinator::ReplaceStripeMember) and the affected chunks walk on
// to their next placement candidates.
// In erasure-coded mode (ClientOptions::erasure) a flush does no encoding:
// each staged chunk arrives with its k data-shard views, m parity shards
// and shard names already computed by the write session's naming window.
// The flush stripes the k+m shards across distinct stripe members — same
// per-node batching and dead-member failover, but the placement unit is
// the shard and "distinct" is enforced per group (one death must cost at
// most one shard). All k+m shards must land or the flush fails: parity is
// the durability, so there is no optimistic shortfall.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "client/chunk_planner.h"
#include "client/client_options.h"
#include "client/commit_coordinator.h"
#include "client/placement.h"
#include "client/transport.h"
#include "client/write_stats.h"
#include "common/status.h"

namespace stdchk {

class ChunkUploader {
 public:
  ChunkUploader(Transport* transport, PlacementPolicy* placement,
                CommitCoordinator* coordinator, const ClientOptions& options,
                WriteStats* stats);

  // Queues one sealed chunk for upload. Its chunk-map slot is claimed
  // immediately (map order == staging order == file order); the replicas
  // are filled in when a flush lands it.
  void Stage(StagedChunk chunk);

  // Drains every pending chunk. Optimistic semantics need one replica per
  // chunk; pessimistic need the full replication target or the flush
  // fails (§IV.A tunable write semantics).
  Status Flush();

  std::size_t pending_chunks() const { return pending_.size(); }

 private:
  struct Pending {
    StagedChunk chunk;
    std::size_t map_slot = 0;
    std::vector<NodeId> replicas;  // nodes that accepted the chunk
  };
  // One placement unit of a flush: a whole chunk (replication) or one
  // shard (erasure).
  struct Unit {
    ChunkPut put;
    std::vector<NodeId> candidates;  // remaining placement walk
    std::size_t attempts = 0;        // failover budget spent
    std::vector<NodeId> placed;      // nodes that accepted it
    // Nodes it must not be sent to: those holding it or with it in flight
    // (for a shard, those holding any shard of its group).
    std::set<NodeId>* taken = nullptr;
  };

  int replicas_needed() const;
  // Walks every unit with fewer than `needed` placements through its
  // candidates in rounds — one batched PUT per target node per round, all
  // in flight at once — swapping failed nodes out of the stripe. Returns
  // an error only if the transport does; shortfalls are left for the
  // caller to judge.
  Status DrainRounds(std::vector<Unit>& units, int needed);
  // The erasure-coded drain: reserve, place and stripe the staged shards.
  // All-or-nothing per call — a failed flush settles nothing and a retry
  // re-sends the same shards (shard puts are content-addressed, so
  // re-sending an already-stored shard is an idempotent no-op at the
  // benefactor).
  Status FlushErasure();

  Transport* transport_;
  PlacementPolicy* placement_;
  CommitCoordinator* coordinator_;
  const ClientOptions& options_;
  WriteStats* stats_;

  std::deque<Pending> pending_;
  std::uint64_t pending_bytes_ = 0;
};

}  // namespace stdchk
