// Per-session write accounting, shared by every layer of the staged write
// engine. Readers use it to tell the three §IV.B protocols apart: they
// commit identical chunk maps but move the same bytes at different times.
#pragma once

#include <cstdint>

namespace stdchk {

struct WriteStats {
  std::uint64_t bytes_written = 0;     // application bytes accepted
  std::uint64_t bytes_transferred = 0; // bytes actually sent to benefactors
  std::uint64_t chunks_total = 0;
  std::uint64_t chunks_deduplicated = 0;
  std::uint64_t bytes_deduplicated = 0;  // referenced, not re-transferred
  std::uint64_t replica_puts = 0;      // total chunk-replica transfers

  // Protocol-shape signals (what distinguishes CLW / IW / SW):
  std::uint64_t flushes = 0;            // network drain points
  std::uint64_t batched_puts = 0;       // batch RPCs issued by the uploader
  std::uint64_t bytes_spilled_local = 0;  // client-side spill (CLW/IW temp)
  std::uint64_t max_buffered_bytes = 0;   // high-water client buffering:
                                          // planner + unpushed window
  std::uint64_t inflight_put_peak = 0;  // concurrent batch PUTs in flight

  // Decentralized placement (epoch-versioned table):
  std::uint64_t placement_table_fetches = 0;  // manager table RPCs (cold
                                              // cache or stale epoch only)
  std::uint64_t placement_epoch_mismatches = 0;  // stale-epoch rejections
  std::uint64_t local_placements = 0;  // stripes computed client-side

  // Erasure-coded write path (ClientOptions::erasure):
  std::uint64_t parity_shards_written = 0;  // parity shard puts that landed
  std::uint64_t data_shards_written = 0;    // data shard puts that landed
  std::uint64_t parity_bytes_written = 0;   // redundancy bytes shipped
  // Encode runs as naming-window tasks on any thread, so this is encode-
  // task time summed over all threads, not wall time; the part that ran on
  // the session thread is also inside hash_ns.
  std::uint64_t erasure_encode_ns = 0;
  std::uint64_t erasure_encoded_chunks = 0;  // once per chunk leaving the
                                             // window, not per flush retry

  // Chunk-naming (SHA-1) accounting from the session's naming window:
  std::uint64_t hash_ns = 0;            // session-thread time running or
                                        // awaiting window tasks (naming,
                                        // and shard encode when EC)
  std::uint64_t hash_chunks = 0;        // chunks named
  std::uint64_t hash_bytes = 0;         // bytes hashed for naming
  std::uint64_t hash_workers_peak = 0;  // most threads seen running this
                                        // session's window tasks at once
};

}  // namespace stdchk
