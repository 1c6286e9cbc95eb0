// The benchmark's workloads and the closed-loop load generator that runs them
// against the functional stack (StdchkCluster -> ClientProxy ->
// WriteSession/ReadSession -> Transport -> Benefactor -> ChunkStore).
//
// One round stands for one checkpoint interval: every client writes one
// image, then every client restart-reads its latest image and compares it
// byte for byte with what it wrote, then the background pump ticks once
// per virtual second of the interval. Clients run on their own threads,
// each with its own ClientProxy, and issue their next operation only after
// the previous one returned.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "client/read_session.h"
#include "client/write_stats.h"
#include "trace.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  int clients = 1;
  std::size_t image_bytes = 0;
  // Successive MakeBlcrLikeTrace images instead of fresh random bytes.
  bool blcr_images = false;
  // Gear CbCH boundaries with compare-by-hash dedup (incremental_fsch).
  bool cbch_dedup = false;
  // Log-structured segment stores under the work directory.
  bool disk = false;
  stdchk::ErasureCoded erasure;
  int keep_last = 1;
  int replication_target = 2;
  // Pump ticks per round: the interval length in virtual seconds.
  int ticks_per_round = 1;
  // ManagerOptions::max_replications_per_tick; 0 keeps the manager default.
  int replications_per_tick = 0;
  // Benefactors crashed before each restart read and restarted after it.
  int crashes_per_restart = 0;
};

// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct PassConfig {
  std::uint64_t seed = 1;
  // Measured rounds run until this much wall time has passed.
  double seconds = 10;
  // Directory the disk workload's segment stores live under.
  std::string work_dir;
};

enum class OpKind { kCheckpoint, kRestart, kRound };

// Counters that repeat exactly for one seed and round count: a traced pass
// must report the same values as its untraced twin.
struct DeterministicCounters {
  std::uint64_t fsyncs = 0;
  std::uint64_t data_syscalls = 0;
  std::uint64_t batched_puts = 0;
  std::uint64_t bytes_transferred = 0;
  std::uint64_t stored_bytes = 0;
  bool operator==(const DeterministicCounters&) const = default;
};

struct PassResult {
  std::size_t rounds = 0;  // measured rounds
  double first_setup_s = 0;  // the cluster the pass runs on
  // Per measured round (index-aligned): the reference work's time just
  // before the round (calibration.h), one more set-up after it, and its
  // pump time.
  std::vector<double> calibration_ms;
  std::vector<double> setup_s;
  std::vector<double> round_tick_s;

  // Measured rounds only; latencies are round-major, one per client.
  std::vector<double> ckpt_ms;
  std::vector<double> restart_ms;
  std::vector<stdchk::WriteStats> writes;  // one per checkpoint
  std::vector<stdchk::ReadStats> reads;    // one per restart
  // Per round: bytes all clients checkpointed (or restart-read and
  // verified) in the round ÷ wall time of its write (read) phase.
  std::vector<double> ckpt_round_mib_s;
  std::vector<double> restart_round_mib_s;
  std::uint64_t app_bytes_written = 0;  // by successful checkpoints
  std::vector<std::uint64_t> backlog;  // replication backlog at round end
  std::uint64_t replication_commands = 0;
  std::uint64_t gc_reclaimed_chunks = 0;
  std::uint64_t purged_versions = 0;
  stdchk::ChunkStoreStats store;  // delta over the measured rounds
  std::uint64_t catalog_lock_contended = 0;
  std::uint64_t placement_fetches = 0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // errors, refusals and mismatches
  std::uint64_t mismatches = 0;

  // After the final settle.
  std::uint64_t stored_bytes = 0;
  std::uint64_t retained_logical_bytes = 0;
  // Disk workload: reopening every donor's segment directory.
  double donor_reopen_s = 0;
  std::uint64_t recovered_chunks = 0;

  DeterministicCounters counters;  // whole pass, warm-up included

  // Traced passes: the spans, the kind of every op id and whether it was
  // measured, and the transport decorator's op counts over the measured
  // rounds.
  std::vector<Span> spans;
  std::vector<OpKind> op_kind;  // indexed by op id; entry 0 unused
  std::vector<bool> op_measured;
  std::uint64_t put_batch_ops = 0;
  std::uint64_t get_ops = 0;
  std::uint64_t get_batch_ops = 0;
  std::size_t inflight_peak = 0;
};

// Runs one untraced pass: set-up, discarded warm-up rounds, measured rounds
// for config.seconds, a final settle and, on disk, the donor reopen. Two
// more clusters are built and discarded after every measured round and the
// second is timed, so setup_s is a median over as many set-ups as rounds.
PassResult RunPass(const WorkloadSpec& spec, const PassConfig& config);

struct TracedPair {
  PassResult traced;
  PassResult untraced;
};

// Runs a traced and an untraced pass of one seed side by side, on two
// clusters, interleaving their measured rounds (alternating which goes
// first) for config.seconds in total. Both see the same inputs, the same
// number of rounds and the same machine conditions, so their difference is
// the tracing overhead.
TracedPair RunTracedPair(const WorkloadSpec& spec, const PassConfig& config);

}  // namespace perfbench
