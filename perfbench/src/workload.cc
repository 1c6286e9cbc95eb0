#include "workload.h"

#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>

#include "calibration.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "decorators.h"
#include "workload/trace_generators.h"

namespace perfbench {
namespace {

using stdchk::Bytes;
using stdchk::ByteSpan;
using stdchk::StdchkCluster;
using stdchk::operator""_MiB;
using Clock = std::chrono::steady_clock;

// The application hands the proxy its image in write() calls of this size.
constexpr std::size_t kWritePiece = 256 * 1024;
constexpr int kBenefactors = 8;
constexpr double kMiB = 1024.0 * 1024.0;
// Discarded rounds before timing: enough for retention to start purging
// (keep_last <= 2) and for the heap to reach its working-set size.
constexpr int kWarmupRounds = 3;
// Ticks the warm-up and the final settle may take to converge.
constexpr std::size_t kSettleTicks = 4096;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// splitmix64 finalizer: independent streams from (seed, salt).
std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string AppName(int client) { return "app" + std::to_string(client); }
std::string NodeName(int client) { return "desk" + std::to_string(client); }

// One client's checkpoint images, generated from the seed.
class ImageSource {
 public:
  ImageSource(const WorkloadSpec& spec, std::uint64_t seed, int client)
      : bytes_(spec.image_bytes), rng_(Mix(seed, 2 * client)) {
    if (spec.blcr_images) {
      stdchk::BlcrTraceOptions options;
      options.initial_pages = spec.image_bytes / options.page_bytes;
      options.seed = Mix(seed, 2 * client + 1);
      trace_ = stdchk::MakeBlcrLikeTrace(options);
    }
  }

  Bytes Next() { return trace_ ? trace_->Next() : rng_.RandomBytes(bytes_); }

 private:
  std::size_t bytes_;
  stdchk::Rng rng_;
  std::unique_ptr<stdchk::CheckpointTrace> trace_;
};

// Runs fn(c) for every client, each on its own thread (inline for one).
template <typename Fn>
void ForEachClient(int clients, Fn fn) {
  if (clients == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) threads.emplace_back(fn, c);
  for (std::thread& t : threads) t.join();
}

// One cluster and its clients. Traced and untraced rigs are built by the
// same code; only the decorators differ.
struct Rig {
  std::unique_ptr<StdchkCluster> cluster;
  std::unique_ptr<TracedTransport> transport;  // traced rigs only
  std::vector<std::unique_ptr<stdchk::ClientProxy>> proxies;
};

stdchk::ClientOptions ClientOptionsFor(const WorkloadSpec& spec,
                                       Tracer* tracer) {
  stdchk::ClientOptions options;
  if (spec.cbch_dedup) {
    options.chunker =
        std::make_shared<stdchk::ContentBasedChunker>(stdchk::CbchParams{});
    options.incremental_fsch = true;
  }
  options.erasure = spec.erasure;
  if (tracer != nullptr) {
    // A null chunker means FsCH at chunk_size (WriteSession); the traced run
    // wraps exactly that chunker.
    std::shared_ptr<const stdchk::Chunker> inner =
        options.chunker ? options.chunker
                        : std::make_shared<stdchk::FixedSizeChunker>(
                              options.chunk_size);
    options.chunker = std::make_shared<TracedChunker>(inner, tracer);
  }
  return options;
}

stdchk::Status MakeRig(const WorkloadSpec& spec, const std::string& disk_root,
                       Tracer* tracer, Rig& rig) {
  stdchk::ClusterOptions options;
  options.benefactor_count = kBenefactors;
  if (spec.disk) options.disk_root = disk_root;
  if (spec.replications_per_tick > 0) {
    options.manager.max_replications_per_tick = spec.replications_per_tick;
  }
  if (tracer != nullptr) {
    options.store_decorator = [tracer](std::unique_ptr<stdchk::ChunkStore> s) {
      return std::unique_ptr<stdchk::ChunkStore>(
          std::make_unique<TracedStore>(std::move(s), tracer));
    };
  }
  rig.cluster = std::make_unique<StdchkCluster>(options);
  if (rig.cluster->benefactor_count() != kBenefactors) {
    return stdchk::InternalError("benefactors failed to join");
  }
  stdchk::FolderPolicy policy;
  policy.retention = stdchk::RetentionPolicy::kAutomatedReplace;
  policy.keep_last = spec.keep_last;
  policy.replication_target = spec.replication_target;
  for (int c = 0; c < spec.clients; ++c) {
    STDCHK_RETURN_IF_ERROR(
        rig.cluster->manager().SetFolderPolicy(AppName(c), policy));
  }
  stdchk::Transport* transport = &rig.cluster->transport();
  if (tracer != nullptr) {
    rig.transport = std::make_unique<TracedTransport>(transport, tracer);
    transport = rig.transport.get();
  }
  stdchk::ClientOptions client = ClientOptionsFor(spec, tracer);
  for (int c = 0; c < spec.clients; ++c) {
    rig.proxies.push_back(std::make_unique<stdchk::ClientProxy>(
        &rig.cluster->manager(), transport, client));
  }
  return stdchk::OkStatus();
}

// Replication work still owed at the end of a round: missing replicas of
// committed chunks plus copies and shard repairs in flight.
std::uint64_t ReplicationBacklog(StdchkCluster& cluster) {
  std::vector<stdchk::NodeId> nodes =
      cluster.manager().registry().OnlineNodes();
  std::set<stdchk::NodeId> online(nodes.begin(), nodes.end());
  std::uint64_t backlog = 0;
  for (const auto& ur :
       cluster.manager().catalog().FindUnderReplicated(online)) {
    if (ur.want > ur.have) {
      backlog += static_cast<std::uint64_t>(ur.want - ur.have);
    }
  }
  return backlog + cluster.manager().pending_replications() +
         cluster.manager().pending_shard_repairs();
}

stdchk::ChunkStoreStats SumStoreStats(StdchkCluster& cluster) {
  stdchk::ChunkStoreStats sum;
  for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
    stdchk::ChunkStoreStats s = cluster.benefactor(i).StoreStats();
    sum.put_batches += s.put_batches;
    sum.data_syscalls += s.data_syscalls;
    sum.fsyncs += s.fsyncs;
    sum.segments_created += s.segments_created;
    sum.segments_reclaimed += s.segments_reclaimed;
    sum.mmap_reads += s.mmap_reads;
    sum.recovered_chunks += s.recovered_chunks;
  }
  return sum;
}

stdchk::ChunkStoreStats Delta(const stdchk::ChunkStoreStats& a,
                              const stdchk::ChunkStoreStats& b) {
  stdchk::ChunkStoreStats d;
  d.put_batches = b.put_batches - a.put_batches;
  d.data_syscalls = b.data_syscalls - a.data_syscalls;
  d.fsyncs = b.fsyncs - a.fsyncs;
  d.segments_created = b.segments_created - a.segments_created;
  d.segments_reclaimed = b.segments_reclaimed - a.segments_reclaimed;
  d.mmap_reads = b.mmap_reads - a.mmap_reads;
  return d;
}

struct ManagerSnapshot {
  std::uint64_t lock_contended = 0;
  std::uint64_t placement_fetches = 0;
};

ManagerSnapshot SnapshotManager(StdchkCluster& cluster) {
  stdchk::ManagerCounters counters = cluster.manager().Counters();
  ManagerSnapshot snap;
  for (const auto& shard : counters.catalog_shards) {
    snap.lock_contended += shard.lock_contended;
  }
  snap.placement_fetches =
      counters.placement_table_fetches + counters.server_side_placements;
  return snap;
}

// One cluster driven through set-up, warm-up, measured rounds and
// teardown. Passes of one seed see identical inputs.
class Pass {
 public:
  Pass(const WorkloadSpec& spec, std::uint64_t seed, bool traced,
       std::string disk_root)
      : spec_(spec), traced_(traced), disk_root_(std::move(disk_root)),
        crash_rng_(Mix(seed, 1000)) {
    for (int c = 0; c < spec.clients; ++c) sources_.emplace_back(spec, seed, c);
    out_.op_kind.push_back(OpKind::kRound);  // id 0: no op
    out_.op_measured.push_back(false);
  }

  // Builds the cluster the pass runs on, timing it.
  stdchk::Status SetUp();
  // Builds and discards two more clusters, timing the second: set-up
  // samples taken between rounds see the same machine conditions as the
  // rounds.
  void TimeSetUp();
  // Discarded rounds, then a settle, then the measured-counter baselines.
  void WarmUp();
  void Round(bool measured);
  // Final settle, stored bytes, teardown and (on disk) donor reopen.
  PassResult Finish();

 private:
  Tracer* tracer() { return traced_ ? &tracer_ : nullptr; }
  std::uint32_t NewOp(OpKind kind, bool measured) {
    out_.op_kind.push_back(kind);
    out_.op_measured.push_back(measured);
    return static_cast<std::uint32_t>(out_.op_kind.size() - 1);
  }
  std::uint64_t TransportOps(stdchk::ChunkOpType type) const {
    return rig_.transport ? rig_.transport->ops(type) : 0;
  }

  const WorkloadSpec& spec_;
  const bool traced_;
  const std::string disk_root_;
  Tracer tracer_;  // outlives rig_: its stores and transport record here
  Rig rig_;
  PassResult out_;
  std::vector<ImageSource> sources_;
  stdchk::Rng crash_rng_;
  std::uint64_t timestep_ = 0;
  // Baselines taken when measurement starts.
  stdchk::ChunkStoreStats store0_;
  ManagerSnapshot manager0_;
  std::uint64_t put_batch0_ = 0, get0_ = 0, get_batch0_ = 0;
};

stdchk::Status Pass::SetUp() {
  Clock::time_point t0 = Clock::now();
  stdchk::Status made = MakeRig(spec_, disk_root_, tracer(), rig_);
  out_.first_setup_s = SecondsBetween(t0, Clock::now());
  if (!made.ok()) {
    ++out_.attempted;
    ++out_.failed;
  }
  return made;
}

void Pass::TimeSetUp() {
  const std::string root = disk_root_ + "-setup";
  std::error_code ec;
  // The first build only warms caches: cold, the time is dominated by the
  // DRAM stalls host contention inflates, not by the set-up work itself.
  for (int pass = 0; pass < 2; ++pass) {
    {
      Rig rig;
      Clock::time_point t0 = Clock::now();
      stdchk::Status made = MakeRig(spec_, root, tracer(), rig);
      double seconds = SecondsBetween(t0, Clock::now());
      ++out_.attempted;
      if (!made.ok()) ++out_.failed;
      if (pass == 1) out_.setup_s.push_back(seconds);
    }
    if (spec_.disk) std::filesystem::remove_all(root, ec);
  }
}

void Pass::WarmUp() {
  for (int w = 0; w < kWarmupRounds; ++w) Round(/*measured=*/false);
  rig_.cluster->Settle(kSettleTicks);
  store0_ = SumStoreStats(*rig_.cluster);
  manager0_ = SnapshotManager(*rig_.cluster);
  put_batch0_ = TransportOps(stdchk::ChunkOpType::kPutChunkBatch);
  get0_ = TransportOps(stdchk::ChunkOpType::kGetChunk);
  get_batch0_ = TransportOps(stdchk::ChunkOpType::kGetChunkBatch);
}

PassResult Pass::Finish() {
  if (!rig_.cluster) return std::move(out_);
  StdchkCluster& cluster = *rig_.cluster;
  out_.store = Delta(store0_, SumStoreStats(cluster));
  ManagerSnapshot manager1 = SnapshotManager(cluster);
  out_.catalog_lock_contended =
      manager1.lock_contended - manager0_.lock_contended;
  out_.placement_fetches =
      manager1.placement_fetches - manager0_.placement_fetches;
  out_.put_batch_ops =
      TransportOps(stdchk::ChunkOpType::kPutChunkBatch) - put_batch0_;
  out_.get_ops = TransportOps(stdchk::ChunkOpType::kGetChunk) - get0_;
  out_.get_batch_ops =
      TransportOps(stdchk::ChunkOpType::kGetChunkBatch) - get_batch0_;
  if (rig_.transport) out_.inflight_peak = rig_.transport->inflight_peak();

  cluster.Settle(kSettleTicks);
  for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
    out_.stored_bytes += cluster.benefactor(i).BytesUsed();
  }
  for (int c = 0; c < spec_.clients; ++c) {
    auto versions = cluster.manager().ListVersions(AppName(c));
    if (!versions.ok()) continue;
    for (const stdchk::CheckpointName& name : versions.value()) {
      auto record = cluster.manager().GetVersion(name);
      if (record.ok()) out_.retained_logical_bytes += record.value().size;
    }
  }
  stdchk::ChunkStoreStats total = SumStoreStats(cluster);
  out_.counters.fsyncs = total.fsyncs;
  out_.counters.data_syscalls = total.data_syscalls;
  out_.counters.stored_bytes = out_.stored_bytes;
  rig_.proxies.clear();
  rig_.transport.reset();
  rig_.cluster.reset();

  if (spec_.disk) {
    // Donor restart: every benefactor's segment directory is scanned back
    // into an index (the recovery path of MakeDiskChunkStore).
    for (int i = 0; i < kBenefactors; ++i) {
      Clock::time_point t0 = Clock::now();
      auto store = stdchk::MakeDiskChunkStore(disk_root_ + "/desktop-" +
                                              std::to_string(i));
      out_.donor_reopen_s += SecondsBetween(t0, Clock::now());
      if (!store.ok()) {
        ++out_.attempted;
        ++out_.failed;
        continue;
      }
      out_.recovered_chunks += store.value()->Stats().recovered_chunks;
    }
    std::error_code ec;
    std::filesystem::remove_all(disk_root_, ec);
  }
  out_.spans = tracer_.spans();
  return std::move(out_);
}

void Pass::Round(bool measured) {
  const int n = spec_.clients;
  const auto clients = static_cast<std::size_t>(n);
  StdchkCluster& cluster = *rig_.cluster;

  // Inputs, outside every timed region.
  std::vector<Bytes> images;
  images.reserve(clients);
  for (ImageSource& source : sources_) images.push_back(source.Next());
  std::vector<std::size_t> crashed;
  while (crashed.size() < static_cast<std::size_t>(spec_.crashes_per_restart)) {
    std::size_t idx = crash_rng_.NextBelow(kBenefactors);
    bool fresh = true;
    for (std::size_t c : crashed) fresh = fresh && c != idx;
    if (fresh) crashed.push_back(idx);
  }
  ++timestep_;
  if (measured) out_.calibration_ms.push_back(CalibrationMs());

  // Write phase: CreateFile until Close() returns, per client.
  std::vector<std::uint32_t> ids(clients);
  for (auto& id : ids) id = NewOp(OpKind::kCheckpoint, measured);
  std::vector<double> latency(clients);
  // One byte per client: vector<bool> packs bits that the client threads
  // would write concurrently.
  std::vector<std::uint8_t> ok(clients);
  std::vector<stdchk::WriteStats> wstats(clients);
  Clock::time_point phase0 = Clock::now();
  ForEachClient(n, [&](int c) {
    const auto i = static_cast<std::size_t>(c);
    Tracer::SetThreadOp(ids[i]);
    const Bytes& image = images[i];
    stdchk::CheckpointName name{AppName(c), NodeName(c), timestep_};
    std::unique_ptr<stdchk::WriteSession> session;
    Clock::time_point t0 = Clock::now();
    bool good = false;
    {
      Tracer::Scope root(tracer(), "client.checkpoint");
      auto created = [&] {
        Tracer::Scope span(tracer(), "client.create");
        return rig_.proxies[i]->CreateFile(name);
      }();
      if (created.ok()) {
        session = std::move(created).value();
        good = true;
        for (std::size_t pos = 0; good && pos < image.size();
             pos += kWritePiece) {
          Tracer::Scope span(tracer(), "client.write");
          std::size_t len = std::min(kWritePiece, image.size() - pos);
          good = session->Write(ByteSpan(image.data() + pos, len)).ok();
        }
        if (good) {
          Tracer::Scope span(tracer(), "client.close");
          good = session->Close().ok();
        }
      }
    }
    latency[i] = SecondsBetween(t0, Clock::now()) * 1e3;
    ok[i] = good;
    if (session) wstats[i] = session->stats();
    Tracer::SetThreadOp(0);
  });
  Clock::time_point phase1 = Clock::now();
  std::uint64_t round_bytes = 0;
  for (std::size_t i = 0; i < clients; ++i) {
    out_.counters.batched_puts += wstats[i].batched_puts;
    out_.counters.bytes_transferred += wstats[i].bytes_transferred;
    ++out_.attempted;
    if (!ok[i]) {
      ++out_.failed;
    } else {
      round_bytes += images[i].size();
    }
    if (measured) {
      out_.ckpt_ms.push_back(latency[i]);
      out_.writes.push_back(wstats[i]);
    }
  }
  if (measured) {
    out_.app_bytes_written += round_bytes;
    out_.ckpt_round_mib_s.push_back(static_cast<double>(round_bytes) /
                                    kMiB / SecondsBetween(phase0, phase1));
  }

  // Restart phase: OpenLatest until ReadAll returns, per client, with
  // `crashed` benefactors down.
  for (std::size_t idx : crashed) (void)cluster.CrashBenefactor(idx);
  for (auto& id : ids) id = NewOp(OpKind::kRestart, measured);
  std::vector<Bytes> restored(clients);
  std::vector<stdchk::ReadStats> rstats(clients);
  phase0 = Clock::now();
  ForEachClient(n, [&](int c) {
    const auto i = static_cast<std::size_t>(c);
    Tracer::SetThreadOp(ids[i]);
    Clock::time_point t0 = Clock::now();
    bool good = false;
    {
      Tracer::Scope root(tracer(), "client.restart");
      auto opened = [&] {
        Tracer::Scope span(tracer(), "client.open");
        return rig_.proxies[i]->OpenLatest(AppName(c), NodeName(c));
      }();
      if (opened.ok()) {
        Tracer::Scope span(tracer(), "client.read");
        stdchk::Result<Bytes> data = opened.value()->ReadAll();
        if (data.ok()) {
          restored[i] = std::move(data).value();
          good = true;
        }
        rstats[i] = opened.value()->stats();
      }
    }
    latency[i] = SecondsBetween(t0, Clock::now()) * 1e3;
    ok[i] = good;
    Tracer::SetThreadOp(0);
  });
  phase1 = Clock::now();
  for (std::size_t idx : crashed) (void)cluster.RestartBenefactor(idx);
  round_bytes = 0;
  for (std::size_t i = 0; i < clients; ++i) {
    ++out_.attempted;
    if (!ok[i]) {
      ++out_.failed;
    } else if (restored[i] != images[i]) {
      ++out_.failed;
      ++out_.mismatches;
    } else {
      round_bytes += restored[i].size();
    }
    if (measured) {
      out_.restart_ms.push_back(latency[i]);
      out_.reads.push_back(rstats[i]);
    }
  }
  if (measured) {
    out_.restart_round_mib_s.push_back(static_cast<double>(round_bytes) /
                                       kMiB / SecondsBetween(phase0, phase1));
  }

  // Background pump: one tick per virtual second of the interval.
  Tracer::SetThreadOp(NewOp(OpKind::kRound, measured));
  double tick_s = 0;
  for (int t = 0; t < spec_.ticks_per_round; ++t) {
    Clock::time_point t0 = Clock::now();
    StdchkCluster::TickReport report;
    {
      Tracer::Scope span(tracer(), "core.tick");
      report = cluster.Tick(1.0);
    }
    if (!measured) continue;
    tick_s += SecondsBetween(t0, Clock::now());
    out_.replication_commands += report.replication_commands;
    out_.gc_reclaimed_chunks += report.gc_reclaimed_chunks;
    out_.purged_versions += report.purged.size();
  }
  Tracer::SetThreadOp(0);
  if (measured) {
    out_.round_tick_s.push_back(tick_s);
    out_.backlog.push_back(ReplicationBacklog(cluster));
    ++out_.rounds;
  }
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w(4);
    w[0].name = "fresh_sw";
    w[0].image_bytes = 32_MiB;
    w[0].ticks_per_round = 6;

    w[1].name = "incr_cbch";
    w[1].image_bytes = 32_MiB;
    w[1].blcr_images = true;
    w[1].cbch_dedup = true;
    w[1].keep_last = 2;
    w[1].ticks_per_round = 32;
    w[1].replications_per_tick = 64;

    w[2].name = "disk_multi";
    w[2].clients = 4;
    w[2].image_bytes = 16_MiB;
    w[2].disk = true;
    w[2].keep_last = 2;
    w[2].ticks_per_round = 10;

    w[3].name = "ec_degraded";
    w[3].image_bytes = 32_MiB;
    w[3].erasure = stdchk::ErasureCoded{4, 2};
    w[3].replication_target = 1;
    w[3].ticks_per_round = 4;
    w[3].crashes_per_restart = 2;
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

PassResult RunPass(const WorkloadSpec& spec, const PassConfig& config) {
  Pass pass(spec, config.seed, /*traced=*/false, config.work_dir + "/stores");
  if (pass.SetUp().ok()) {
    pass.WarmUp();
    Clock::time_point start = Clock::now();
    do {
      pass.Round(/*measured=*/true);
      pass.TimeSetUp();
    } while (SecondsBetween(start, Clock::now()) < config.seconds);
  }
  return pass.Finish();
}

TracedPair RunTracedPair(const WorkloadSpec& spec, const PassConfig& config) {
  Pass traced(spec, config.seed, /*traced=*/true,
              config.work_dir + "/stores-traced");
  Pass plain(spec, config.seed, /*traced=*/false, config.work_dir + "/stores");
  if (traced.SetUp().ok() && plain.SetUp().ok()) {
    traced.WarmUp();
    plain.WarmUp();
    Clock::time_point start = Clock::now();
    bool traced_first = true;
    do {
      Pass& first = traced_first ? traced : plain;
      Pass& second = traced_first ? plain : traced;
      first.Round(/*measured=*/true);
      second.Round(/*measured=*/true);
      traced_first = !traced_first;
    } while (SecondsBetween(start, Clock::now()) < config.seconds);
  }
  return TracedPair{traced.Finish(), plain.Finish()};
}

}  // namespace perfbench
