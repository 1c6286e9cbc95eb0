// stdchk checkpoint/restart benchmark.
//
//   stdchk_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--work-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with no tracing in the program
// path. --trace 1 runs a traced and an untraced cluster side by side with
// interleaved rounds, checks that both report identical deterministic
// counters, and prints the per-layer metrics plus the tracing overhead.
// Either way the last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is nonzero when a restart read mismatched, an operation
// failed, the replication backlog grew, or the counters disagreed.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "calibration.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = 1024.0 * kMiB;

// Metrics printed in the table but kept out of the JSON result, whose
// metric set BENCHMARK.json fixes: those that are 0 on every workload
// BENCHMARK.json lists (segment-store I/O and cross-client contention move
// only on disk_multi, fail_ratio is the JSON's failed/attempted), the
// checkpoint tail (see EndToEnd), the unscaled figures behind the scaled
// ones, and background_s_per_gib: the
// pump's catalog scans slow down under host contention far more than the
// calibration work does, so even scaled its spread over ten seeds reached
// 0.29 on incr_cbch, above the largest bound a metric may have.
constexpr bool kTableOnly = false;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // shown in the table only
  bool in_json = true;
};

std::string FormatNumber(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Median and tail of latency samples, as two metrics.
void AddLatency(std::vector<Metric>& out, const std::string& prefix,
                const std::vector<double>& ms, bool tail_in_json) {
  out.push_back({prefix + "_p50_ms", Median(ms), "ms",
                 "n=" + std::to_string(ms.size())});
  double p = TailPercentile(ms.size());
  char note[64];
  std::snprintf(note, sizeof note, "p%g of n=%zu%s", p > 0 ? p : 50,
                ms.size(), p > 0 ? "" : " (too few samples for a tail)");
  if (p == 0) p = 50;
  out.push_back({prefix + "_tail_ms", Percentile(ms, p), "ms", note,
                 tail_in_json});
}

// A replication backlog that ends a round above where it ended the first
// measured round means the pump is falling behind.
bool BacklogSteady(const PassResult& r) {
  if (r.backlog.empty()) return true;
  for (std::uint64_t b : r.backlog) {
    if (b > r.backlog.front()) return false;
  }
  return true;
}

// Rescales values measured in each round to the reference machine speed
// (calibration.h): times shrink and rates grow when the machine ran the
// reference work slower than kReferenceCalibrationMs. `per_round` values
// belong to each round, in round order.
std::vector<double> AtReferenceSpeed(const std::vector<double>& values,
                                     const std::vector<double>& calibration_ms,
                                     std::size_t per_round, bool is_rate) {
  std::vector<double> out;
  out.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::size_t round = std::min(i / per_round, calibration_ms.size() - 1);
    double speed = kReferenceCalibrationMs / calibration_ms[round];
    out.push_back(is_rate ? values[i] / speed : values[i] * speed);
  }
  return out;
}

std::vector<Metric> EndToEnd(const PassResult& r, int clients) {
  std::vector<Metric> m;
  if (r.calibration_ms.empty()) return m;
  const auto per_client = static_cast<std::size_t>(clients);
  auto scaled = [&](const std::vector<double>& v, std::size_t per_round,
                    bool is_rate) {
    return AtReferenceSpeed(v, r.calibration_ms, per_round, is_rate);
  };
  std::vector<double> ckpt_ms = scaled(r.ckpt_ms, per_client, false);
  std::vector<double> restart_ms = scaled(r.restart_ms, per_client, false);
  m.push_back({"setup_s", Median(scaled(r.setup_s, 1, false)), "s",
               "median of " + std::to_string(r.setup_s.size()) +
                   " set-ups; first " + FormatNumber(r.first_setup_s) +
                   " s unscaled"});
  m.push_back({"ckpt_mb_s", Median(scaled(r.ckpt_round_mib_s, 1, true)),
               "MiB/s",
               "median over rounds of all clients' bytes / write phase"});
  // The checkpoint tail is printed, not gated: between two sets of ten
  // ec_degraded runs half an hour apart its median moved by 43%, even
  // scaled, while the restart tail moved by 11%.
  AddLatency(m, "ckpt", ckpt_ms, kTableOnly);
  m.push_back({"restart_mb_s", Median(scaled(r.restart_round_mib_s, 1, true)),
               "MiB/s", "median over rounds of verified bytes / read phase"});
  AddLatency(m, "restart", restart_ms, true);
  std::uint64_t sent = 0;
  for (const auto& w : r.writes) sent += w.bytes_transferred;
  m.push_back({"net_bytes_per_byte",
               Ratio(static_cast<double>(sent),
                     static_cast<double>(r.app_bytes_written)),
               "ratio", "client -> benefactor bytes, data + parity"});
  m.push_back({"stored_bytes_per_byte",
               Ratio(static_cast<double>(r.stored_bytes),
                     static_cast<double>(r.retained_logical_bytes)),
               "ratio", "after the final settle"});
  double tick_s = 0;
  for (double t : scaled(r.round_tick_s, 1, false)) tick_s += t;
  m.push_back({"background_s_per_gib",
               Ratio(tick_s, static_cast<double>(r.app_bytes_written) / kGiB),
               "s/GiB", "Tick() wall time", kTableOnly});
  m.push_back({"donor_reopen_s", r.donor_reopen_s, "s",
               "0 on memory stores", kTableOnly});
  m.push_back({"peak_rss_mb", PeakRssMiB(), "MiB", "process peak RSS"});
  m.push_back({"calibration_ms", Median(r.calibration_ms), "ms",
               "reference work, unscaled; times above are scaled to " +
                   FormatNumber(kReferenceCalibrationMs) + " ms",
               kTableOnly});
  m.push_back({"raw_ckpt_p50_ms", Median(r.ckpt_ms), "ms", "unscaled",
               kTableOnly});
  m.push_back({"raw_restart_p50_ms", Median(r.restart_ms), "ms", "unscaled",
               kTableOnly});
  m.push_back({"fail_ratio",
               Ratio(static_cast<double>(r.failed),
                     static_cast<double>(r.attempted)),
               "ratio", "", kTableOnly});
  return m;
}

// Span sums of one op (checkpoint, restart or pump round), in ms.
struct OpSpans {
  std::map<std::string, double> total_ms;  // by span name
  double client_self_ms = 0;               // self time of client.* spans
  double submit_self_ms = 0;               // Submit minus store calls
};

std::vector<Metric> PerLayer(const PassResult& t, const PassResult& untraced) {
  std::vector<std::int64_t> self = SelfTimes(t.spans);
  std::unordered_map<std::uint32_t, OpSpans> ops;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    if (s.op == 0 || !t.op_measured[s.op]) continue;
    OpSpans& agg = ops[s.op];
    agg.total_ms[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    double self_ms = static_cast<double>(self[i]) / 1e6;
    if (LayerOf(s) == "client") agg.client_self_ms += self_ms;
    if (std::string(s.name) == "transport.submit") {
      agg.submit_self_ms += self_ms;
    }
  }
  // Measured op ids of each kind, in the order they ran (matching t.writes
  // and t.reads element for element).
  std::map<OpKind, std::vector<std::uint32_t>> ids;
  for (std::uint32_t id = 1; id < t.op_kind.size(); ++id) {
    if (t.op_measured[id]) ids[t.op_kind[id]].push_back(id);
  }
  auto median_of = [&](OpKind kind,
                       const std::function<double(std::size_t, OpSpans&)>& f) {
    std::vector<double> v;
    const auto& list = ids[kind];
    for (std::size_t k = 0; k < list.size(); ++k) {
      v.push_back(f(k, ops[list[k]]));
    }
    return Median(v);
  };
  auto span_ms = [&](OpKind kind, const char* name) {
    return median_of(kind, [name](std::size_t, OpSpans& o) {
      return o.total_ms[name];
    });
  };

  const double ckpts = static_cast<double>(t.writes.size());
  const double restarts = static_cast<double>(t.reads.size());
  const double rounds = static_cast<double>(t.rounds);
  auto sum_w = [&](auto field) {
    double s = 0;
    for (const auto& w : t.writes) s += static_cast<double>(w.*field);
    return s;
  };
  auto sum_r = [&](auto field) {
    double s = 0;
    for (const auto& r : t.reads) s += static_cast<double>(r.*field);
    return s;
  };
  using W = stdchk::WriteStats;
  using R = stdchk::ReadStats;
  std::uint64_t workers_peak = 0;
  for (const auto& w : t.writes) {
    workers_peak = std::max(workers_peak, w.hash_workers_peak);
  }
  double scan_ms_total = 0;
  for (const auto& [id, o] : ops) {
    auto it = o.total_ms.find("chkpt.scan");
    if (it != o.total_ms.end()) scan_ms_total += it->second;
  }

  std::vector<Metric> m;
  // client
  m.push_back({"client.close_ms", span_ms(OpKind::kCheckpoint, "client.close"),
               "ms", "per checkpoint"});
  m.push_back({"client.open_ms", span_ms(OpKind::kRestart, "client.open"), "ms",
               "per restart"});
  m.push_back({"client.residual_ms",
               median_of(OpKind::kCheckpoint,
                         [&](std::size_t k, OpSpans& o) {
                           const W& w = t.writes[k];
                           double inner = static_cast<double>(
                                              w.hash_ns + w.erasure_encode_ns) /
                                          1e6;
                           return std::max(0.0, o.client_self_ms - inner);
                         }),
               "ms", "per checkpoint, client self time less hash and encode"});
  m.push_back({"client.read_failovers",
               Ratio(sum_r(&R::failovers), restarts), "count", "per restart"});
  m.push_back({"client.read_batch_gets",
               Ratio(sum_r(&R::batch_gets), restarts), "count", "per restart"});
  // chkpt
  m.push_back({"chkpt.scan_ms", span_ms(OpKind::kCheckpoint, "chkpt.scan"),
               "ms", "per checkpoint"});
  m.push_back({"chkpt.scan_mib_s",
               Ratio(static_cast<double>(t.app_bytes_written) / kMiB,
                     scan_ms_total / 1e3),
               "MiB/s", "bytes scanned / scan time"});
  // common
  m.push_back({"common.hash_ms",
               median_of(OpKind::kCheckpoint,
                         [&](std::size_t k, OpSpans&) {
                           return static_cast<double>(t.writes[k].hash_ns) /
                                  1e6;
                         }),
               "ms", "per checkpoint, WriteStats::hash_ns"});
  m.push_back({"common.hash_mib_s",
               Ratio(sum_w(&W::hash_bytes) / kMiB, sum_w(&W::hash_ns) / 1e9),
               "MiB/s", "SHA-1 naming"});
  m.push_back({"common.hash_workers_peak", static_cast<double>(workers_peak),
               "count", ""});
  // erasure
  m.push_back({"erasure.encode_ms",
               median_of(OpKind::kCheckpoint,
                         [&](std::size_t k, OpSpans&) {
                           return static_cast<double>(
                                      t.writes[k].erasure_encode_ns) /
                                  1e6;
                         }),
               "ms", "per checkpoint"});
  m.push_back({"erasure.parity_bytes_per_byte",
               Ratio(sum_w(&W::parity_bytes_written), sum_w(&W::bytes_written)),
               "ratio", ""});
  m.push_back({"erasure.reconstructions",
               Ratio(sum_r(&R::reconstructions), restarts), "count",
               "per restart"});
  m.push_back({"erasure.parity_fetches",
               Ratio(sum_r(&R::parity_shard_fetches), restarts), "count",
               "per restart"});
  // transport
  m.push_back({"transport.submit_ms",
               span_ms(OpKind::kCheckpoint, "transport.submit"), "ms",
               "per checkpoint"});
  m.push_back({"transport.wait_ms",
               span_ms(OpKind::kCheckpoint, "transport.wait"), "ms",
               "per checkpoint"});
  m.push_back({"transport.read_submit_ms",
               span_ms(OpKind::kRestart, "transport.submit"), "ms",
               "per restart"});
  m.push_back({"transport.read_wait_ms",
               span_ms(OpKind::kRestart, "transport.wait"), "ms",
               "per restart"});
  m.push_back({"transport.ops.put_batch",
               Ratio(static_cast<double>(t.put_batch_ops), ckpts), "count",
               "per checkpoint"});
  m.push_back({"transport.ops.get",
               Ratio(static_cast<double>(t.get_ops), restarts), "count",
               "per restart"});
  m.push_back({"transport.ops.get_batch",
               Ratio(static_cast<double>(t.get_batch_ops), restarts), "count",
               "per restart"});
  m.push_back({"transport.ops.copy",
               Ratio(static_cast<double>(t.replication_commands), rounds),
               "count", "per round, pump copies"});
  m.push_back({"transport.inflight_peak", static_cast<double>(t.inflight_peak),
               "count", ""});
  // benefactor
  auto submit_self = [](std::size_t, OpSpans& o) { return o.submit_self_ms; };
  m.push_back({"benefactor.self_ms",
               median_of(OpKind::kCheckpoint, submit_self),
               "ms", "per checkpoint, Submit less store calls"});
  m.push_back({"benefactor.read_self_ms",
               median_of(OpKind::kRestart, submit_self),
               "ms", "per restart, Submit less store calls"});
  // chunk
  m.push_back({"chunk.put_batch_ms",
               span_ms(OpKind::kCheckpoint, "chunk.put_batch"), "ms",
               "per checkpoint"});
  m.push_back({"chunk.get_ms", span_ms(OpKind::kRestart, "chunk.get"), "ms",
               "per restart"});
  m.push_back({"chunk.delete_ms", span_ms(OpKind::kRound, "chunk.delete"),
               "ms", "per round"});
  m.push_back({"chunk.fsyncs_per_gib",
               Ratio(static_cast<double>(t.store.fsyncs),
                     static_cast<double>(t.app_bytes_written) / kGiB),
               "1/GiB", "per GiB checkpointed", kTableOnly});
  m.push_back({"chunk.data_syscalls",
               Ratio(static_cast<double>(t.store.data_syscalls), ckpts),
               "count", "per checkpoint, pump copies included", kTableOnly});
  m.push_back({"chunk.mmap_reads",
               Ratio(static_cast<double>(t.store.mmap_reads), restarts),
               "count", "per restart, pump copies included", kTableOnly});
  m.push_back({"chunk.segments_created",
               Ratio(static_cast<double>(t.store.segments_created), rounds),
               "count", "per round", kTableOnly});
  m.push_back({"chunk.segments_reclaimed",
               Ratio(static_cast<double>(t.store.segments_reclaimed), rounds),
               "count", "per round", kTableOnly});
  m.push_back({"chunk.recovered_chunks",
               static_cast<double>(t.recovered_chunks),
               "count", "at donor reopen", kTableOnly});
  // manager
  m.push_back({"manager.dedup_hit_ratio",
               Ratio(sum_w(&W::chunks_deduplicated), sum_w(&W::chunks_total)),
               "ratio", "chunks deduplicated / chunks"});
  m.push_back({"manager.catalog_lock_contended",
               Ratio(static_cast<double>(t.catalog_lock_contended), rounds),
               "count", "per round", kTableOnly});
  m.push_back({"manager.placement_fetches",
               Ratio(static_cast<double>(t.placement_fetches), ckpts), "count",
               "per checkpoint, table fetches + server-side stripes"});
  m.push_back({"manager.replication_backlog",
               static_cast<double>(t.backlog.empty() ? 0 : t.backlog.back()),
               "count", "missing replicas at the last round end"});
  // core
  m.push_back({"core.tick_ms", span_ms(OpKind::kRound, "core.tick"), "ms",
               "per round"});
  m.push_back({"core.replication_commands",
               Ratio(static_cast<double>(t.replication_commands), rounds),
               "count", "per round"});
  m.push_back({"core.gc_reclaimed_chunks",
               Ratio(static_cast<double>(t.gc_reclaimed_chunks), rounds),
               "count", "per round"});
  m.push_back({"core.purged_versions",
               Ratio(static_cast<double>(t.purged_versions), rounds), "count",
               "per round"});
  // tracing overhead: traced pass against its interleaved untraced twin
  m.push_back({"trace.overhead_ckpt",
               Ratio(Median(t.ckpt_ms), Median(untraced.ckpt_ms)) - 1, "ratio",
               "traced / untraced checkpoint p50 - 1"});
  m.push_back({"trace.overhead_restart",
               Ratio(Median(t.restart_ms), Median(untraced.restart_ms)) - 1,
               "ratio", "traced / untraced restart p50 - 1"});
  return m;
}

void PrintCounters(const char* label, const DeterministicCounters& c) {
  std::printf("  %-9s fsyncs %llu  data_syscalls %llu  batched_puts %llu  "
              "bytes_transferred %llu  stored_bytes %llu\n",
              label, static_cast<unsigned long long>(c.fsyncs),
              static_cast<unsigned long long>(c.data_syscalls),
              static_cast<unsigned long long>(c.batched_puts),
              static_cast<unsigned long long>(c.bytes_transferred),
              static_cast<unsigned long long>(c.stored_bytes));
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %-7s %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str(),
                m.in_json ? "" : " [table only]");
  }
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.in_json) continue;
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            FormatNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: stdchk_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               msg);
  return 2;
}

// glibc raises its mmap threshold as large blocks are freed and trims the
// heap when its free top grows, so whether a round's 32 MiB buffers reuse
// heap pages or fault fresh ones depends on heap history: checkpoint latency
// then alternates by up to half between rounds. Serving every block from a
// heap that is never trimmed gives each round the same warm allocator.
void PinAllocator() {
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
}

int Main(int argc, char** argv) {
  PinAllocator();
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) return Usage("arguments come in --flag value pairs");
  const WorkloadSpec* spec = FindWorkload(args["--workload"]);
  if (spec == nullptr) return Usage("unknown or missing --workload");
  PassConfig config;
  config.seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  config.seconds = std::atof(args["--seconds"].c_str());
  if (config.seconds <= 0) return Usage("--seconds must be positive");
  const bool trace = args["--trace"] == "1";
  if (!trace && args["--trace"] != "0") return Usage("--trace must be 0 or 1");
  const std::string work_root =
      args.contains("--work-dir") ? args["--work-dir"] : ".bench_build/work";
  config.work_dir = work_root + "/run-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) return Usage("cannot create the work directory");

  std::printf("workload %s  seed %llu  %s  %d client(s), closed loop\n",
              spec->name.c_str(), static_cast<unsigned long long>(config.seed),
              trace ? "traced" : "untraced", spec->clients);
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::vector<Metric> json;
  if (!trace) {
    PassResult r = RunPass(*spec, config);
    std::vector<Metric> e2e = EndToEnd(r, spec->clients);
    std::printf("rounds %zu after warm-up\n", r.rounds);
    PrintTable("end-to-end", e2e);
    if (!BacklogSteady(r)) {
      std::printf("FAIL: replication backlog grew across rounds\n");
      correct = false;
    }
    attempted = r.attempted;
    failed = r.failed;
    mismatches = r.mismatches;
    json = e2e;
  } else {
    TracedPair pair = RunTracedPair(*spec, config);
    const PassResult& t = pair.traced;
    const PassResult& u = pair.untraced;
    std::printf("rounds %zu after warm-up, traced and untraced interleaved\n",
                t.rounds);
    json = PerLayer(t, u);
    PrintTable("per-layer (traced pass)", json);
    std::printf("deterministic counters\n");
    PrintCounters("traced", t.counters);
    PrintCounters("untraced", u.counters);
    if (!(t.counters == u.counters)) {
      std::printf("FAIL: traced and untraced counters differ\n");
      correct = false;
    }
    if (!BacklogSteady(t) || !BacklogSteady(u)) {
      std::printf("FAIL: replication backlog grew across rounds\n");
      correct = false;
    }
    // One file per workload (the latest run wins) bounds the disk it takes.
    std::string trace_path = work_root + "/trace-" + spec->name + ".json";
    if (WriteChromeTrace(t.spans, trace_path)) {
      std::printf("spans: %zu written to %s\n", t.spans.size(),
                  trace_path.c_str());
    }
    attempted = t.attempted + u.attempted;
    failed = t.failed + u.failed;
    mismatches = t.mismatches + u.mismatches;
  }
  std::filesystem::remove_all(config.work_dir, ec);
  if (failed > 0) {
    std::printf("FAIL: %llu of %llu operations failed, %llu of them restart "
                "reads that did not match the image written\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(mismatches));
    correct = false;
  }
  PrintResult(correct, attempted, failed, json);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
