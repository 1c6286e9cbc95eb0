// In-memory span recorder for the traced benchmark run.
//
// The decorators in decorators.h and the workload code open a span
// around each call into a layer's public interface. A span records its
// name, start, end, the span that was open on the same thread when it
// began (its parent), and the id of the checkpoint, restart or pump round
// it belongs to. Spans stay in memory until the run ends, when
// WriteChromeTrace() dumps them as trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // "<layer>.<call>", a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span list, -1 for a root
  std::uint32_t op = 0;      // checkpoint / restart / round id, 0 = none
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // RAII span: begins on construction, ends on destruction. A null tracer
  // records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  // Tags the spans this thread opens from now on with `op`.
  static void SetThreadOp(std::uint32_t op);

  // Every span recorded so far. Call once all scopes have closed.
  std::vector<Span> spans() const;

 private:
  // Nanoseconds since this tracer was created.
  std::int64_t Now() const;
  std::int32_t Begin(const char* name);
  void End(std::int32_t index);

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Self time of every span: its duration minus the part of its interval
// covered by its children (children clipped to the parent, overlaps
// counted once).
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

// The layer a span belongs to: its name up to the first '.'.
std::string LayerOf(const Span& span);

// Writes `spans` as Chrome trace-event JSON (opens in Perfetto or
// chrome://tracing). Returns false if the file cannot be written.
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
