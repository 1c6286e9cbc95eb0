#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

// Open spans of this thread, innermost last. Scopes nest strictly per
// thread, so the stack is empty whenever no span is open.
thread_local std::vector<std::int32_t> t_open;
thread_local std::uint32_t t_op = 0;
thread_local std::uint32_t t_thread = 0;
std::atomic<std::uint32_t> g_next_thread{1};

std::uint32_t ThreadId() {
  if (t_thread == 0) t_thread = g_next_thread.fetch_add(1);
  return t_thread;
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ != nullptr) index_ = tracer_->Begin(name);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->End(index_);
}

void Tracer::SetThreadOp(std::uint32_t op) { t_op = op; }

std::int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::int32_t Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = t_open.empty() ? -1 : t_open.back();
  span.op = t_op;
  span.thread = ThreadId();
  span.start_ns = Now();
  std::int32_t index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(span);
  }
  t_open.push_back(index);
  return index;
}

void Tracer::End(std::int32_t index) {
  std::int64_t end = Now();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    std::int64_t lo = std::max(s.start_ns, p.start_ns);
    std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) {
      children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [lo, hi] : kids) {
      std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::string LayerOf(const Span& span) {
  std::string name(span.name);
  return name.substr(0, name.find('.'));
}

bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"op\":%u,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, LayerOf(s).c_str(), s.thread,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.op,
                 s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
