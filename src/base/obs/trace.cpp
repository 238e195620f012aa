#include "base/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "base/obs/metrics.h"
#include "base/obs/schema.h"
#include "base/store/fs_util.h"

namespace fstg::obs {

namespace {

constexpr std::uint64_t kInstantDur = ~std::uint64_t{0};

struct TraceEvent {
  const char* name;  ///< string literal at the instrumentation site
  std::string detail;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;  ///< kInstantDur marks an "i" event
  int tid = 0;
};

/// One thread's event buffer. shared_ptr-owned by both the thread_local
/// registration and the session, so events survive their thread's exit.
struct TraceBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
};

struct TraceSession {
  std::mutex mu;
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  std::atomic<bool> active{false};
  std::chrono::steady_clock::time_point epoch;
};

/// Leaked on purpose (same shutdown-order reasoning as the metrics
/// registry).
TraceSession& session() {
  static TraceSession* s = new TraceSession;
  return *s;
}

thread_local std::shared_ptr<TraceBuffer> t_buffer;

TraceBuffer& tls_buffer() {
  if (!t_buffer) {
    t_buffer = std::make_shared<TraceBuffer>();
    TraceSession& s = session();
    std::lock_guard<std::mutex> lock(s.mu);
    s.buffers.push_back(t_buffer);
  }
  return *t_buffer;
}

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - session().epoch)
          .count());
}

void record(const char* name, std::string detail, std::uint64_t ts_us,
            std::uint64_t dur_us) {
  TraceEvent ev;
  ev.name = name;
  ev.detail = std::move(detail);
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.tid = thread_index();
  TraceBuffer& buf = tls_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.events.push_back(std::move(ev));
}

}  // namespace

bool tracing_active() {
  return session().active.load(std::memory_order_relaxed);
}

void start_tracing() {
  TraceSession& s = session();
  std::lock_guard<std::mutex> lock(s.mu);
  for (const auto& buf : s.buffers) {
    std::lock_guard<std::mutex> block(buf->mu);
    buf->events.clear();
  }
  s.epoch = std::chrono::steady_clock::now();
  s.active.store(true, std::memory_order_relaxed);
}

std::string stop_tracing_to_json() {
  TraceSession& s = session();
  s.active.store(false, std::memory_order_relaxed);

  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& buf : s.buffers) {
      std::lock_guard<std::mutex> block(buf->mu);
      events.insert(events.end(), buf->events.begin(), buf->events.end());
      buf->events.clear();
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us != b.ts_us ? a.ts_us < b.ts_us : a.tid < b.tid;
            });

  std::ostringstream os;
  os << "{\n  \"displayTimeUnit\": \"ms\",\n"
     << "  \"otherData\": {\"schema\": \"fstg.trace.v1\"},\n"
     << "  \"traceEvents\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    os << "    {\"name\": " << json_quote(ev.name)
       << ", \"cat\": \"fstg\", \"ph\": \""
       << (ev.dur_us == kInstantDur ? "i" : "X") << "\", \"ts\": " << ev.ts_us;
    if (ev.dur_us != kInstantDur) os << ", \"dur\": " << ev.dur_us;
    os << ", \"pid\": 1, \"tid\": " << ev.tid;
    if (ev.dur_us == kInstantDur) os << ", \"s\": \"t\"";
    if (!ev.detail.empty())
      os << ", \"args\": {\"detail\": " << json_quote(ev.detail) << "}";
    os << "}" << (i + 1 < events.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

bool write_trace_json(const std::string& path, std::string* error) {
  // Schema-validate BEFORE the write, then write atomically (temp + fsync +
  // rename): a crash, ENOSPC short write, or invalid document can never
  // leave a torn or malformed file at `path`.
  const std::string json = stop_tracing_to_json();
  std::string verr;
  if (!check_json("fstg_trace", json, nullptr, &verr)) {
    if (error) *error = path + " failed schema validation: " + verr;
    return false;
  }
  if (!store::atomic_write_file(path, json, &verr)) {
    if (error) *error = "cannot write " + path + ": " + verr;
    return false;
  }
  return true;
}

Span::Span(const char* name) : Span(name, std::string()) {}

Span::Span(const char* name, std::string detail) {
  if (!tracing_active()) return;
  name_ = name;
  detail_ = std::move(detail);
  start_us_ = now_us();
  active_ = true;
}

Span::~Span() {
  if (!active_ || !tracing_active()) return;
  const std::uint64_t end = now_us();
  record(name_, std::move(detail_), start_us_,
         end > start_us_ ? end - start_us_ : 0);
}

void trace_instant(const char* name, std::string detail) {
  if (!tracing_active()) return;
  record(name, std::move(detail), now_us(), kInstantDur);
}

}  // namespace fstg::obs
