#include "base/obs/telemetry.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "base/log.h"
#include "base/obs/schema.h"
#include "base/store/fs_util.h"

namespace fstg::obs {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Stage bookkeeping: accumulated wall time per stage name plus the stack
/// of currently live scopes. One short mutex hold per stage begin/end —
/// scopes wrap pipeline stages and suite circuits, never per-fault work.
struct StageTable {
  std::mutex mu;
  std::map<std::string, StageTiming> totals;
  struct Live {
    std::uint64_t token;
    const char* stage;
    std::uint64_t start_us;
  };
  std::vector<Live> live;  ///< begin-ordered; back() is the current stage
  std::uint64_t next_token = 1;
};

/// Leaked on purpose, like the metrics registry: StageScope destructors can
/// run at unpredictable points during shutdown.
StageTable& stage_table() {
  static StageTable* t = new StageTable;
  return *t;
}

}  // namespace

StageScope::StageScope(const char* stage) : StageScope(stage, std::string()) {}

StageScope::StageScope(const char* stage, std::string detail)
    : stage_(stage),
      start_us_(now_us()),
      span_(stage, std::move(detail)) {
  StageTable& t = stage_table();
  std::lock_guard<std::mutex> lock(t.mu);
  token_ = t.next_token++;
  t.live.push_back({token_, stage_, start_us_});
}

StageScope::~StageScope() {
  const std::uint64_t end_us = now_us();
  StageTable& t = stage_table();
  std::lock_guard<std::mutex> lock(t.mu);
  // Remove by token, not by position: concurrent suite workers end their
  // scopes in arbitrary order relative to each other.
  for (std::size_t i = t.live.size(); i-- > 0;) {
    if (t.live[i].token == token_) {
      t.live.erase(t.live.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  StageTiming& total = t.totals[stage_];
  total.stage = stage_;
  total.ms += static_cast<double>(end_us - start_us_) / 1000.0;
  total.runs += 1;
}

std::vector<StageTiming> stage_timings() {
  StageTable& t = stage_table();
  std::lock_guard<std::mutex> lock(t.mu);
  std::vector<StageTiming> out;
  out.reserve(t.totals.size());
  for (const auto& [name, timing] : t.totals) out.push_back(timing);
  return out;  // std::map iteration is already name-sorted
}

void reset_stage_timings() {
  StageTable& t = stage_table();
  std::lock_guard<std::mutex> lock(t.mu);
  t.totals.clear();
}

ActiveStage current_stage() {
  StageTable& t = stage_table();
  std::lock_guard<std::mutex> lock(t.mu);
  ActiveStage s;
  if (t.live.empty()) return s;
  const StageTable::Live& top = t.live.back();
  s.stage = top.stage;
  s.elapsed_ms = static_cast<double>(now_us() - top.start_us) / 1000.0;
  s.active = true;
  return s;
}

TelemetrySnapshot take_telemetry_snapshot() {
  TelemetrySnapshot snap;
  snap.pid = static_cast<std::uint64_t>(::getpid());
  snap.metrics = snapshot_metrics();

  const ActiveStage stage = current_stage();
  snap.stage = stage.stage;
  snap.stage_elapsed_ms = stage.elapsed_ms;

  snap.progress_done = snap.metrics.counter_value("fault_sim.batches");
  snap.progress_total =
      snap.metrics.counter_value("fault_sim.batches_expected");
  snap.faults_simulated =
      snap.metrics.counter_value("fault_sim.faults_simulated");
  snap.cycles = snap.metrics.counter_value("scan.cycles_skipped") +
                snap.metrics.counter_value("scan.cycles_overlay") +
                snap.metrics.counter_value("scan.cycles_full");
  for (const auto& [name, value] : snap.metrics.counters) {
    if (name.rfind("cache.", 0) == 0 && name.ends_with(".hit"))
      snap.cache_hits += value;
  }
  snap.stalls = snap.metrics.counter_value("telemetry.stall");
  return snap;
}

std::string telemetry_to_json(const TelemetrySnapshot& snap) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed;
  os << "{\n  \"schema\": \"fstg.telemetry.v1\",\n"
     << "  \"pid\": " << snap.pid << ",\n"
     << "  \"seq\": " << snap.seq << ",\n"
     << "  \"uptime_ms\": " << snap.uptime_ms << ",\n"
     << "  \"interval_ms\": " << snap.interval_ms << ",\n"
     << "  \"stage\": " << json_quote(snap.stage) << ",\n"
     << "  \"stage_elapsed_ms\": " << snap.stage_elapsed_ms << ",\n"
     << "  \"progress_done\": " << snap.progress_done << ",\n"
     << "  \"progress_total\": " << snap.progress_total << ",\n"
     << "  \"progress_unit\": \"batches\",\n"
     << "  \"eta_ms\": " << snap.eta_ms << ",\n"
     << "  \"faults_simulated\": " << snap.faults_simulated << ",\n"
     << "  \"cycles\": " << snap.cycles << ",\n"
     << "  \"cache_hits\": " << snap.cache_hits << ",\n"
     << "  \"stalled\": " << (snap.stalled ? "true" : "false") << ",\n"
     << "  \"stalls\": " << snap.stalls << ",\n"
     << "  \"counters\": [\n";
  for (std::size_t i = 0; i < snap.metrics.counters.size(); ++i)
    os << "    {\"name\": " << json_quote(snap.metrics.counters[i].first)
       << ", \"value\": " << snap.metrics.counters[i].second << "}"
       << (i + 1 < snap.metrics.counters.size() ? "," : "") << "\n";
  os << "  ],\n  \"gauges\": [\n";
  for (std::size_t i = 0; i < snap.metrics.gauges.size(); ++i)
    os << "    {\"name\": " << json_quote(snap.metrics.gauges[i].first)
       << ", \"value\": " << snap.metrics.gauges[i].second << "}"
       << (i + 1 < snap.metrics.gauges.size() ? "," : "") << "\n";
  os << "  ]\n}\n";
  return os.str();
}

/// --- The exporter thread --------------------------------------------------

struct TelemetryExporter::Impl {
  std::thread thread;
  std::mutex mu;
  std::condition_variable cv;
  bool stop_requested = false;
  bool running = false;

  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> stall_count{0};

  Clock::time_point start_time{};
  Clock::time_point last_progress{};
  std::uint64_t last_fingerprint = 0;
  bool stalled = false;
  bool write_error_logged = false;

  // Sliding window behind the ETA: one (publish time, batches done) sample
  // per tick, pruned to options.eta_window_ms. Only the exporter's own
  // publish path touches it (start/stop publish with the thread quiescent).
  std::deque<std::pair<Clock::time_point, std::uint64_t>> eta_samples;
};

TelemetryExporter::TelemetryExporter(TelemetryOptions options)
    : options_(std::move(options)), impl_(std::make_unique<Impl>()) {
  options_.interval_ms = std::max(1, options_.interval_ms);
  options_.stall_window_ms = std::max(options_.interval_ms,
                                      options_.stall_window_ms);
  options_.eta_window_ms = std::max(options_.interval_ms,
                                    options_.eta_window_ms);
}

TelemetryExporter::~TelemetryExporter() { stop(); }

namespace {

/// No-progress fingerprint: every counter except the exporter's own
/// `telemetry.*` family (the stall counter itself must not read as
/// progress, or one stall would re-arm the watchdog forever).
std::uint64_t progress_fingerprint(const MetricsSnapshot& snap) {
  std::uint64_t fp = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("telemetry.", 0) == 0) continue;
    fp = fp * 1000003u + value;  // order-sensitive mix, not just a sum
  }
  return fp;
}

}  // namespace

bool TelemetryExporter::publish() {
  static const Counter c_ticks = counter("telemetry.ticks");
  static const Counter c_stall = counter("telemetry.stall");
  static const Counter c_write_errors = counter("telemetry.write_errors");

  Impl& im = *impl_;
  TelemetrySnapshot snap = take_telemetry_snapshot();
  const Clock::time_point now = Clock::now();
  snap.uptime_ms =
      std::chrono::duration<double, std::milli>(now - im.start_time).count();
  snap.interval_ms = options_.interval_ms;
  snap.seq = im.seq.fetch_add(1, std::memory_order_relaxed);

  // Stall watchdog: any non-telemetry counter advancing is progress.
  const std::uint64_t fp = progress_fingerprint(snap.metrics);
  if (fp != im.last_fingerprint) {
    im.last_fingerprint = fp;
    im.last_progress = now;
    im.stalled = false;
  } else if (!im.stalled &&
             std::chrono::duration<double, std::milli>(now - im.last_progress)
                     .count() >= static_cast<double>(options_.stall_window_ms)) {
    im.stalled = true;
    im.stall_count.fetch_add(1, std::memory_order_relaxed);
    c_stall.inc();
    log_warn("telemetry: no progress counter advanced for " +
             std::to_string(options_.stall_window_ms) +
             "ms (stage " +
             (snap.stage.empty() ? std::string("<idle>") : snap.stage) + ")");
  }
  snap.stalled = im.stalled;
  snap.stalls = im.stall_count.load(std::memory_order_relaxed);

  // ETA from sliding-window throughput of the batch counters: lifetime
  // rate would keep flattering the estimate long after a warm-cache burst
  // (most batches done in the first tick) has left the window. The front
  // sample is the youngest one at least eta_window_ms old — the window's
  // baseline; no progress since it means the ETA is honestly unknown.
  im.eta_samples.emplace_back(now, snap.progress_done);
  while (im.eta_samples.size() >= 2 &&
         std::chrono::duration<double, std::milli>(
             now - im.eta_samples[1].first)
                 .count() >= static_cast<double>(options_.eta_window_ms))
    im.eta_samples.pop_front();
  const auto& [window_start, done_at_window_start] = im.eta_samples.front();
  if (snap.progress_total > snap.progress_done &&
      snap.progress_done > done_at_window_start) {
    const double span_ms =
        std::chrono::duration<double, std::milli>(now - window_start).count();
    if (span_ms > 0.0) {
      const double rate =
          static_cast<double>(snap.progress_done - done_at_window_start) /
          span_ms;  // batches per ms
      snap.eta_ms =
          static_cast<double>(snap.progress_total - snap.progress_done) / rate;
    }
  }

  const std::string json = telemetry_to_json(snap);
  std::string error;
  if (!check_json("fstg_telemetry", json, nullptr, &error) ||
      !store::atomic_write_file(options_.path, json, &error)) {
    c_write_errors.inc();
    if (!im.write_error_logged) {
      im.write_error_logged = true;  // once: a full disk ticks 4x a second
      log_warn("telemetry: cannot publish " + options_.path + ": " + error);
    }
    return false;
  }
  c_ticks.inc();
  return true;
}

void TelemetryExporter::run() {
  Impl& im = *impl_;
  const auto interval = std::chrono::milliseconds(options_.interval_ms);
  std::unique_lock<std::mutex> lock(im.mu);
  Clock::time_point deadline = Clock::now() + interval;
  while (!im.stop_requested) {
    // Absolute deadline + stop predicate: a spurious wakeup (or a test
    // poke) goes back to sleep for the remainder of the interval instead
    // of publishing early, so the interval_ms cadence contract holds.
    if (im.cv.wait_until(lock, deadline, [&] { return im.stop_requested; }))
      break;
    lock.unlock();
    publish();
    lock.lock();
    deadline += interval;
    const Clock::time_point now = Clock::now();
    if (deadline < now) deadline = now + interval;  // fell behind: re-anchor
  }
}

bool TelemetryExporter::start(std::string* error) {
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    if (im.running) return true;
    if (options_.path.empty()) {
      if (error) *error = "telemetry path is empty";
      return false;
    }
    im.stop_requested = false;
    im.start_time = Clock::now();
    im.last_progress = im.start_time;
  }
  {
    const MetricsSnapshot initial = snapshot_metrics();
    im.last_fingerprint = progress_fingerprint(initial);
    im.eta_samples.clear();
  }
  // First publish up front: a bad destination fails loudly at startup, and
  // even a run shorter than one interval leaves a valid live file behind.
  if (!publish()) {
    if (error) *error = "cannot write telemetry file " + options_.path;
    return false;
  }
  std::lock_guard<std::mutex> lock(im.mu);
  im.thread = std::thread([this] { run(); });
  im.running = true;
  return true;
}

void TelemetryExporter::stop() {
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    if (!im.running) return;
    im.stop_requested = true;
  }
  im.cv.notify_all();
  im.thread.join();
  {
    std::lock_guard<std::mutex> lock(im.mu);
    im.running = false;
  }
  publish();  // final snapshot: the file ends reflecting the finished run
}

bool TelemetryExporter::running() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->running;
}

std::uint64_t TelemetryExporter::ticks() const {
  return impl_->seq.load(std::memory_order_relaxed);
}

std::uint64_t TelemetryExporter::stalls() const {
  return impl_->stall_count.load(std::memory_order_relaxed);
}

void TelemetryExporter::wake_for_test() { impl_->cv.notify_all(); }

/// --- Process-global exporter (the --telemetry-out flag) -------------------

namespace {
std::unique_ptr<TelemetryExporter>& global_exporter() {
  static std::unique_ptr<TelemetryExporter> e;
  return e;
}
}  // namespace

bool start_global_telemetry(const TelemetryOptions& options,
                            std::string* error) {
  std::unique_ptr<TelemetryExporter>& e = global_exporter();
  if (e && e->running()) return true;
  e = std::make_unique<TelemetryExporter>(options);
  if (!e->start(error)) {
    e.reset();
    return false;
  }
  return true;
}

void stop_global_telemetry() {
  std::unique_ptr<TelemetryExporter>& e = global_exporter();
  if (e) {
    e->stop();
    e.reset();
  }
}

}  // namespace fstg::obs
