#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/obs/metrics.h"
#include "base/obs/trace.h"

namespace fstg::obs {

/// --- Continuous telemetry -------------------------------------------------
///
/// PR 3's metrics and traces are only written at process exit; a running
/// campaign is a black box. This layer adds the live side: a background
/// exporter thread that periodically snapshots the metrics registry and
/// atomically publishes a `fstg.telemetry.v1` JSON file (the --telemetry-out
/// flag), plus the stage bookkeeping the exporter derives progress and ETA
/// from. Every publish goes through store::atomic_write_file, so a reader —
/// `watch cat`, a scrape loop, the future `fstg serve` daemon — always sees
/// a complete, schema-valid document, never a torn one, even if the process
/// is killed mid-interval.
///
/// Progress is read from the registry itself: `fault_sim.batches` (done) vs
/// `fault_sim.batches_expected` (scheduled), both monotone counters, so
/// successive snapshots can never report progress going backwards. A stall
/// watchdog fingerprints every non-`telemetry.*` counter each tick; when no
/// counter advances for `stall_window_ms` it bumps `telemetry.stall` and
/// logs one warning — exactly once per stall, re-armed by the next advance.

/// Accumulated wall time of one named pipeline stage across the process
/// (all StageScope lifetimes with that name, summed).
struct StageTiming {
  std::string stage;
  double ms = 0.0;
  std::uint64_t runs = 0;
};

/// RAII pipeline-stage marker. Owns an obs::Span of the same name (so the
/// trace timeline and the telemetry file agree on stage boundaries), tracks
/// the process-wide "currently running stage" shown in the live telemetry
/// file, and folds its elapsed wall time into the stage-timing table that
/// the run ledger records at exit. Nesting is fine (the innermost live
/// scope wins the "current stage" slot); concurrent scopes on suite workers
/// are last-begun-wins, which is the honest answer for a shared live view.
class StageScope {
 public:
  explicit StageScope(const char* stage);
  StageScope(const char* stage, std::string detail);
  ~StageScope();

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  const char* stage_;
  std::uint64_t token_ = 0;
  std::uint64_t start_us_ = 0;
  Span span_;
};

/// Snapshot of the per-stage wall-time table, stage-name-sorted.
std::vector<StageTiming> stage_timings();
/// Test-only, like reset_metrics: zero the table (names stay out of it).
void reset_stage_timings();

/// The most recently begun still-active stage, or active == false.
struct ActiveStage {
  std::string stage;
  double elapsed_ms = 0.0;
  bool active = false;
};
ActiveStage current_stage();

struct TelemetryOptions {
  std::string path;            ///< live file destination (required)
  int interval_ms = 250;       ///< publish period
  int stall_window_ms = 5000;  ///< no-progress window before the watchdog fires
  /// ETA lookback: the throughput behind eta_ms is measured over the last
  /// eta_window_ms, not the exporter's lifetime — a warm-cache burst that
  /// finishes most batches in the first tick must stop flattering the rate
  /// once it leaves the window. Clamped to at least interval_ms.
  int eta_window_ms = 5000;
};

/// One rendered tick of the live file. Exposed (with render/take below) so
/// tests can exercise the derivation without a thread.
struct TelemetrySnapshot {
  std::uint64_t pid = 0;
  std::uint64_t seq = 0;        ///< publish number, starts at 0
  double uptime_ms = 0.0;       ///< monotonic since exporter start
  int interval_ms = TelemetryOptions{}.interval_ms;  ///< publish period
  std::string stage;            ///< current pipeline stage ("" = idle)
  double stage_elapsed_ms = 0.0;
  std::uint64_t progress_done = 0;   ///< fault_sim.batches
  std::uint64_t progress_total = 0;  ///< fault_sim.batches_expected (0 = unknown)
  double eta_ms = -1.0;              ///< -1 = unknown (no progress in the window)
  std::uint64_t faults_simulated = 0;
  std::uint64_t cycles = 0;      ///< scan.cycles_{skipped,overlay,full} summed
  std::uint64_t cache_hits = 0;  ///< cache.*.hit counters summed
  bool stalled = false;
  std::uint64_t stalls = 0;
  MetricsSnapshot metrics;  ///< full counter/gauge dump (histograms omitted)
};

/// Derive one snapshot from the live registry. `seq`/`uptime_ms`/`stalled`/
/// `stalls` are the exporter's to fill; this fills everything the registry
/// and the stage table know.
TelemetrySnapshot take_telemetry_snapshot();

/// Render as schema `fstg.telemetry.v1` (schemas/fstg_telemetry.schema.json).
std::string telemetry_to_json(const TelemetrySnapshot& snap);

/// The background exporter. start() publishes an immediate first snapshot
/// (so even a run shorter than one interval leaves a valid file), then one
/// every interval; stop() joins the thread and publishes a final snapshot,
/// so the file always ends reflecting the finished run. Publish failures
/// are counted (telemetry.write_errors) and logged once — a full disk must
/// never take the run down.
class TelemetryExporter {
 public:
  explicit TelemetryExporter(TelemetryOptions options);
  ~TelemetryExporter();  ///< stops if still running

  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  /// False (with *error) if the first snapshot cannot be written — the
  /// destination is checked up front so a bad --telemetry-out path warns
  /// at startup, not silently per tick.
  bool start(std::string* error);
  void stop();
  bool running() const;

  const TelemetryOptions& options() const { return options_; }
  /// Observable progress of the exporter itself (tests, --check-overhead).
  std::uint64_t ticks() const;
  std::uint64_t stalls() const;

  /// Test hook: wake the exporter thread without stopping it — a forced
  /// spurious condition-variable wakeup. The interval_ms cadence must hold
  /// regardless (the regression test pokes this in a tight loop and checks
  /// that no early publish happens).
  void wake_for_test();

 private:
  void run();
  bool publish();

  TelemetryOptions options_;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Process-global exporter backing the --telemetry-out flag (one per tool
/// process, like the global store). start replaces nothing if one is
/// already running; stop is idempotent.
bool start_global_telemetry(const TelemetryOptions& options,
                            std::string* error);
void stop_global_telemetry();

}  // namespace fstg::obs
