#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/store/ledger.h"

namespace fstg {

/// --- Ledger regression analytics (`fstg report`) --------------------------
///
/// Aggregates the run ledger into per-circuit timing trends: for every
/// circuit, the chosen baseline run is compared stage-by-stage against the
/// latest run, and watched stages whose latest wall time degrades past the
/// threshold are flagged as regressions. `--check-regression` turns the
/// verdict into the exit code (2 on any regression), making the ledger a
/// machine-checkable bench trajectory instead of a write-only log.

struct ReportOptions {
  /// Baseline run id. Negative = each circuit's earliest ledgered run.
  std::int64_t baseline_run = -1;
  /// Stage names to gate on ("parallel", "end_to_end", "fault_sim.run",
  /// ...). A trailing "_ms" on a spec is ignored, so bench column names
  /// ("parallel_ms") work verbatim. Empty = watch every stage.
  std::vector<std::string> watch;
  /// A watched stage regresses when
  ///   latest_ms > baseline_ms * (1 + threshold_pct/100) + slack_ms.
  /// The absolute slack keeps microsecond-scale stages from tripping the
  /// relative gate on scheduler noise.
  double threshold_pct = 10.0;
  double slack_ms = 1.0;
};

/// One stage of one circuit, baseline vs latest.
struct ReportStage {
  std::string stage;
  double baseline_ms = 0.0;
  double latest_ms = 0.0;
  double delta_pct = 0.0;  ///< 0 when baseline_ms == 0
  bool watched = false;
  /// Absent from the baseline run (a renamed or added stage): it has no
  /// trend yet, so it is reported "new" and never regresses.
  bool added = false;
  bool regressed = false;
};

/// One circuit's trend: its ledgered run count, the two runs compared, and
/// the union of their stages (name-sorted).
struct ReportCircuit {
  std::string circuit;
  std::uint64_t runs = 0;
  std::uint64_t baseline_run = 0;
  std::uint64_t latest_run = 0;
  std::vector<ReportStage> stages;
};

struct Report {
  std::string ledger;  ///< path the records came from
  std::uint64_t runs = 0;
  double threshold_pct = 0.0;
  std::vector<std::string> watched;  ///< normalized watch specs ("" = all)
  std::vector<ReportCircuit> circuits;
  std::uint64_t regressions = 0;
  bool regressed() const { return regressions > 0; }
};

/// Build the report from ledgered records (circuit-less records, e.g. whole
/// suite runs, group under circuit ""). Pure: no filesystem access.
Report build_report(const std::vector<store::RunRecord>& records,
                    const ReportOptions& options, const std::string& ledger);

/// Render as schema fstg.report.v1 (schemas/fstg_report.schema.json);
/// writers run obs::check_json on it before emitting it.
std::string report_to_json(const Report& report);

/// Human-readable table for the terminal.
std::string report_to_text(const Report& report);

}  // namespace fstg
