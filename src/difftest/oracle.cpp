#include "difftest/oracle.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/static_faults.h"
#include "base/obs/metrics.h"
#include "difftest/reference_sim.h"
#include "fault/fault_sim.h"
#include "fault/redundancy.h"
#include "fault/static_compaction.h"
#include "sim/scan_sim.h"

namespace fstg::difftest {

namespace {

/// Work counters that must not depend on the worker count: the engine
/// partitions identical per-fault work (each fault's cycle classification
/// and event traffic depend only on the shared immutable good trace, and
/// fault dropping is resolved at deterministic batch boundaries). A delta
/// here under a different thread count means scheduling changed *what* was
/// simulated, not just *where*. `scan.packed_sweeps` stays out: the
/// diverged (fault, lane) steps of one worker chunk's faults share packed
/// sweeps, so how many sweeps they take varies with the chunking and with
/// it the worker count; the steps themselves (`scan.packed_lanes`) do not.
constexpr const char* kInvariantCounters[] = {
    "fault_sim.batches",
    "fault_sim.faults_simulated",
    "fault_sim.faults_dropped",
    "fault_sim.sliced_tests",
    "fault_sim.slice_rounds",
    "fault_sim.continuations",
    "scan.cycles_skipped",
    "scan.cycles_overlay",
    "scan.cycles_full",
    "scan.dirty_activations",
    "scan.dirty_clears",
    "scan.packed_lanes",
    "sim.event_pushes",
    "sim.event_pops",
    "sim.overlay_calls",
    "sim.overlay_unexcited",
    "sim.overlay_gates_changed",
    "sim.overlay_wide_incremental",
};

struct EngineRun {
  std::string label;
  FaultSimResult result;
  /// Deltas of kInvariantCounters across the run (same order); empty when
  /// metrics were disabled.
  std::vector<std::uint64_t> counter_deltas;
};

class Reporter {
 public:
  explicit Reporter(std::vector<std::string>* out) : out_(out) {}

  /// Append a divergence, keeping at most kMaxPerCategory per category so a
  /// badly broken engine doesn't drown the report.
  void add(const std::string& category, const std::string& detail) {
    std::size_t& n = per_category_[category];
    ++n;
    if (n <= kMaxPerCategory) {
      out_->push_back(category + ": " + detail);
    } else if (n == kMaxPerCategory + 1) {
      out_->push_back(category + ": ... further mismatches suppressed");
    }
  }

 private:
  static constexpr std::size_t kMaxPerCategory = 8;
  std::vector<std::string>* out_;
  std::map<std::string, std::size_t> per_category_;
};

EngineRun run_engine(const Workload& w, int threads) {
  EngineRun run;
  run.label = "event@" + std::to_string(threads);
  FaultSimOptions opt;
  opt.threads = threads;

  const bool track = obs::metrics_enabled();
  obs::MetricsSnapshot before;
  if (track) before = obs::snapshot_metrics();
  run.result = simulate_faults(w.circuit, w.tests, w.faults, opt);
  if (track) {
    const obs::MetricsSnapshot after = obs::snapshot_metrics();
    for (const char* name : kInvariantCounters)
      run.counter_deltas.push_back(after.counter_value(name) -
                                   before.counter_value(name));
  }
  return run;
}

void compare_results(const EngineRun& base, const EngineRun& other,
                     Reporter& report) {
  const FaultSimResult& a = base.result;
  const FaultSimResult& b = other.result;
  const std::string pair = other.label + " vs " + base.label;

  if (a.detected_faults != b.detected_faults)
    report.add("detected_faults",
               pair + ": " + std::to_string(b.detected_faults) + " vs " +
                   std::to_string(a.detected_faults));
  for (std::size_t f = 0; f < a.detected_by.size(); ++f) {
    if (f < b.detected_by.size() && a.detected_by[f] != b.detected_by[f])
      report.add("detected_by",
                 pair + ": fault " + std::to_string(f) + " detected by test " +
                     std::to_string(b.detected_by[f]) + " vs " +
                     std::to_string(a.detected_by[f]));
  }
  for (std::size_t t = 0; t < a.test_effective.size(); ++t) {
    if (t < b.test_effective.size() &&
        a.test_effective[t] != b.test_effective[t])
      report.add("test_effective",
                 pair + ": test " + std::to_string(t) + " effective=" +
                     (b.test_effective[t] ? "true" : "false") + " vs " +
                     (a.test_effective[t] ? "true" : "false"));
  }
}

void compare_counters(const EngineRun& base, const EngineRun& other,
                      Reporter& report) {
  if (base.counter_deltas.empty() || other.counter_deltas.empty()) return;
  for (std::size_t k = 0; k < base.counter_deltas.size(); ++k) {
    if (base.counter_deltas[k] != other.counter_deltas[k])
      report.add("obs_invariance",
                 other.label + " vs " + base.label + ": " +
                     kInvariantCounters[k] + " delta " +
                     std::to_string(other.counter_deltas[k]) + " vs " +
                     std::to_string(base.counter_deltas[k]));
  }
}

/// Cross-check the word-parallel fault-free trace, lane by lane, against
/// the scalar reference: PO values and X masks (read off the rows' output
/// gates), and scanned-out states.
void check_good_trace(const Workload& w, Reporter& report) {
  const std::vector<ScanPattern> patterns = to_scan_patterns(w.tests);
  if (patterns.empty()) return;
  const std::vector<int>& outs = w.circuit.comb.outputs();
  ScanBatchSim sim(w.circuit);
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t width = std::min<std::size_t>(64, patterns.size() - base);
    const GoodTrace good =
        sim.run_good(std::span<const ScanPattern>(&patterns[base], width));
    for (std::size_t l = 0; l < width; ++l) {
      const std::size_t t = base + l;
      const RefTestTrace ref =
          reference_good_trace(w.circuit, w.tests.tests[t]);
      const std::string where = "test " + std::to_string(t);
      for (std::size_t c = 0; c < ref.po.size(); ++c) {
        const Word* row = good.gate_values[c].data();
        // The X plane is bit-packed: nullptr (all-defined) for X-free cycles.
        const Word* row_x = good.gate_x_of(c);
        for (int k = 0; k < w.circuit.num_po; ++k) {
          const int g = outs[static_cast<std::size_t>(k)];
          const bool ref_x = (ref.po_x[c] >> k) & 1u;
          const bool eng_x = row_x != nullptr && ((row_x[g] >> l) & 1u) != 0;
          if (ref_x != eng_x) {
            report.add("good_trace_po_x",
                       where + " cycle " + std::to_string(c) + " po " +
                           std::to_string(k) + ": engine x=" +
                           (eng_x ? "1" : "0") + " ref x=" +
                           (ref_x ? "1" : "0"));
            continue;
          }
          if (ref_x) continue;  // defined values only
          const bool ref_v = (ref.po[c] >> k) & 1u;
          const bool eng_v = (row[g] >> l) & 1u;
          if (ref_v != eng_v)
            report.add("good_trace_po",
                       where + " cycle " + std::to_string(c) + " po " +
                           std::to_string(k) + ": engine " +
                           (eng_v ? "1" : "0") + " ref " + (ref_v ? "1" : "0"));
        }
      }
      const int lane = static_cast<int>(l);
      const std::uint32_t eng_fs = lane_bits(good.final_state, lane);
      const std::uint32_t eng_fsx = lane_bits(good.final_state_x, lane);
      if (eng_fsx != ref.final_state_x)
        report.add("good_trace_final_x",
                   where + ": engine final-state X mask " +
                       std::to_string(eng_fsx) + " ref " +
                       std::to_string(ref.final_state_x));
      const std::uint32_t defined = ~(eng_fsx | ref.final_state_x);
      if ((eng_fs & defined) != (ref.final_state & defined))
        report.add("good_trace_final",
                   where + ": engine final state " +
                       std::to_string(eng_fs & defined) + " ref " +
                       std::to_string(ref.final_state & defined));
    }
  }
}

void check_reference(const Workload& w, const EngineRun& base,
                     Reporter& report) {
  const ReferenceResult ref = reference_simulate(w.circuit, w.tests, w.faults);
  const FaultSimResult& a = base.result;
  if (ref.detected_faults != a.detected_faults)
    report.add("reference_detected_faults",
               base.label + ": " + std::to_string(a.detected_faults) +
                   " vs reference " + std::to_string(ref.detected_faults));
  for (std::size_t f = 0; f < ref.detected_by.size(); ++f) {
    if (f < a.detected_by.size() && ref.detected_by[f] != a.detected_by[f])
      report.add("reference_detected_by",
                 base.label + ": fault " + std::to_string(f) +
                     " detected by test " + std::to_string(a.detected_by[f]) +
                     " vs reference " + std::to_string(ref.detected_by[f]));
  }
  for (std::size_t t = 0; t < ref.test_effective.size(); ++t) {
    if (t < a.test_effective.size() &&
        ref.test_effective[t] != a.test_effective[t])
      report.add("reference_test_effective",
                 base.label + ": test " + std::to_string(t) + " effective=" +
                     (a.test_effective[t] ? "true" : "false") +
                     " vs reference " +
                     (ref.test_effective[t] ? "true" : "false"));
  }
}

/// The static-compaction contract: every fault detected by the original
/// test set must still be detected by the compacted one (per-fault, not
/// just the same count).
void check_compaction(const Workload& w, Reporter& report) {
  StaticCompactionResult compacted;
  try {
    compacted = static_compact(w.circuit, w.tests, w.faults);
  } catch (const std::exception& e) {
    report.add("compaction_error", std::string(e.what()));
    return;
  }
  const FaultSimResult before = simulate_faults(w.circuit, w.tests, w.faults);
  const FaultSimResult after =
      simulate_faults(w.circuit, compacted.compacted, w.faults);
  for (std::size_t f = 0; f < before.detected_by.size(); ++f) {
    if (before.detected_by[f] >= 0 && after.detected_by[f] < 0)
      report.add("compaction_coverage_loss",
                 "fault " + std::to_string(f) +
                     " detected before compaction but not after");
  }
  if (compacted.detected_after < compacted.detected_before)
    report.add("compaction_count",
               "reported detected_after " +
                   std::to_string(compacted.detected_after) +
                   " < detected_before " +
                   std::to_string(compacted.detected_before));
}

/// The static-redundancy contract: cross-check the fault-independent
/// implication engine (analysis/static_faults.h) against the engine's
/// exhaustive classification, which is ground truth here (generated
/// workloads stay far below the pi + sv <= 22 exhaustive limit). This
/// tests the analyzer against the engine; the oracle's other checks hold
/// the engine to the scalar reference.
///  - soundness: a fault the analyzer proves untestable must be
///    kUndetectable exhaustively — one exhaustively detectable "proof"
///    is an engine bug, not a precision loss;
///  - equivalence: faults sharing an equiv_rep must have identical
///    exhaustive detectability AND identical first-detecting tests under
///    the workload's own test set (equivalent faults induce the same
///    faulty function, so any difference in detected_by is a bad merge).
void check_static_redundancy(const Workload& w, const EngineRun& base,
                             Reporter& report) {
  const analysis::StaticAnalyzer analyzer(w.circuit.comb);
  const analysis::FaultAnalysis sa = analyzer.analyze(w.faults);

  RedundancyResult exhaustive;
  try {
    // All-miss detection vector: every fault goes through the exhaustive
    // length-one scan tests.
    exhaustive = classify_faults_from(
        w.circuit, w.faults, std::vector<int>(w.faults.size(), -1));
  } catch (const std::exception& e) {
    report.add("static_redundancy_error", std::string(e.what()));
    return;
  }

  for (std::size_t f = 0; f < w.faults.size(); ++f) {
    if (sa.verdict[f] != analysis::FaultVerdict::kUnknown &&
        exhaustive.status[f] != FaultStatus::kUndetectable)
      report.add("static_unsound",
                 "fault " + std::to_string(f) + " statically " +
                     analysis::fault_verdict_name(sa.verdict[f]) +
                     " but exhaustively detectable");
    const std::size_t rep = sa.equiv_rep[f];
    if (rep == f) continue;
    if ((exhaustive.status[f] == FaultStatus::kUndetectable) !=
        (exhaustive.status[rep] == FaultStatus::kUndetectable))
      report.add("static_equiv_detectability",
                 "faults " + std::to_string(f) + " and " +
                     std::to_string(rep) +
                     " are merged but differ in exhaustive detectability");
    if (f < base.result.detected_by.size() &&
        rep < base.result.detected_by.size() &&
        base.result.detected_by[f] != base.result.detected_by[rep])
      report.add("static_equiv_detected_by",
                 "faults " + std::to_string(f) + " and " +
                     std::to_string(rep) + " are merged but detected by " +
                     std::to_string(base.result.detected_by[f]) + " vs " +
                     std::to_string(base.result.detected_by[rep]));
  }
}

}  // namespace

std::string OracleReport::to_string() const {
  if (divergences.empty()) return "ok";
  std::ostringstream os;
  os << divergences.size() << " divergence(s):\n";
  for (const std::string& d : divergences) os << "  - " << d << "\n";
  return os.str();
}

OracleReport run_oracle(const Workload& workload) {
  OracleReport out;
  Reporter report(&out.divergences);

  // The serial run is checked against the scalar reference, which shares
  // no code with the engine; the parallel runs are checked against it.
  std::vector<EngineRun> runs;
  for (int threads : {1, 2, 8}) runs.push_back(run_engine(workload, threads));
  check_good_trace(workload, report);
  check_reference(workload, runs[0], report);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    compare_results(runs[0], runs[i], report);
    compare_counters(runs[0], runs[i], report);
  }

  if (workload.check == CheckKind::kCompaction)
    check_compaction(workload, report);
  if (workload.check == CheckKind::kStaticRedundancy)
    check_static_redundancy(workload, runs[0], report);

  return out;
}

}  // namespace fstg::difftest
