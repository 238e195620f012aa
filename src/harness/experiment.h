#pragma once

#include <string>

#include "atpg/generator.h"
#include "atpg/test_io.h"
#include "base/robust/budget.h"
#include "base/robust/status.h"
#include "fault/bridging.h"
#include "fault/compaction.h"
#include "fault/fault.h"
#include "fault/redundancy.h"
#include "kiss/benchmarks.h"
#include "netlist/synth.h"
#include "sim/read_back.h"

namespace fstg::store {
class Store;
}  // namespace fstg::store

namespace fstg {

/// Budgeted pre-flight static analysis, run before synthesis. Only the
/// cheap symbolic FSM analyses run here — the table-based and netlist
/// ones are `fstg lint`'s job. Error-severity findings abort the pipeline
/// with a parse-category failure ("stage lint" in the context chain, exit
/// code 2 at the CLI); warnings only bump `lint.findings.<rule>` counters.
/// Budget exhaustion skips the remaining checks and lets the pipeline
/// continue: a slow lint must never cost a circuit its run.
struct LintPreflightOptions {
  bool enabled = true;
  robust::Budget budget;
};

/// Options shared by every experiment (paper defaults).
struct ExperimentOptions {
  SynthesisOptions synth;
  GeneratorOptions gen;  ///< uio_max_length = 0 (=> N_SV), transfer <= 1
  LintPreflightOptions lint;
  /// Artifact cache for the synth and generate stages (harness/cache.h).
  /// nullptr falls back to the process-global store (the --cache-dir flag);
  /// with neither, every stage recomputes. A hit restores byte-equivalent
  /// results; corruption degrades to recompute, never to an error.
  store::Store* cache = nullptr;
};

/// Everything the functional part of the paper needs for one circuit:
/// KISS2 machine -> synthesized full-scan implementation -> completed
/// state table (read back from the netlist, so the functional model and
/// the implementation agree by construction) -> functional tests.
struct CircuitExperiment {
  BenchmarkSpec spec;
  Kiss2Fsm fsm;
  SynthesisResult synth;
  StateTable table;
  GeneratorResult gen;
  double synth_seconds = 0.0;
};

/// Run the functional pipeline on one named benchmark circuit.
CircuitExperiment run_circuit(const std::string& name,
                              const ExperimentOptions& options = {});

/// Same pipeline on a caller-provided machine (examples, tests).
CircuitExperiment run_fsm(const Kiss2Fsm& fsm,
                          const ExperimentOptions& options = {});

/// The same pipeline stopped before generation: lint, synthesis and the
/// read-back check, which is all `fstg sim` needs. `gen` stays empty.
CircuitExperiment implement_fsm(const Kiss2Fsm& fsm,
                                const ExperimentOptions& options = {});

/// Gate-level evaluation of the functional tests (Tables 3, 6, 7):
/// stuck-at and bridging fault lists, longest-first effective-test
/// selection, and (optionally) exhaustive redundancy classification of the
/// leftover faults.
struct GateLevelOptions {
  bool classify_redundancy = true;
  /// Worker threads for the fault-simulation engine (FaultSimOptions
  /// semantics: negative = process default, 0/1 = serial). Results are
  /// bit-identical for any value.
  int threads = -1;
  /// Our two-level implementations have many more qualifying bridging
  /// pairs than the paper's multi-level circuits (the candidate count is
  /// quadratic in multi-input gates). Lists larger than this cap are
  /// deterministically strided down to ~this many faults, keeping AND/OR
  /// pairs together; 0 = no cap. The full enumerated count is reported.
  std::size_t max_bridging_faults = 4096;
  /// Artifact cache for the enumerated fault lists, the one artifact a
  /// gate-level run writes (same resolution rule as
  /// ExperimentOptions::cache).
  store::Store* cache = nullptr;
  /// Run the fault-independent static implication engine before any
  /// simulation and leave the faults it proves untestable out of the
  /// simulation. They stay in every list and total as undetected faults,
  /// so no reported number changes; redundancy classification re-checks
  /// them exhaustively like any other miss.
  bool static_prune = false;
  /// Bounds the one simulation of the stuck-at list followed by the
  /// bridging list: one RunGuard at site `fault_sim.batch`, and BudgetError
  /// is thrown if it stops early (partial coverage would under-report).
  /// Fault enumeration, static pruning and redundancy classification (one
  /// more engine run over both lists' misses, at site
  /// `redundancy.classify`) are not budgeted.
  robust::Budget budget;
};

struct GateLevelResult {
  std::vector<FaultSpec> sa_faults;  ///< the enumerated stuck-at list
  std::vector<FaultSpec> br_faults;  ///< after sampling
  std::size_t br_enumerated = 0;     ///< size of the full bridging list
  /// Simulations over the whole of sa_faults/br_faults (statically pruned
  /// faults read as undetected).
  CompactionResult sa;
  CompactionResult br;
  RedundancyResult sa_redundancy;
  RedundancyResult br_redundancy;
  bool redundancy_classified = false;
  /// Static pre-flight stats (meaningful when `static_pruned`). Pruned
  /// counts are faults left out of the simulation; equiv counts cover the
  /// stuck-at list.
  bool static_pruned = false;
  std::size_t sa_pruned = 0;
  std::size_t br_pruned = 0;
  std::size_t static_unexcitable = 0;
  std::size_t static_unpropagatable = 0;
  std::size_t static_equiv_classes = 0;
  std::size_t static_equiv_merged = 0;
};

GateLevelResult run_gate_level(const CircuitExperiment& exp,
                               const GateLevelOptions& options = {});
GateLevelResult run_gate_level(const CircuitExperiment& exp,
                               bool classify_redundancy);

/// --- Commands shared by `fstg gen|sim` and `fstg serve` -----------------

/// The test file `fstg gen` writes and serve's `gen` returns.
TestFile test_file_for(const CircuitExperiment& exp);

/// `fstg sim` and serve's `sim`: run_gate_level over a test file's tests in
/// place of the generated ones. Throws Error if the file's input or state
/// width does not match the circuit or a test does not fit the table.
GateLevelResult simulate_test_file(const CircuitExperiment& exp,
                                   const TestFile& file,
                                   const GateLevelOptions& options = {});

/// --- Structured-error boundary ------------------------------------------
///
/// The try_ variants never throw for input-level or resource-level
/// failures. They run the same pipeline as the throwing forms, which
/// records the stage in flight (load, lint, synth, verify, generate,
/// gate-level); one catch converts an escaping exception into a typed
/// Status whose context chain names that stage and the circuit. The suite
/// runner uses them to record per-circuit failures and continue with the
/// remaining circuits instead of aborting the whole table.
robust::Result<CircuitExperiment> try_run_circuit(
    const std::string& name, const ExperimentOptions& options = {});
robust::Result<CircuitExperiment> try_run_fsm(
    const Kiss2Fsm& fsm, const ExperimentOptions& options = {});
robust::Result<GateLevelResult> try_run_gate_level(
    const CircuitExperiment& exp, const GateLevelOptions& options = {});

/// One circuit's outcome in a suite run. `exp` (and `gate`, when gate-level
/// evaluation was requested) are only meaningful when `status.is_ok()`.
struct CircuitRun {
  std::string name;
  robust::Status status;
  std::string failed_stage;  ///< "", "load", "synth", "verify", "generate", "gate-level"
  CircuitExperiment exp;
  GateLevelResult gate;
};

struct SuiteOptions {
  ExperimentOptions experiment;
  bool gate_level = false;  ///< also run stuck-at/bridging evaluation
  GateLevelOptions gate;
  /// Worker threads for circuit-level parallelism: each circuit's whole
  /// pipeline runs on one worker (negative = process default, 0/1 =
  /// serial). `runs` keeps the input order regardless of scheduling, and
  /// budget injections armed on the calling thread apply inside workers.
  int threads = -1;
  /// Campaign name for durable checkpoint/resume records (harness/cache.h).
  /// Empty disables checkpointing; requires a usable artifact cache. Each
  /// completed circuit writes an atomic completion record; a killed or
  /// budget-tripped sweep re-run under the same campaign restarts from the
  /// last durable stage (completed circuits' stages all hit the warm
  /// store), with resumed/fresh circuits counted under harness.checkpoint.*.
  std::string checkpoint;
};

struct SuiteResult {
  std::vector<CircuitRun> runs;

  std::size_t failures() const;
  std::size_t successes() const { return runs.size() - failures(); }
};

/// Run the pipeline over many circuits, recording per-stage failures and
/// continuing with the remaining circuits (a failed circuit never takes
/// the rest of the table down with it).
SuiteResult run_circuit_suite(const std::vector<std::string>& names,
                              const SuiteOptions& options = {});

}  // namespace fstg
