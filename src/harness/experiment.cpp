#include "harness/experiment.h"

#include "analysis/static_faults.h"
#include "base/error.h"
#include "base/log.h"
#include "base/obs/metrics.h"
#include "base/obs/telemetry.h"
#include "base/parallel/thread_pool.h"
#include "base/robust/budget.h"
#include "base/store/store.h"
#include "base/timer.h"
#include "harness/cache.h"
#include "lint/fsm_lint.h"
#include "netlist/export.h"

namespace fstg {

namespace {

/// The pre-flight gate (see LintPreflightOptions). Throws ParseError with
/// the first error finding; warnings and budget exhaustion pass through.
void lint_preflight(const Kiss2Fsm& fsm, const LintPreflightOptions& options) {
  if (!options.enabled) return;
  obs::StageScope scope("lint.preflight", fsm.name);
  lint::LintReport report;
  report.source = fsm.name;
  {
    robust::RunGuard guard(options.budget, "lint.preflight");
    lint::lint_fsm_symbolic(fsm, guard, report);
  }
  lint::record_lint_metrics(report);
  if (!report.has_errors()) return;
  for (const lint::Finding& f : report.findings()) {
    if (f.severity == lint::Severity::kError)
      throw ParseError("lint: [" + f.rule + "] " + f.message +
                           (report.errors() > 1
                                ? " (+" + std::to_string(report.errors() - 1) +
                                      " more error finding(s))"
                                : ""),
                       f.loc.line);
  }
}

/// Convert an exception escaping one pipeline stage into a typed Status
/// whose context chain names the stage. ParseError keeps its category,
/// BudgetError maps to kBudgetExhausted, everything else is an internal
/// invariant violation.
robust::Status stage_status(const char* stage, const std::string& circuit) {
  using robust::Code;
  using robust::Status;
  const std::string ctx = std::string("stage ") + stage;
  try {
    throw;  // rethrow the in-flight exception to dispatch on its type
  } catch (const ParseError& e) {
    return Status::error(Code::kParseError, e.what())
        .with_context(ctx)
        .with_context("circuit " + circuit);
  } catch (const BudgetError& e) {
    return Status::error(Code::kBudgetExhausted, e.what())
        .with_context(ctx)
        .with_context("circuit " + circuit);
  } catch (const std::exception& e) {
    return Status::error(Code::kInternal, e.what())
        .with_context(ctx)
        .with_context("circuit " + circuit);
  }
}

/// The functional pipeline up to the read-back check: lint, synthesis and
/// the read-back table. `stage` names the stage in flight, so the try_ form
/// can say where a failure escaped.
CircuitExperiment implement_fsm_staged(const Kiss2Fsm& fsm,
                                       const ExperimentOptions& options,
                                       const char*& stage) {
  CircuitExperiment exp;
  exp.fsm = fsm;

  stage = "lint";
  lint_preflight(fsm, options.lint);

  stage = "synth";
  store::Store* cache = store::resolve(options.cache);
  const std::uint64_t skey =
      cache ? harness::synth_key(fsm, options.synth) : 0;
  if (!harness::load_synth(cache, skey, &exp.synth, &exp.table,
                           &exp.synth_seconds)) {
    {
      obs::StageScope scope("synth", fsm.name);
      Timer timer;
      exp.synth = synthesize_scan_circuit(exp.fsm, options.synth);
      exp.synth_seconds = timer.seconds();
    }

    stage = "verify";
    {
      obs::StageScope scope("verify.readback", fsm.name);
      exp.table =
          read_back_table(exp.synth.circuit, &exp.fsm, &exp.synth.encoding);
      std::string message;
      require(circuit_matches_fsm(exp.table, exp.fsm, exp.synth.encoding,
                                  &message),
              "synthesis self-check failed for " + fsm.name + ": " + message);
    }
    harness::save_synth(cache, skey, exp.synth, exp.table, exp.synth_seconds);
  }

  log_info("circuit " + fsm.name + ": " +
           std::to_string(exp.synth.circuit.comb.num_gates()) + " gates, " +
           std::to_string(exp.table.num_states()) + " states");
  return exp;
}

/// The whole functional pipeline behind run_fsm and try_run_fsm: the
/// implemented circuit plus its functional tests.
CircuitExperiment run_fsm_staged(const Kiss2Fsm& fsm,
                                 const ExperimentOptions& options,
                                 const char*& stage) {
  CircuitExperiment exp = implement_fsm_staged(fsm, options, stage);

  stage = "generate";
  store::Store* cache = store::resolve(options.cache);
  const std::uint64_t gkey =
      cache ? harness::gen_key(exp.table, options.gen) : 0;
  if (!harness::load_gen(cache, gkey, &exp.gen)) {
    obs::StageScope scope("generate", fsm.name);
    exp.gen = generate_functional_tests(exp.table, options.gen);
    harness::save_gen(cache, gkey, exp.gen);
  }
  if (exp.gen.degraded)
    log_warn("circuit " + fsm.name +
             ": budget exhausted during UIO or transfer search (" +
             std::to_string(exp.gen.uio_aborted_states()) +
             " UIO searches aborted); falling back to scan-out, coverage "
             "is preserved, cycle count may rise");
  return exp;
}

/// run_fsm_staged on a named benchmark, checked against its Table 4 entry.
CircuitExperiment run_circuit_staged(const std::string& name,
                                     const ExperimentOptions& options,
                                     const char*& stage) {
  stage = "load";
  CircuitExperiment exp = run_fsm_staged(load_benchmark(name), options, stage);
  stage = "verify";
  exp.spec = benchmark_spec(name);
  require(exp.synth.circuit.num_sv == exp.spec.sv,
          "circuit " + name + ": synthesized sv disagrees with Table 4");
  return exp;
}

/// Statuses [begin, end) of `all` as one list's result.
RedundancyResult redundancy_slice(const RedundancyResult& all,
                                  std::size_t begin, std::size_t end) {
  RedundancyResult r;
  r.status.assign(all.status.begin() + static_cast<std::ptrdiff_t>(begin),
                  all.status.begin() + static_cast<std::ptrdiff_t>(end));
  for (const FaultStatus s : r.status) {
    switch (s) {
      case FaultStatus::kDetected:
        ++r.detected;
        break;
      case FaultStatus::kMissedDetectable:
        ++r.missed_detectable;
        break;
      case FaultStatus::kUndetectable:
        ++r.undetectable;
        break;
    }
  }
  return r;
}

/// run_gate_level over `tests` in place of the generated ones.
GateLevelResult gate_level(const CircuitExperiment& exp, const TestSet& tests,
                           const GateLevelOptions& options) {
  GateLevelResult result;
  const ScanCircuit& circuit = exp.synth.circuit;
  store::Store* cache = store::resolve(options.cache);
  const std::string blif = cache ? to_blif(circuit, exp.fsm.name) : "";
  const std::uint64_t fkey =
      cache ? harness::faults_key(blif, options.max_bridging_faults) : 0;
  if (!harness::load_faults(cache, fkey, circuit.comb.num_gates(),
                            &result.sa_faults, &result.br_faults,
                            &result.br_enumerated)) {
    result.sa_faults = enumerate_stuck_at(circuit.comb);
    result.br_faults = enumerate_bridging(circuit.comb);
    result.br_enumerated = result.br_faults.size();
    result.br_faults = sample_bridging(std::move(result.br_faults),
                                       options.max_bridging_faults);
    if (result.br_faults.size() < result.br_enumerated)
      log_info("circuit " + exp.fsm.name + ": sampled " +
               std::to_string(result.br_faults.size()) + " of " +
               std::to_string(result.br_enumerated) + " bridging faults");
    harness::save_faults(cache, fkey, result.sa_faults, result.br_faults,
                         result.br_enumerated);
  }

  // Optional static pre-flight: prove faults untestable without a single
  // simulated pattern.
  analysis::FaultAnalysis sa_static, br_static;
  if (options.static_prune) {
    obs::StageScope scope("analysis.static_prune", exp.fsm.name);
    static const obs::Counter c_pruned = obs::counter("analysis.pruned");
    const analysis::StaticAnalyzer statics(circuit.comb);
    sa_static = statics.analyze(result.sa_faults);
    br_static = statics.analyze(result.br_faults);
    result.static_pruned = true;
    result.sa_pruned = sa_static.untestable();
    result.br_pruned = br_static.untestable();
    result.static_unexcitable = sa_static.unexcitable + br_static.unexcitable;
    result.static_unpropagatable =
        sa_static.unpropagatable + br_static.unpropagatable;
    result.static_equiv_classes = sa_static.equiv_classes;
    result.static_equiv_merged = sa_static.equiv_merged;
    c_pruned.add(result.sa_pruned + result.br_pruned);
    if (result.sa_pruned + result.br_pruned > 0)
      log_info("circuit " + exp.fsm.name + ": static analysis pruned " +
               std::to_string(result.sa_pruned) + " stuck-at + " +
               std::to_string(result.br_pruned) + " bridging faults");
  }

  FaultSimOptions sim_options;
  sim_options.threads = options.threads;
  robust::RunGuard guard(options.budget, "fault_sim.batch");
  // One simulation of the stuck-at list followed by the bridging list, so
  // every batch's good trace serves both. It covers the faults the
  // static verdicts leave unproven (all of them without a pre-flight);
  // `origin` maps each back onto the two lists, where a pruned fault reads
  // as undetected.
  const std::size_t total = result.sa_faults.size() + result.br_faults.size();
  std::vector<FaultSpec> simulated;
  std::vector<std::size_t> origin;
  simulated.reserve(total);
  origin.reserve(total);
  const auto add_unproven = [&](const std::vector<FaultSpec>& faults,
                                const analysis::FaultAnalysis& verdicts,
                                std::size_t offset) {
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (!verdicts.verdict.empty() &&
          verdicts.verdict[f] != analysis::FaultVerdict::kUnknown)
        continue;
      simulated.push_back(faults[f]);
      origin.push_back(offset + f);
    }
  };
  add_unproven(result.sa_faults, sa_static, 0);
  add_unproven(result.br_faults, br_static, result.sa_faults.size());
  CompactionResult merged;
  {
    obs::StageScope scope("gate_level.fault_sim",
                          std::to_string(simulated.size()) + " faults");
    merged =
        select_effective_tests(circuit, tests, simulated, guard, sim_options);
    if (!merged.sim.complete) throw BudgetError(guard.status().message());
  }
  std::vector<int> detected_by(total, -1);
  for (std::size_t k = 0; k < origin.size(); ++k)
    detected_by[origin[k]] = merged.sim.detected_by[k];
  const auto split = detected_by.begin() +
                     static_cast<std::ptrdiff_t>(result.sa_faults.size());
  result.sa = compaction_from_detections(
      merged.ordered_tests, std::vector<int>(detected_by.begin(), split), true);
  result.br = compaction_from_detections(
      std::move(merged.ordered_tests),
      std::vector<int>(split, detected_by.end()), true);

  if (options.classify_redundancy) {
    // Reuse the compaction pass's simulation: only the misses (pruned
    // faults included) get the exhaustive re-check, both lists' in one
    // engine run, split back like the test-set pass.
    obs::StageScope scope("redundancy.classify", exp.fsm.name);
    std::vector<FaultSpec> both = result.sa_faults;
    both.insert(both.end(), result.br_faults.begin(), result.br_faults.end());
    const RedundancyResult classified =
        classify_faults_from(circuit, both, detected_by, sim_options);
    result.sa_redundancy =
        redundancy_slice(classified, 0, result.sa_faults.size());
    result.br_redundancy =
        redundancy_slice(classified, result.sa_faults.size(), total);
    result.redundancy_classified = true;
  }
  return result;
}

}  // namespace

CircuitExperiment run_circuit(const std::string& name,
                              const ExperimentOptions& options) {
  const char* stage = nullptr;
  return run_circuit_staged(name, options, stage);
}

CircuitExperiment run_fsm(const Kiss2Fsm& fsm,
                          const ExperimentOptions& options) {
  const char* stage = nullptr;
  return run_fsm_staged(fsm, options, stage);
}

CircuitExperiment implement_fsm(const Kiss2Fsm& fsm,
                                const ExperimentOptions& options) {
  const char* stage = nullptr;
  return implement_fsm_staged(fsm, options, stage);
}

robust::Result<CircuitExperiment> try_run_circuit(
    const std::string& name, const ExperimentOptions& options) {
  const char* stage = "load";
  try {
    return run_circuit_staged(name, options, stage);
  } catch (...) {
    return stage_status(stage, name);
  }
}

robust::Result<CircuitExperiment> try_run_fsm(const Kiss2Fsm& fsm,
                                              const ExperimentOptions& options) {
  const char* stage = "lint";
  try {
    return run_fsm_staged(fsm, options, stage);
  } catch (...) {
    return stage_status(stage, fsm.name);
  }
}

GateLevelResult run_gate_level(const CircuitExperiment& exp,
                               const GateLevelOptions& options) {
  return gate_level(exp, exp.gen.tests, options);
}

GateLevelResult run_gate_level(const CircuitExperiment& exp,
                               bool classify_redundancy) {
  GateLevelOptions options;
  options.classify_redundancy = classify_redundancy;
  return run_gate_level(exp, options);
}

robust::Result<GateLevelResult> try_run_gate_level(
    const CircuitExperiment& exp, const GateLevelOptions& options) {
  try {
    return run_gate_level(exp, options);
  } catch (...) {
    return stage_status("gate-level", exp.fsm.name);
  }
}

TestFile test_file_for(const CircuitExperiment& exp) {
  TestFile file;
  file.circuit = exp.fsm.name;
  file.input_bits = exp.table.input_bits();
  file.state_bits = exp.synth.circuit.num_sv;
  file.tests = exp.gen.tests;
  return file;
}

GateLevelResult simulate_test_file(const CircuitExperiment& exp,
                                   const TestFile& file,
                                   const GateLevelOptions& options) {
  require(file.input_bits == exp.table.input_bits(),
          "test file input width does not match the circuit");
  require(file.state_bits == exp.synth.circuit.num_sv,
          "test file state width does not match the circuit");
  file.tests.validate(exp.table);
  return gate_level(exp, file.tests, options);
}

std::size_t SuiteResult::failures() const {
  std::size_t n = 0;
  for (const CircuitRun& run : runs) n += run.status.is_ok() ? 0 : 1;
  return n;
}

namespace {

/// One circuit's complete pipeline; never throws (the try_ boundary turns
/// every failure into a Status on the run record).
CircuitRun run_one_circuit(const std::string& name,
                           const SuiteOptions& options) {
  obs::StageScope scope("suite.circuit", name);
  CircuitRun run;
  run.name = name;
  store::Store* cache = store::resolve(options.experiment.cache);
  if (cache && !options.checkpoint.empty()) {
    // A record from an earlier (killed or budget-tripped) sweep means this
    // circuit's stages are already durable: the re-run below restarts from
    // the warm store instead of recomputing.
    static const obs::Counter c_resumed =
        obs::counter("harness.checkpoint.resumed");
    static const obs::Counter c_fresh =
        obs::counter("harness.checkpoint.fresh");
    if (harness::checkpoint_done(cache, options.checkpoint, name))
      c_resumed.inc();
    else
      c_fresh.inc();
  }
  robust::Result<CircuitExperiment> r =
      try_run_circuit(name, options.experiment);
  if (r.is_ok() && options.gate_level) {
    robust::Result<GateLevelResult> g =
        try_run_gate_level(r.value(), options.gate);
    if (g.is_ok()) {
      run.gate = g.take();
    } else {
      r = g.status();  // demote the circuit to failed at the gate stage
    }
  }
  if (r.is_ok()) {
    run.exp = r.take();
  } else {
    run.status = r.status();
    // The innermost "stage <name>" context frame names the failed stage.
    for (const std::string& frame : run.status.context()) {
      if (frame.rfind("stage ", 0) == 0) {
        run.failed_stage = frame.substr(6);
        break;
      }
    }
    log_warn("suite: circuit " + name + " failed (" + run.status.to_string() +
             "); continuing with the rest");
  }
  if (cache && !options.checkpoint.empty())
    harness::checkpoint_mark(cache, options.checkpoint, name,
                             run.status.is_ok()
                                 ? "ok"
                                 : "failed " + run.failed_stage);
  return run;
}

}  // namespace

namespace {

/// Suite-level outcome counters, bumped once after all runs complete.
void count_suite_outcomes(const SuiteResult& result) {
  static const obs::Counter c_ok = obs::counter("suite.circuits_ok");
  static const obs::Counter c_failed = obs::counter("suite.circuits_failed");
  const std::size_t failed = result.failures();
  c_ok.add(result.runs.size() - failed);
  c_failed.add(failed);
}

}  // namespace

SuiteResult run_circuit_suite(const std::vector<std::string>& names,
                              const SuiteOptions& options) {
  obs::StageScope suite_scope("suite",
                       std::to_string(names.size()) + " circuits");
  SuiteResult result;
  result.runs.resize(names.size());
  const int threads = parallel::resolve_threads(options.threads);
  if (threads <= 1 || names.size() < 2) {
    for (std::size_t i = 0; i < names.size(); ++i)
      result.runs[i] = run_one_circuit(names[i], options);
    count_suite_outcomes(result);
    return result;
  }

  // Circuit-level fan-out: each circuit lands in runs[i] by input index, so
  // the suite report is deterministic regardless of worker scheduling.
  // Budget injections are thread-local; snapshot the caller's armed set and
  // install it in every worker so FSTG_INJECT-style failures propagate.
  const robust::InjectionSnapshot injections = robust::injections_snapshot();
  parallel::parallel_for(
      names.size(), /*grain=*/1, threads,
      [&](int /*slot*/, std::size_t lo, std::size_t hi) {
        robust::install_injections(injections);
        for (std::size_t i = lo; i < hi; ++i)
          result.runs[i] = run_one_circuit(names[i], options);
      });
  count_suite_outcomes(result);
  return result;
}

}  // namespace fstg
