// End-to-end robustness: synthetic budget exhaustion injected at every
// guard site in the parse -> synth -> ATPG -> fault-sim pipeline must
// produce a typed partial result or a structured error — never a hang, a
// crash, or a silently wrong "complete" answer. Also covers the paper-level
// degradation guarantee: a budget-exhausted UIO search falls back to
// scan-out tests, which keeps state-transition coverage at 100%.
#include <gtest/gtest.h>

#include <algorithm>

#include "atpg/coverage.h"
#include "atpg/generator.h"
#include "base/error.h"
#include "base/robust/budget.h"
#include "fault/bridging.h"
#include "fault/compaction.h"
#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "fault/podem.h"
#include "harness/experiment.h"
#include "kiss/benchmarks.h"
#include "netlist/reach.h"
#include "seq/distinguishing.h"
#include "seq/transfer.h"
#include "seq/uio.h"

namespace fstg {
namespace {

using robust::Budget;
using robust::BudgetTrip;
using robust::RunGuard;
using robust::clear_budget_injections;
using robust::clear_guard_site_log;
using robust::guard_sites_seen;
using robust::inject_budget_exhaustion;

class RobustPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clear_budget_injections();
    clear_guard_site_log();
  }
  void TearDown() override { clear_budget_injections(); }

  static StateTable table(const std::string& name) {
    return expand_fsm(load_benchmark(name), FillPolicy::kError);
  }
};

// --- Injection at every guard site ---------------------------------------

TEST_F(RobustPipelineTest, UioSearchExhaustionYieldsTypedPartialSet) {
  StateTable t = table("dk27");
  // Let a few states finish, then cut the derivation short.
  inject_budget_exhaustion("uio.search", 20);
  UioSet set = derive_uio_sequences(t);
  EXPECT_FALSE(set.complete());
  EXPECT_EQ(set.trip, BudgetTrip::kInjected);
  EXPECT_GT(set.aborted_states(), 0);
  // Everything derived before the trip is still a verified UIO.
  for (int s = 0; s < t.num_states(); ++s) {
    const UioSequence& u = set.of(s);
    if (u.exists) {
      EXPECT_TRUE(verify_uio(t, s, u.inputs));
    }
    if (u.aborted) {
      EXPECT_FALSE(u.exists);
    }
  }
}

TEST_F(RobustPipelineTest, TransferExhaustionIsTypedNotANonExistenceProof) {
  StateTable t = table("lion");
  inject_budget_exhaustion("transfer.bfs");
  RunGuard guard(Budget{}, "transfer.bfs");
  TransferSearch r = find_transfer_guarded(
      successor_lists(t), 0, 4, [](int s) { return s == 2; }, guard);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_FALSE(r.seq.has_value());
}

TEST_F(RobustPipelineTest, DistinguishingExhaustionIsTyped) {
  StateTable t = table("lion");
  inject_budget_exhaustion("distinguishing.bfs");
  RunGuard guard(Budget{}, "distinguishing.bfs");
  DistinguishingSearch r = distinguishing_sequence_guarded(t, 0, 1, guard);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_FALSE(r.seq.has_value());
}

TEST_F(RobustPipelineTest, PodemExhaustionAbortsWithoutMisclassifying) {
  CircuitExperiment exp = run_circuit("lion");
  std::vector<FaultSpec> faults = enumerate_stuck_at(exp.synth.circuit.comb);
  ASSERT_FALSE(faults.empty());

  inject_budget_exhaustion("podem.run");
  PodemResult r = podem(exp.synth.circuit, faults.front());
  EXPECT_EQ(r.status, PodemResult::Status::kAborted);
  EXPECT_TRUE(r.budget_exhausted);  // never kRedundant from a cut search

  GateAtpgResult atpg = gate_level_atpg(exp.synth.circuit, faults);
  EXPECT_FALSE(atpg.complete);
  EXPECT_GT(atpg.unprocessed, 0u);
}

TEST_F(RobustPipelineTest, FaultSimExhaustionIsLowerBoundPartial) {
  CircuitExperiment exp = run_circuit("lion");
  std::vector<FaultSpec> faults = enumerate_stuck_at(exp.synth.circuit.comb);

  FaultSimResult full =
      simulate_faults(exp.synth.circuit, exp.gen.tests, faults);
  ASSERT_TRUE(full.complete);

  inject_budget_exhaustion("fault_sim.batch", 2);
  RunGuard guard(Budget{}, "fault_sim.batch");
  FaultSimResult part =
      simulate_faults_guarded(exp.synth.circuit, exp.gen.tests, faults, guard);
  EXPECT_FALSE(part.complete);
  EXPECT_LE(part.detected_faults, full.detected_faults);
  // Soundness direction: every recorded detection is real (agrees with the
  // complete run's first-detecting-test attribution).
  for (std::size_t f = 0; f < part.detected_by.size(); ++f) {
    if (part.detected_by[f] >= 0) {
      EXPECT_EQ(part.detected_by[f], full.detected_by[f]);
    }
  }

  // The unguarded wrapper refuses to return an incomplete result.
  inject_budget_exhaustion("fault_sim.batch", 2);
  EXPECT_THROW(simulate_faults(exp.synth.circuit, exp.gen.tests, faults),
               BudgetError);
}

TEST_F(RobustPipelineTest, BridgingExhaustionReturnsValidPrefix) {
  CircuitExperiment exp = run_circuit("lion");
  std::vector<FaultSpec> full = enumerate_bridging(exp.synth.circuit.comb);

  inject_budget_exhaustion("bridging.pairs", 50);
  RunGuard guard(Budget{}, "bridging.pairs");
  BridgingEnumeration part =
      enumerate_bridging_guarded(exp.synth.circuit.comb, guard);
  EXPECT_FALSE(part.complete);
  ASSERT_LE(part.faults.size(), full.size());
  for (std::size_t i = 0; i < part.faults.size(); ++i)
    EXPECT_EQ(describe_fault(exp.synth.circuit.comb, part.faults[i]),
              describe_fault(exp.synth.circuit.comb, full[i]));

  inject_budget_exhaustion("bridging.pairs", 50);
  EXPECT_THROW(enumerate_bridging(exp.synth.circuit.comb), BudgetError);
}

TEST_F(RobustPipelineTest, ReachabilityNeverReturnsAPartialMatrix) {
  CircuitExperiment exp = run_circuit("lion");
  inject_budget_exhaustion("reach.forward", 3);
  RunGuard guard(Budget{}, "reach.forward");
  robust::Result<std::vector<BitVec>> r =
      forward_reachability_guarded(exp.synth.circuit.comb, guard);
  ASSERT_FALSE(r.is_ok());  // partial reachability would corrupt bridging
  EXPECT_EQ(r.status().code(), robust::Code::kBudgetExhausted);

  inject_budget_exhaustion("reach.forward", 3);
  EXPECT_THROW(forward_reachability(exp.synth.circuit.comb), BudgetError);
}

// --- Paper-level degradation: scan-out fallback keeps coverage -----------

class ScanOutFallbackTest : public RobustPipelineTest,
                            public ::testing::WithParamInterface<const char*> {
};

TEST_P(ScanOutFallbackTest, BudgetExhaustedUioStillCoversAllTransitions) {
  StateTable t = table(GetParam());

  GeneratorResult normal = generate_functional_tests(t);
  ASSERT_FALSE(normal.degraded);

  // A one-expansion budget aborts every UIO search immediately: all states
  // are treated UIO-less, so every test ends in a scan-out.
  GeneratorOptions starved;
  starved.budget.max_expansions = 1;
  GeneratorResult r = generate_functional_tests(t, starved);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.uio_aborted_states(), t.num_states());
  r.tests.validate(t);

  // Every state-transition is still tested by exactly one test...
  for (std::size_t id = 0; id < r.tested_by.size(); ++id)
    EXPECT_GE(r.tested_by[id], 0) << "transition " << id << " untested";

  // ...and state-transition fault coverage stays at 100% (the paper's
  // Theorem 1 argument: scan-out observes the destination state directly).
  StCoverageResult cov = simulate_st_faults(t, r.tests, enumerate_st_faults(t));
  EXPECT_EQ(cov.detected, cov.total);
  EXPECT_DOUBLE_EQ(cov.percent(), 100.0);

  // The price of degradation is test length, not coverage: no chaining
  // means at least as many scan operations as the normal run.
  EXPECT_GE(r.tests.size(), normal.tests.size());
  EXPECT_EQ(r.tests.length_one_count(), r.tests.size());
}

INSTANTIATE_TEST_SUITE_P(Circuits, ScanOutFallbackTest,
                         ::testing::Values("lion", "dk27"));

TEST_F(RobustPipelineTest, GenerationBudgetBoundsTransferSearches) {
  StateTable t = table("lion");
  // Complete UIOs, so the budget can only trip in the transfer searches
  // (lion's chaining needs two of them).
  UioSet uios = derive_uio_sequences(t);
  ASSERT_TRUE(uios.complete());

  GeneratorOptions starved;
  starved.budget.max_expansions = 1;
  GeneratorResult r = generate_functional_tests(t, starved, std::move(uios));
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.uio_aborted_states(), 0);
  r.tests.validate(t);
  for (std::size_t id = 0; id < r.tested_by.size(); ++id)
    EXPECT_GE(r.tested_by[id], 0) << "transition " << id << " untested";
  StCoverageResult cov = simulate_st_faults(t, r.tests, enumerate_st_faults(t));
  EXPECT_EQ(cov.detected, cov.total);
  EXPECT_DOUBLE_EQ(cov.percent(), 100.0);
}

// --- Structured-error boundaries -----------------------------------------

TEST_F(RobustPipelineTest, TryGenerateTreatsUioExhaustionAsDegradedSuccess) {
  inject_budget_exhaustion("uio.search");
  robust::Result<CircuitExperiment> r = try_run_fsm(load_benchmark("lion"));
  ASSERT_TRUE(r.is_ok());  // scan-out fallback keeps the result valid
  EXPECT_TRUE(r.value().gen.degraded);
}

TEST_F(RobustPipelineTest, SuiteRecordsFailuresAndContinues) {
  SuiteResult suite = run_circuit_suite({"no-such-circuit", "lion"});
  ASSERT_EQ(suite.runs.size(), 2u);
  EXPECT_EQ(suite.failures(), 1u);
  EXPECT_EQ(suite.successes(), 1u);

  const CircuitRun& bad = suite.runs[0];
  EXPECT_FALSE(bad.status.is_ok());
  EXPECT_EQ(bad.failed_stage, "load");
  // The context chain names both the stage and the circuit.
  const std::string text = bad.status.to_string();
  EXPECT_NE(text.find("no-such-circuit"), std::string::npos);

  const CircuitRun& good = suite.runs[1];
  EXPECT_TRUE(good.status.is_ok());
  EXPECT_GT(good.exp.gen.tests.size(), 0u);
}

TEST_F(RobustPipelineTest, SuiteDemotesGateLevelBudgetFailure) {
  inject_budget_exhaustion("fault_sim.batch");
  SuiteOptions options;
  options.gate_level = true;
  SuiteResult suite = run_circuit_suite({"lion"}, options);
  ASSERT_EQ(suite.runs.size(), 1u);
  EXPECT_EQ(suite.failures(), 1u);
  EXPECT_EQ(suite.runs[0].failed_stage, "gate-level");
  EXPECT_EQ(suite.runs[0].status.code(), robust::Code::kBudgetExhausted);
}

// --- The sim budget bounds the simulation of both fault lists ----------

TEST_F(RobustPipelineTest, SimBudgetBoundsBridgingToo) {
  const CircuitExperiment exp = run_circuit("lion");
  const TestFile file = test_file_for(exp);
  // What lion's stuck-at simulation consumes on its own, in the order the
  // gate-level run simulates the tests.
  RunGuard sa_only(Budget{}, "fault_sim.batch");
  const CompactionResult sa = select_effective_tests(
      exp.synth.circuit, file.tests, enumerate_stuck_at(exp.synth.circuit.comb),
      sa_only);
  ASSERT_TRUE(sa.sim.complete);
  ASSERT_GT(sa_only.expansions(), 0u);

  // Enough for the stuck-at list alone, not for the bridging faults that
  // the same simulation carries.
  GateLevelOptions options;
  options.classify_redundancy = false;
  options.budget.max_expansions = sa_only.expansions() + 1;
  EXPECT_THROW(simulate_test_file(exp, file, options), BudgetError);
}

TEST_F(RobustPipelineTest, SimBudgetIsTheSumOfBothLists) {
  const CircuitExperiment exp = run_circuit("lion");
  const TestFile file = test_file_for(exp);
  GateLevelOptions options;
  options.classify_redundancy = false;
  const GateLevelResult free = simulate_test_file(exp, file, options);
  // What each list consumes on its own, each under its own guard.
  RunGuard sa_only(Budget{}, "fault_sim.batch");
  ASSERT_TRUE(select_effective_tests(exp.synth.circuit, file.tests,
                                     free.sa_faults, sa_only)
                  .sim.complete);
  RunGuard br_only(Budget{}, "fault_sim.batch");
  ASSERT_TRUE(select_effective_tests(exp.synth.circuit, file.tests,
                                     free.br_faults, br_only)
                  .sim.complete);
  ASSERT_GT(sa_only.expansions(), 0u);
  ASSERT_GT(br_only.expansions(), 0u);

  // One simulation of both lists is charged exactly their sum.
  options.budget.max_expansions = sa_only.expansions() + br_only.expansions();
  const GateLevelResult budgeted = simulate_test_file(exp, file, options);
  for (const auto& [a, b] : {std::pair{&free.sa, &budgeted.sa},
                             std::pair{&free.br, &budgeted.br}}) {
    EXPECT_TRUE(b->sim.complete);
    EXPECT_EQ(a->sim.detected_by, b->sim.detected_by);
    EXPECT_EQ(a->sim.test_effective, b->sim.test_effective);
    EXPECT_EQ(a->effective_tests.size(), b->effective_tests.size());
  }
  options.budget.max_expansions -= 1;
  EXPECT_THROW(simulate_test_file(exp, file, options), BudgetError);
}

TEST_F(RobustPipelineTest, AmpleSimBudgetMatchesTheUnbudgetedRun) {
  const CircuitExperiment exp = run_circuit("lion");
  const TestFile file = test_file_for(exp);
  GateLevelOptions options;
  options.classify_redundancy = false;
  const GateLevelResult free = simulate_test_file(exp, file, options);
  options.budget.max_expansions = 1'000'000'000;
  options.budget.time_budget_ms = 3'600'000;
  const GateLevelResult budgeted = simulate_test_file(exp, file, options);
  for (const auto& [a, b] : {std::pair{&free.sa, &budgeted.sa},
                             std::pair{&free.br, &budgeted.br}}) {
    EXPECT_TRUE(b->sim.complete);
    EXPECT_EQ(a->sim.detected_by, b->sim.detected_by);
    EXPECT_EQ(a->sim.test_effective, b->sim.test_effective);
    EXPECT_EQ(a->effective_tests.size(), b->effective_tests.size());
    for (std::size_t i = 0; i < a->effective_tests.size(); ++i) {
      EXPECT_EQ(a->effective_tests.tests[i].init_state,
                b->effective_tests.tests[i].init_state);
      EXPECT_EQ(a->effective_tests.tests[i].inputs,
                b->effective_tests.tests[i].inputs);
    }
  }
}

// --- Site discovery (what the fuzz harness replays against) ---------------

TEST_F(RobustPipelineTest, PipelineRunDiscoversAllGuardSites) {
  clear_guard_site_log();
  CircuitExperiment exp = run_circuit("lion");
  run_gate_level(exp, false);
  std::vector<FaultSpec> faults = enumerate_stuck_at(exp.synth.circuit.comb);
  podem(exp.synth.circuit, faults.front());
  distinguishing_sequence(exp.table, 0, 1);
  forward_reachability(exp.synth.circuit.comb);

  const std::vector<std::string>& seen = guard_sites_seen();
  for (const char* site :
       {"uio.search", "transfer.bfs", "distinguishing.bfs", "podem.run",
        "fault_sim.batch", "bridging.pairs", "reach.forward"}) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), site), seen.end())
        << "guard site " << site << " never constructed";
  }
}

}  // namespace
}  // namespace fstg
