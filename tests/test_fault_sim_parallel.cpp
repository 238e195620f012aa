// Determinism lane for the parallel, event-driven fault-simulation engine:
// bit-identical results across thread counts, agreement with the scalar
// reference simulator, the same excitation index for any number of slots
// building it, and well-formed partial results when a shared budget guard
// trips mid-region.
// Runs under the tsan preset (`ctest --preset determinism`).

#include "fault/fault_sim.h"

#include <gtest/gtest.h>

#include <bit>
#include <memory>

#include "base/obs/metrics.h"
#include "base/parallel/thread_pool.h"
#include "base/rng.h"
#include "base/robust/budget.h"
#include "difftest/oracle.h"
#include "difftest/workload.h"
#include "fault/bridging.h"
#include "fault/fault.h"
#include "harness/experiment.h"
#include "netlist/reach.h"
#include "sim/scan_sim.h"

namespace fstg {
namespace {

/// Stuck-at + bridging fault list of one benchmark (the combination the
/// paper's Table 6 simulates; also large enough to cross the engine's
/// minimum-parallel-faults threshold).
std::vector<FaultSpec> all_faults(const ScanCircuit& circuit) {
  std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
  const std::vector<FaultSpec> bridges = enumerate_bridging(circuit.comb);
  faults.insert(faults.end(), bridges.begin(), bridges.end());
  return faults;
}

/// The batch shape chaining produces: the first `long_tests` tests run
/// `long_len` random vectors and the rest of the 64 one to four each, so
/// for most of the batch only the long lanes are active. One long
/// two-valued test is time-sliced by the engine; two keep the batch whole.
/// With `with_x`, input bit 0 of test 0 is X in one cycle two thirds of
/// the way in (an X state bit may then persist, so the cycles before it
/// stay clean), which also keeps the batch whole.
TestSet long_and_short_tests(const ScanCircuit& circuit, std::size_t long_len,
                             bool with_x, int long_tests = 1) {
  Rng rng(0x5eed);
  TestSet set;
  for (int t = 0; t < 64; ++t) {
    FunctionalTest test;
    test.init_state = static_cast<int>(rng.below(1u << circuit.num_sv));
    const std::size_t len = t < long_tests ? long_len : 1 + rng.below(4);
    for (std::size_t c = 0; c < len; ++c)
      test.inputs.push_back(
          static_cast<std::uint32_t>(rng.below(1u << circuit.num_pi)));
    if (with_x && t == 0) {
      test.input_x.assign(len, 0);
      test.input_x[len * 2 / 3] = 1;
    }
    set.tests.push_back(std::move(test));
  }
  return set;
}

void expect_same_result(const FaultSimResult& a, const FaultSimResult& b) {
  EXPECT_EQ(a.total_faults, b.total_faults);
  EXPECT_EQ(a.detected_faults, b.detected_faults);
  EXPECT_EQ(a.detected_by, b.detected_by);
  EXPECT_EQ(a.test_effective, b.test_effective);
  EXPECT_EQ(a.num_effective_tests(), b.num_effective_tests());
  EXPECT_EQ(a.complete, b.complete);
}

/// The lists run_gate_level simulates: every stuck-at fault and a sample
/// of at most 4,096 bridging faults.
std::vector<FaultSpec> gate_level_faults(const ScanCircuit& circuit) {
  std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
  const std::vector<FaultSpec> bridges =
      sample_bridging(enumerate_bridging(circuit.comb),
                      GateLevelOptions{}.max_bridging_faults);
  faults.insert(faults.end(), bridges.begin(), bridges.end());
  return faults;
}

/// How much counter `name` grew since `before` was taken.
std::uint64_t counter_delta(const obs::MetricsSnapshot& before,
                            const char* name) {
  return obs::snapshot_metrics().counter_value(name) -
         before.counter_value(name);
}

TEST(FaultSimParallel, BitIdenticalAcrossThreadCounts) {
  // cse's generated test 0 (3,442 cycles) is time-sliced into 54-cycle
  // segments, and some faults are continued past a diverged segment end.
  for (const char* name : {"bbara", "cse"}) {
    SCOPED_TRACE(name);
    CircuitExperiment exp = run_circuit(name);
    const ScanCircuit& circuit = exp.synth.circuit;
    const std::vector<FaultSpec> faults = all_faults(circuit);
    ASSERT_GE(faults.size(), 64u);  // must exercise the parallel path

    FaultSimOptions serial;
    serial.threads = 0;
    const FaultSimResult baseline =
        simulate_faults(circuit, exp.gen.tests, faults, serial);

    for (int threads : {1, 2, 8}) {
      FaultSimOptions options;
      options.threads = threads;
      const FaultSimResult r =
          simulate_faults(circuit, exp.gen.tests, faults, options);
      SCOPED_TRACE("threads=" + std::to_string(threads));
      expect_same_result(r, baseline);
    }
  }
}

TEST(FaultSimParallel, SlicedBatchMatchesReference) {
  // The chained test 0 of dk16 and of bbara is cut into 5-6-cycle
  // segments. Over their gate-level fault lists, 1,005 and 141 faults are
  // continued from a diverged segment end, and some are handed back to the
  // first pass where they re-converge. The oracle checks every detection
  // against the scalar reference, which never slices.
  for (const char* name : {"dk16", "bbara"}) {
    SCOPED_TRACE(name);
    CircuitExperiment exp = run_circuit(name);
    difftest::Workload w;
    w.name = name;
    w.circuit = exp.synth.circuit;
    w.faults = gate_level_faults(w.circuit);
    w.tests = exp.gen.tests;
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    const difftest::OracleReport report = difftest::run_oracle(w);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_GT(counter_delta(before, "fault_sim.sliced_tests"), 0u);
    EXPECT_GT(counter_delta(before, "fault_sim.continuations"), 0u);
    // Diverged cycles ran the word-loaded full evaluation.
    EXPECT_GT(counter_delta(before, "scan.cycles_full"), 0u);
  }
}

TEST(FaultSimParallel, EventDrivenMatchesReference) {
  CircuitExperiment exp = run_circuit("dk17");
  difftest::Workload w;
  w.name = "dk17";
  w.circuit = exp.synth.circuit;
  w.faults = all_faults(w.circuit);
  w.tests = exp.gen.tests;
  obs::MetricsSnapshot before = obs::snapshot_metrics();
  difftest::OracleReport report = difftest::run_oracle(w);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(counter_delta(before, "scan.cycles_full"), 0u);
  // Long tests among 63 short ones, short enough for the scalar reference
  // under TSan. One two-valued long test is time-sliced. The X-bearing one
  // and a pair of two-valued ones keep their batch whole: its index build
  // forks (576 cycles are 9 words, one per chunk), and only the active
  // lanes may make a tail cycle a candidate.
  struct Shape {
    const char* label;
    bool with_x;
    int long_tests;
  };
  for (const Shape& shape : {Shape{"sliced", false, 1},
                             Shape{"X-bearing", true, 1},
                             Shape{"two long", false, 2}}) {
    SCOPED_TRACE(shape.label);
    w.tests = long_and_short_tests(w.circuit, 576, shape.with_x,
                                   shape.long_tests);
    before = obs::snapshot_metrics();
    report = difftest::run_oracle(w);
    EXPECT_TRUE(report.ok()) << report.to_string();
    // Every shape runs diverged cycles through the word-loaded full
    // evaluation, the X-bearing one included.
    EXPECT_GT(counter_delta(before, "scan.cycles_full"), 0u);
  }
}

TEST(FaultSimParallel, ExcitationIndexIsTheSameForAnySlotCount) {
  const ScanCircuit circuit =
      synthesize_scan_circuit(load_benchmark("cse")).circuit;
  std::vector<std::unique_ptr<ScanBatchSim>> owned;
  std::vector<ScanBatchSim*> slots;
  for (int s = 0; s < 8; ++s) {
    owned.push_back(std::make_unique<ScanBatchSim>(circuit));
    slots.push_back(owned.back().get());
  }
  const std::span<ScanBatchSim* const> all(slots);
  // 64 tests of 335 cycles: every lane active for 6 words, the shape of a
  // time-sliced batch (rie's chained test cut into 64 segments).
  Rng rng(0x51ce);
  TestSet segments;
  for (int t = 0; t < 64; ++t) {
    FunctionalTest test;
    test.init_state = static_cast<int>(rng.below(1u << circuit.num_sv));
    for (int c = 0; c < 335; ++c)
      test.inputs.push_back(
          static_cast<std::uint32_t>(rng.below(1u << circuit.num_pi)));
    segments.tests.push_back(std::move(test));
  }
  struct Shape {
    const char* label;
    TestSet tests;
    bool with_x;
    std::size_t words;
  };
  // One word per chunk: over 2, 3 and 8 slots, 6 and 9 words give even
  // splits, uneven ones and slots left without a word; 71 words keep all
  // 8 slots busy.
  const Shape shapes[] = {
      {"64 lanes, 6 words", segments, false, 6},
      {"9 words", long_and_short_tests(circuit, 530, false), false, 9},
      {"two-valued, 71 words", long_and_short_tests(circuit, 4500, false),
       false, 71},
      {"X-bearing, 71 words", long_and_short_tests(circuit, 4500, true), true,
       71},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.label);
    const std::vector<ScanPattern> batch = to_scan_patterns(shape.tests);
    const GoodTrace base = slots[0]->run_good(batch);
    ASSERT_EQ(base.has_x, shape.with_x);
    GoodTrace serial = base;
    ScanBatchSim::build_excitation_index(serial, all.first(1));
    ASSERT_EQ(serial.exc_words, shape.words);
    if (shape.with_x) {
      // Both kinds of cycle inside the sweep: X cycles and clean ones.
      std::size_t x_cycles = 0;
      for (std::uint64_t w : serial.exc_x) x_cycles += std::popcount(w);
      EXPECT_GT(x_cycles, 0u);
      EXPECT_LT(x_cycles, base.active.size() / 2);
    }
    for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      GoodTrace good = base;
      ScanBatchSim::build_excitation_index(good, all.first(threads));
      EXPECT_TRUE(good.exc_built);
      EXPECT_EQ(good.exc_words, serial.exc_words);
      EXPECT_EQ(good.exc_any1, serial.exc_any1);
      EXPECT_EQ(good.exc_any0, serial.exc_any0);
      EXPECT_EQ(good.exc_obs1, serial.exc_obs1);
      EXPECT_EQ(good.exc_obs0, serial.exc_obs0);
      EXPECT_EQ(good.exc_pin_obs1, serial.exc_pin_obs1);
      EXPECT_EQ(good.exc_pin_obs0, serial.exc_pin_obs0);
      EXPECT_EQ(good.exc_pin_base, serial.exc_pin_base);
      EXPECT_EQ(good.exc_x, serial.exc_x);
    }
  }
}

TEST(FaultSimParallel, SharedReachabilityMatchesInternal) {
  CircuitExperiment exp = run_circuit("dk17");
  const ScanCircuit& circuit = exp.synth.circuit;
  const std::vector<FaultSpec> faults = all_faults(circuit);

  const std::vector<BitVec> reach = forward_reachability(circuit.comb);
  FaultSimOptions shared;
  shared.threads = 2;
  shared.reachability = &reach;
  expect_same_result(simulate_faults(circuit, exp.gen.tests, faults, shared),
                     simulate_faults(circuit, exp.gen.tests, faults, {}));
}

TEST(FaultSimParallel, BudgetExhaustedParallelRunIsWellFormedPartial) {
  CircuitExperiment exp = run_circuit("bbara");
  const ScanCircuit& circuit = exp.synth.circuit;
  const std::vector<FaultSpec> faults = all_faults(circuit);

  // Trip the shared guard mid-region deterministically: injected exhaustion
  // fires once the workers' combined tick count passes a third of the fault
  // list, whichever worker gets there first.
  robust::clear_budget_injections();
  robust::inject_budget_exhaustion("fault_sim.batch", faults.size() / 3);
  robust::RunGuard guard(robust::Budget{}, "fault_sim.batch");
  robust::clear_budget_injections();
  FaultSimOptions options;
  options.threads = 8;
  const FaultSimResult r =
      simulate_faults_guarded(circuit, exp.gen.tests, faults, guard, options);

  EXPECT_FALSE(r.complete);
  EXPECT_TRUE(guard.exhausted());

  // Partial soundness: every recorded detection is real and carries its
  // exact first-detecting test (check against a serial unbudgeted run).
  FaultSimOptions serial;
  serial.threads = 0;
  const FaultSimResult full =
      simulate_faults(circuit, exp.gen.tests, faults, serial);
  ASSERT_EQ(r.detected_by.size(), full.detected_by.size());
  std::size_t recorded = 0;
  for (std::size_t f = 0; f < r.detected_by.size(); ++f) {
    if (r.detected_by[f] < 0) continue;  // skipped or genuinely undetected
    EXPECT_EQ(r.detected_by[f], full.detected_by[f]) << f;
    ++recorded;
  }
  EXPECT_EQ(r.detected_faults, recorded);
  // Effectiveness marks only on tests recorded as first detectors.
  std::vector<bool> expected(exp.gen.tests.size(), false);
  for (int t : r.detected_by)
    if (t >= 0) expected[static_cast<std::size_t>(t)] = true;
  EXPECT_EQ(r.test_effective, expected);
}

TEST(FaultSimParallel, SuiteParallelMatchesSerial) {
  const std::vector<std::string> names = {"lion", "dk27", "dk17", "bbara"};
  SuiteOptions serial;
  serial.gate_level = true;
  serial.threads = 0;
  SuiteOptions parallel = serial;
  parallel.threads = 4;

  const SuiteResult a = run_circuit_suite(names, serial);
  const SuiteResult b = run_circuit_suite(names, parallel);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  EXPECT_EQ(a.failures(), 0u);
  EXPECT_EQ(b.failures(), 0u);
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    SCOPED_TRACE(names[i]);
    EXPECT_EQ(a.runs[i].name, b.runs[i].name);  // input order preserved
    EXPECT_EQ(a.runs[i].gate.sa.sim.detected_by,
              b.runs[i].gate.sa.sim.detected_by);
    EXPECT_EQ(a.runs[i].gate.br.sim.detected_by,
              b.runs[i].gate.br.sim.detected_by);
    EXPECT_EQ(a.runs[i].gate.sa.effective_tests.size(),
              b.runs[i].gate.sa.effective_tests.size());
    EXPECT_EQ(a.runs[i].exp.gen.tests.size(), b.runs[i].exp.gen.tests.size());
  }
}

TEST(FaultSimParallel, SuiteWorkersInheritInjections) {
  // Budget injections are thread-local; the parallel suite must carry the
  // coordinator's armed set into its pool workers, so an injected
  // fault-sim failure demotes circuits exactly as in the serial suite.
  robust::clear_budget_injections();
  robust::inject_budget_exhaustion("fault_sim.batch", 0);
  SuiteOptions options;
  options.gate_level = true;
  options.threads = 4;
  const SuiteResult result = run_circuit_suite({"lion", "dk27"}, options);
  robust::clear_budget_injections();

  ASSERT_EQ(result.runs.size(), 2u);
  for (const CircuitRun& run : result.runs) {
    SCOPED_TRACE(run.name);
    EXPECT_FALSE(run.status.is_ok());
    EXPECT_EQ(run.failed_stage, "gate-level");
    EXPECT_EQ(run.status.code(), robust::Code::kBudgetExhausted);
  }
}

}  // namespace
}  // namespace fstg
