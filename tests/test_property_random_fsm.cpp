// Parameterized whole-pipeline property sweep over deterministic random
// machines: for each seed we build a fresh synthetic FSM, run synthesis,
// UIO derivation, and test generation, and check the invariants that the
// paper's construction guarantees *for any machine*.

#include <gtest/gtest.h>

#include "atpg/coverage.h"
#include "atpg/cycles.h"
#include "atpg/per_transition.h"
#include "fault/fault.h"
#include "harness/experiment.h"
#include "seq/uio.h"

namespace fstg {
namespace {

struct SweepParam {
  int seed;
  int pi;
  int states;
  int outputs;
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  return "seed" + std::to_string(info.param.seed) + "_pi" +
         std::to_string(info.param.pi) + "_s" +
         std::to_string(info.param.states) + "_o" +
         std::to_string(info.param.outputs);
}

class RandomFsmPipeline : public ::testing::TestWithParam<SweepParam> {
 protected:
  Kiss2Fsm make_fsm() const {
    const SweepParam& p = GetParam();
    return make_synthetic_fsm("sweep-" + std::to_string(p.seed), p.pi,
                              p.states, p.outputs);
  }
};

TEST_P(RandomFsmPipeline, SynthesisAgreesWithSpecification) {
  Kiss2Fsm fsm = make_fsm();
  SynthesisResult r = synthesize_scan_circuit(fsm);
  std::string msg;
  EXPECT_TRUE(
      circuit_matches_fsm(read_back_table(r.circuit), fsm, r.encoding, &msg))
      << msg;
}

TEST_P(RandomFsmPipeline, UiosVerifyAndRespectBounds) {
  CircuitExperiment exp = run_fsm(make_fsm());
  for (int s = 0; s < exp.table.num_states(); ++s) {
    const UioSequence& u = exp.gen.uios.of(s);
    if (!u.exists) continue;
    EXPECT_TRUE(verify_uio(exp.table, s, u.inputs)) << "state " << s;
    EXPECT_LE(u.length(), exp.table.state_bits());
    EXPECT_EQ(exp.table.run(s, u.inputs), u.final_state);
  }
}

TEST_P(RandomFsmPipeline, EveryTransitionTestedExactlyOnce) {
  CircuitExperiment exp = run_fsm(make_fsm());
  exp.gen.tests.validate(exp.table);
  ASSERT_EQ(exp.gen.tested_by.size(), exp.table.num_transitions());
  for (int owner : exp.gen.tested_by) {
    EXPECT_GE(owner, 0);
    EXPECT_LT(static_cast<std::size_t>(owner), exp.gen.tests.size());
  }
}

TEST_P(RandomFsmPipeline, ChainedNeverWorseThanPerTransitionTests) {
  CircuitExperiment exp = run_fsm(make_fsm());
  EXPECT_LE(exp.gen.tests.size(), exp.table.num_transitions());
}

TEST_P(RandomFsmPipeline, StuckAtDetectableCoverageIsComplete) {
  CircuitExperiment exp = run_fsm(make_fsm());
  const std::vector<FaultSpec> faults =
      enumerate_stuck_at(exp.synth.circuit.comb);
  RedundancyResult r =
      classify_faults(exp.synth.circuit, exp.gen.tests, faults);
  // The paper's headline: every *detectable* stuck-at fault is detected.
  EXPECT_EQ(r.missed_detectable, 0u);
  EXPECT_DOUBLE_EQ(r.detectable_coverage_percent(), 100.0);
}

TEST_P(RandomFsmPipeline, MultilevelImplementationAlsoFullyCovered) {
  // The paper's implementation-independence claim on random machines: the
  // multi-level, Gray-encoded implementation of the same table is also
  // completely covered (its own tests, its own fault list).
  ExperimentOptions options;
  options.synth.multilevel = true;
  options.synth.max_fanin = 3;
  options.synth.encoding = EncodingStyle::kGray;
  CircuitExperiment exp = run_fsm(make_fsm(), options);
  const std::vector<FaultSpec> faults =
      enumerate_stuck_at(exp.synth.circuit.comb);
  RedundancyResult r =
      classify_faults(exp.synth.circuit, exp.gen.tests, faults);
  EXPECT_EQ(r.missed_detectable, 0u);
}

TEST_P(RandomFsmPipeline, PerTransitionTestsDetectAllStFaults) {
  CircuitExperiment exp = run_fsm(make_fsm());
  if (exp.table.num_transitions() > 64) return;  // keep the sweep fast
  const std::vector<StFault> faults = enumerate_st_faults(exp.table);
  StCoverageResult r = simulate_st_faults(
      exp.table, per_transition_tests(exp.table), faults);
  EXPECT_EQ(r.detected, r.total);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomFsmPipeline,
    ::testing::Values(SweepParam{1, 2, 4, 1}, SweepParam{2, 2, 5, 2},
                      SweepParam{3, 3, 6, 3}, SweepParam{4, 3, 8, 2},
                      SweepParam{5, 4, 7, 4}, SweepParam{6, 4, 12, 2},
                      SweepParam{7, 5, 10, 3}, SweepParam{8, 2, 16, 1},
                      SweepParam{9, 1, 6, 2}, SweepParam{10, 6, 9, 5}),
    param_name);

}  // namespace
}  // namespace fstg
