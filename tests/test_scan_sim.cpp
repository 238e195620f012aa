#include "sim/scan_sim.h"

#include <gtest/gtest.h>

#include "base/error.h"
#include "fault/fault_sim.h"
#include "harness/experiment.h"

namespace fstg {
namespace {

class ScanSimLion : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    exp_ = new CircuitExperiment(run_circuit("lion"));
  }
  static void TearDownTestSuite() {
    delete exp_;
    exp_ = nullptr;
  }
  static CircuitExperiment* exp_;
};
CircuitExperiment* ScanSimLion::exp_ = nullptr;

TEST_F(ScanSimLion, GoodTraceMatchesStateTable) {
  const ScanCircuit& circuit = exp_->synth.circuit;
  ScanBatchSim sim(circuit);
  const std::vector<ScanPattern> batch = to_scan_patterns(exp_->gen.tests);
  const GoodTrace good = sim.run_good(batch);

  ASSERT_EQ(static_cast<std::size_t>(good.num_lanes), batch.size());
  for (std::size_t l = 0; l < batch.size(); ++l) {
    int state = static_cast<int>(batch[l].init_state);
    for (std::size_t c = 0; c < batch[l].inputs.size(); ++c) {
      ASSERT_TRUE((good.active[c] >> l) & 1u);
      const std::uint32_t expect_po =
          exp_->table.output(state, batch[l].inputs[c]);
      // The row's output gates hold the primary outputs.
      for (int k = 0; k < circuit.num_po; ++k) {
        const int g = circuit.comb.outputs()[static_cast<std::size_t>(k)];
        EXPECT_EQ((good.gate_values[c][static_cast<std::size_t>(g)] >> l) & 1u,
                  (expect_po >> k) & 1u);
      }
      // The row's state inputs hold the state entering the cycle.
      for (int k = 0; k < circuit.num_sv; ++k) {
        const int g = circuit.comb.inputs()[static_cast<std::size_t>(
            circuit.num_pi + k)];
        EXPECT_EQ((good.gate_values[c][static_cast<std::size_t>(g)] >> l) & 1u,
                  (static_cast<std::uint32_t>(state) >> k) & 1u);
      }
      state = exp_->table.next(state, batch[l].inputs[c]);
    }
    // Lane inactive after its pattern ends.
    for (std::size_t c = batch[l].inputs.size(); c < good.active.size(); ++c)
      EXPECT_FALSE((good.active[c] >> l) & 1u);
    EXPECT_EQ(lane_bits(good.final_state, static_cast<int>(l)),
              static_cast<std::uint32_t>(state));
  }
}

TEST_F(ScanSimLion, FaultFreeRunDetectsNothing) {
  ScanBatchSim sim(exp_->synth.circuit);
  const std::vector<ScanPattern> batch = to_scan_patterns(exp_->gen.tests);
  const GoodTrace good = sim.run_good(batch);
  EXPECT_EQ(sim.run_faulty(batch, good, FaultSpec::none()), Word{0});
}

/// Runs every stuck-at and bridging fault of `exp`'s circuit over its
/// generated tests as one batch, through the event-driven path (with the
/// fault's cone) and the full path (every cycle one word-loaded faulty
/// evaluation); both must name the same first detecting lane. Returns the
/// event-driven path's diverged cycles.
std::uint64_t expect_cone_and_full_paths_agree(const CircuitExperiment& exp) {
  const ScanCircuit& circuit = exp.synth.circuit;
  ScanBatchSim sim(circuit);
  const std::vector<ScanPattern> batch = to_scan_patterns(exp.gen.tests);
  const GoodTrace good = sim.run_good(batch);

  std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
  const std::vector<FaultSpec> bridges = enumerate_bridging(circuit.comb);
  faults.insert(faults.end(), bridges.begin(), bridges.end());
  const std::vector<std::vector<int>> cones =
      compute_fault_cones(circuit.comb, faults);

  std::uint64_t diverged = 0;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const std::uint64_t full_before = sim.stats().cycles_full;
    const Word with_cone = sim.run_faulty(batch, good, faults[f], &cones[f]);
    diverged += sim.stats().cycles_full - full_before;
    const Word without = sim.run_faulty(batch, good, faults[f]);
    // Early exits make higher lanes unreliable; the *lowest* detecting
    // lane (which is what simulate_faults consumes) must agree.
    const Word lowest_cone = with_cone & (~with_cone + 1);
    const Word lowest_full = without & (~without + 1);
    EXPECT_EQ(lowest_cone, lowest_full) << "fault " << f;
    if (lowest_cone != lowest_full) break;
  }
  return diverged;
}

TEST_F(ScanSimLion, ConeAndFullPathsAgreeOnEveryFault) {
  expect_cone_and_full_paths_agree(*exp_);
  // dk16's 42 generated tests make one batch whose long chained test
  // diverges under many faults, so the event-driven path runs diverged
  // cycles too.
  const CircuitExperiment dk16 = run_circuit("dk16");
  ASSERT_EQ(dk16.gen.tests.size(), 42u);
  EXPECT_GT(expect_cone_and_full_paths_agree(dk16), 0u);
}

TEST(ScanSim, BatchSizeValidation) {
  CircuitExperiment exp = run_circuit("lion");
  ScanBatchSim sim(exp.synth.circuit);
  EXPECT_THROW(sim.run_good({}), Error);
  std::vector<ScanPattern> too_many(65, ScanPattern{0, {0}, {}});
  EXPECT_THROW(sim.run_good(too_many), Error);
}

TEST(ScanSim, SingleLaneStuckFaultDetection) {
  CircuitExperiment exp = run_circuit("lion");
  const ScanCircuit& circuit = exp.synth.circuit;
  ScanBatchSim sim(circuit);
  // Scan test exercising a known transition; stuck-at-1 on the primary
  // output gate must be caught whenever the good output is 0.
  const int po_gate = circuit.comb.outputs()[0];
  const std::vector<ScanPattern> batch = {{0, {0}, {}}};  // st0 --00--> out 0
  const GoodTrace good = sim.run_good(batch);
  EXPECT_EQ(sim.run_faulty(batch, good, FaultSpec::stuck_gate(po_gate, true)),
            Word{1});
}

}  // namespace
}  // namespace fstg
