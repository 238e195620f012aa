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
  const FaultSimResult r = simulate_faults(
      exp_->synth.circuit, exp_->gen.tests, {FaultSpec::none()});
  EXPECT_EQ(r.detected_by, std::vector<int>{-1});
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
  // Scan test exercising a known transition; stuck-at-1 on the primary
  // output gate must be caught whenever the good output is 0.
  const int po_gate = circuit.comb.outputs()[0];
  TestSet one;
  one.tests.push_back({0, {0}, -1, {}});  // st0 --00--> out 0
  const FaultSimResult r =
      simulate_faults(circuit, one, {FaultSpec::stuck_gate(po_gate, true)});
  EXPECT_EQ(r.detected_by, std::vector<int>{0});
}

/// A fault is overlaid only in a cycle where its site deviates in a lane
/// it still tracks. Over one input and a state variable that keeps its
/// value, stuck-at-0 on the primary output BUF(input) deviates exactly in
/// the lanes whose input is 1.
TEST(ScanSim, OverlaySkipsUntrackedLanes) {
  ScanCircuit circuit;
  Netlist& nl = circuit.comb;
  const int in = nl.add_input("i");
  const int state = nl.add_input("s");
  const int po = nl.add_gate(GateType::kBuf, {in});
  nl.add_output(po);
  nl.add_output(nl.add_gate(GateType::kBuf, {state}));
  circuit.num_pi = 1;
  circuit.num_po = 1;
  circuit.num_sv = 1;
  // Lane 0 applies 0 for 8 cycles and never excites the fault; lane 1
  // applies 1, detects it in cycle 0 and keeps exciting it.
  const std::vector<ScanPattern> batch = {
      {0, std::vector<std::uint32_t>(8, 0), {}},
      {0, std::vector<std::uint32_t>(8, 1), {}}};
  const FaultSpec fault = FaultSpec::stuck_gate(po, false);
  ScanBatchSim sim(circuit);
  const GoodTrace good = sim.run_good(batch);
  FaultJob job{&fault};
  sim.run_faulty(batch, good, {&job, 1});
  EXPECT_EQ(job.detected, Word{0b10});
  // After cycle 0 only lane 0 is tracked, and it excites nothing: one
  // overlay, and the other 7 cycles skipped.
  EXPECT_EQ(sim.sim_stats().overlay_calls, 1u);
  EXPECT_EQ(sim.stats().cycles_overlay, 1u);
  EXPECT_EQ(sim.stats().cycles_skipped, 7u);
}

}  // namespace
}  // namespace fstg
