#include "sim/scan_sim.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "base/error.h"
#include "fault/fault_sim.h"
#include "harness/experiment.h"
#include "netlist/cones.h"

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

/// Build the excitation index of `batch` and check it against its
/// definition on every two-valued cycle c: bit c of exc_obs1[g] (exc_obs0)
/// is set exactly when stuck-at-0 (stuck-at-1) at g, run through the
/// overlay on row c, changes g's FFR head in some active lane, and bit c of
/// exc_pin_obs1[e] (exc_pin_obs0) likewise for the stuck-at pin fault of
/// fanin entry e. Counts the cycles checked into `checked`.
void expect_index_matches_definition(const ScanCircuit& circuit,
                                     std::span<const ScanPattern> batch,
                                     std::size_t& checked) {
  ScanBatchSim sim(circuit);
  GoodTrace good = sim.run_good(batch);
  ScanBatchSim* const slot = &sim;
  ScanBatchSim::build_excitation_index(good, {&slot, 1});
  const Netlist& nl = circuit.comb;
  const std::vector<int> head = fanout_free_cones(nl).head;
  const std::size_t n = static_cast<std::size_t>(nl.num_gates());
  const std::size_t entries = good.exc_pin_base.back();
  LogicSim overlay(nl);
  for (std::size_t c = 0; c < good.active.size(); ++c) {
    if (good.cycle_has_x(c)) continue;
    ++checked;
    const Word* row = good.gate_values[c].data();
    const Word active = good.active[c];
    const std::size_t w = c >> 6;
    const auto bit = [&](const std::vector<std::uint64_t>& bits,
                         std::size_t at) {
      return ((bits[at] >> (c & 63)) & 1u) != 0;
    };
    const auto head_changes = [&](const FaultSpec& fault) {
      overlay.run_cone_overlay(fault, row);
      const int h = head[static_cast<std::size_t>(fault.gate)];
      return ((overlay.overlay_value(h, row) ^ row[h]) & active) != 0;
    };
    for (std::size_t g = 0; g < n; ++g) {
      const int gi = static_cast<int>(g);
      ASSERT_EQ(bit(good.exc_obs1, w * n + g),
                head_changes(FaultSpec::stuck_gate(gi, false)))
          << "cycle " << c << " gate " << g;
      ASSERT_EQ(bit(good.exc_obs0, w * n + g),
                head_changes(FaultSpec::stuck_gate(gi, true)))
          << "cycle " << c << " gate " << g;
      const std::size_t pins = nl.gate(gi).fanins.size();
      for (std::size_t p = 0; p < pins; ++p) {
        const std::size_t e = good.exc_pin_base[g] + p;
        const int pi = static_cast<int>(p);
        ASSERT_EQ(bit(good.exc_pin_obs1, w * entries + e),
                  head_changes(FaultSpec::stuck_pin(gi, pi, false)))
            << "cycle " << c << " gate " << g << " pin " << p;
        ASSERT_EQ(bit(good.exc_pin_obs0, w * entries + e),
                  head_changes(FaultSpec::stuck_pin(gi, pi, true)))
            << "cycle " << c << " gate " << g << " pin " << p;
      }
    }
  }
}

TEST(ScanSim, ExcitationIndexMatchesDefinition) {
  // mark1's ORs have 11-32 fanins; keyb's first 64 tests fill one batch.
  for (const char* name : {"lion", "dk17", "mark1", "keyb"}) {
    SCOPED_TRACE(name);
    const CircuitExperiment exp = run_circuit(name);
    const std::vector<ScanPattern> patterns = to_scan_patterns(exp.gen.tests);
    const std::span<const ScanPattern> batch(
        patterns.data(), std::min<std::size_t>(patterns.size(), kWordBits));
    std::size_t checked = 0;
    expect_index_matches_definition(exp.synth.circuit, batch, checked);
    EXPECT_GT(checked, 0u);
  }
}

}  // namespace
}  // namespace fstg
