#include "fault/nonscan_sim.h"

#include <tuple>

namespace fstg {

namespace {

/// Load (inputs, state) into the simulator, all 64 lanes identical; the
/// word-parallel machinery is reused in scalar mode for simplicity — the
/// non-scan baseline runs on light circuits only.
void load(LogicSim& sim, const ScanCircuit& circuit, std::uint32_t ic,
          std::uint32_t state) {
  for (int b = 0; b < circuit.num_pi; ++b)
    sim.set_input(b, (ic >> b) & 1u ? ~Word{0} : Word{0});
  for (int k = 0; k < circuit.num_sv; ++k)
    sim.set_input(circuit.num_pi + k, (state >> k) & 1u ? ~Word{0} : Word{0});
}

/// Lane 0's primary outputs and next state, where `out(k)` is the lane word
/// of circuit output k.
template <class Out>
std::pair<std::uint32_t, std::uint32_t> po_and_next_state(
    const ScanCircuit& circuit, const Out& out) {
  std::uint32_t po = 0;
  std::uint32_t ns = 0;
  for (int k = 0; k < circuit.num_po; ++k)
    if (out(k) & 1u) po |= 1u << k;
  for (int k = 0; k < circuit.num_sv; ++k)
    if (out(circuit.num_po + k) & 1u) ns |= 1u << k;
  return {po, ns};
}

}  // namespace

NonScanSimResult simulate_faults_nonscan(
    const ScanCircuit& circuit, std::uint32_t reset_code,
    const std::vector<std::uint32_t>& sequence,
    const std::vector<FaultSpec>& faults) {
  NonScanSimResult result;
  result.total_faults = faults.size();
  result.detected.assign(faults.size(), false);

  // Fault-free reference: per-cycle PO words, entering states and gate
  // values (the base rows of the overlay).
  LogicSim sim(circuit.comb);
  const auto full = [&sim](int k) { return sim.output(k); };
  std::vector<std::uint32_t> good_po(sequence.size());
  std::vector<std::uint32_t> good_state(sequence.size());
  std::vector<std::vector<Word>> good_values(sequence.size());
  std::uint32_t state = reset_code;
  for (std::size_t c = 0; c < sequence.size(); ++c) {
    good_state[c] = state;
    load(sim, circuit, sequence[c], state);
    sim.run();
    good_values[c] = sim.values();
    std::tie(good_po[c], state) = po_and_next_state(circuit, full);
  }

  for (std::size_t f = 0; f < faults.size(); ++f) {
    std::uint32_t fs = reset_code;
    for (std::size_t c = 0; c < sequence.size(); ++c) {
      std::uint32_t po = 0;
      if (fs == good_state[c]) {
        // The faulty machine is in the good state: propagate the fault
        // event-driven over the stored good row.
        const Word* base = good_values[c].data();
        sim.run_cone_overlay(faults[f], base);
        std::tie(po, fs) = po_and_next_state(
            circuit, [&](int k) { return sim.overlay_output(k, base); });
      } else {
        load(sim, circuit, sequence[c], fs);
        sim.run(faults[f]);
        std::tie(po, fs) = po_and_next_state(circuit, full);
      }
      if (po != good_po[c]) {
        result.detected[f] = true;
        ++result.detected_faults;
        break;
      }
    }
    // No scan-out: a final-state difference alone goes unobserved.
  }
  return result;
}

}  // namespace fstg
