#pragma once

#include <cstdint>
#include <vector>

#include "atpg/test.h"
#include "netlist/netlist.h"
#include "sim/logic_sim.h"

namespace fstg::difftest {

/// Independent scalar three-valued (0/1/X) reference simulator for the
/// differential-testing oracle. It shares NO code with the word-parallel
/// engine (sim/logic_sim, sim/scan_sim): one test at a time, one cycle at
/// a time, one gate at a time, values as a small enum. Slow and obviously
/// correct — its job is to catch the engine diverging from the
/// specification, which comparing the engine's runs with each other
/// cannot.
///
/// Semantics it pins down:
///  - pessimistic 0/1/X evaluation (controlling definite values win;
///    XOR/XNOR with any X input is X),
///  - per-PIN stuck-at forcing (a branch fault on a gate with duplicated
///    fanins forces only the named position),
///  - non-feedback bridges as wired-AND/OR of the raw fault-free line
///    values, with X resolved by definite controlling sides,
///  - detection only where faulty and fault-free responses are BOTH
///    defined and differ (primary outputs each cycle, scan-out at the
///    end), with first-detection attribution to the lowest test index.
enum class RV : std::uint8_t { k0, k1, kX };

/// Every gate's value after one evaluation of `nl` under `fault`, its
/// inputs set to `inputs` (one per netlist input): the scalar combinational
/// step the scan-level reference runs every cycle.
std::vector<RV> reference_eval(const Netlist& nl, const std::vector<RV>& inputs,
                               const FaultSpec& fault);

/// Fault-free response of one test: per-cycle primary-output values with
/// X masks, and the scanned-out final state.
struct RefTestTrace {
  std::vector<std::uint32_t> po;
  std::vector<std::uint32_t> po_x;
  std::uint32_t final_state = 0;
  std::uint32_t final_state_x = 0;
};

RefTestTrace reference_good_trace(const ScanCircuit& circuit,
                                  const FunctionalTest& test);

struct ReferenceResult {
  std::vector<int> detected_by;  ///< lowest detecting test index, -1 if none
  std::vector<bool> test_effective;
  std::size_t detected_faults = 0;
};

ReferenceResult reference_simulate(const ScanCircuit& circuit,
                                   const TestSet& tests,
                                   const std::vector<FaultSpec>& faults);

}  // namespace fstg::difftest
