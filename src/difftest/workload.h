#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/test.h"
#include "base/rng.h"
#include "netlist/netlist.h"
#include "sim/logic_sim.h"

namespace fstg::difftest {

/// What a replayed corpus case asserts.
enum class CheckKind : std::uint8_t {
  /// Oracle: the fault-simulation engine at every thread count it runs and
  /// the scalar reference must agree on detection bitmaps, effective-test
  /// marks, fault-free responses, and thread-invariant work counters.
  kOracle,
  /// Static-compaction contract: compacting the workload's test set must
  /// preserve per-fault coverage (no detected fault may lose detection,
  /// even if the total count would stay equal).
  kCompaction,
  /// Static-redundancy contract: every untestable verdict from the
  /// fault-independent implication engine (analysis/static_faults.h) must
  /// agree with the exhaustive engine — a statically "proved" fault that
  /// any exhaustive test detects is an unsound proof — and faults the
  /// analyzer declares equivalent must be detected by the same tests.
  kStaticRedundancy,
};

/// A self-contained differential-testing workload: one synthesized (and
/// possibly observer-enriched) full-scan circuit, a mixed fault list, and a
/// test set that may contain X-bearing vectors and degenerate shapes (zero
/// tests, empty input sequences, single-cycle tests). Faults reference the
/// netlist's gate ids directly, which is why corpus case files serialize
/// the netlist itself (see case_io.h) instead of round-tripping through
/// BLIF, which renumbers gates.
struct Workload {
  std::uint64_t seed = 0;
  std::string name;
  CheckKind check = CheckKind::kOracle;
  ScanCircuit circuit;
  std::vector<FaultSpec> faults;
  TestSet tests;
};

/// Deterministic workload generator: same seed, same workload. Dimensions,
/// synthesis options, observer enrichment, fault mix (stuck stems, stuck
/// pins, non-feedback bridges), and test shapes are all drawn from the
/// seed, biased toward the shapes that have historically broken engines:
/// n-ary XOR/XNOR observers (some with duplicated fanins), wide AND, NAND,
/// OR and NOR observers, X-heavy and all-X vectors, zero-test and one-cycle
/// tests, and a long two-valued test 0 that the engine runs time-sliced.
Workload generate_workload(std::uint64_t seed);

/// Append `count` random XOR/XNOR observer gates over existing nets and,
/// with `wide`, one AND, NAND, OR or NOR observer of 9-12 fanins drawn
/// mostly from 2-4 drivers (a wide gate, kWideFanins; the netlist's last
/// gate), as extra primary outputs (rebuilds the netlist so the output
/// order stays [primary outputs][next-state]; original gate ids are
/// preserved). Observers deepen reconvergent fan-out and, with deliberate
/// duplicated fanins, exercise per-pin stuck-at semantics and the wide
/// gates' O(1) update.
void append_observers(ScanCircuit& circuit, Rng& rng, int count,
                      bool wide = false);

}  // namespace fstg::difftest
