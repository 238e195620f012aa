// Golden gate-level detections: for every one of the 31 circuits, the
// XXH64 of the stuck-at and bridging `detected_by` and `test_effective`
// vectors must equal the line committed in tests/golden/gate_level.digests,
// so a change to the fault-simulation engine that moves a single detection
// or first-detecting test fails here. The same run checks the paper's
// claims on the full suite: Table 6's complete coverage of detectable
// faults and Table 7's effective subsets at or below the per-transition
// cycle count. On a digest mismatch the test prints the whole file as the
// current code computes it; a deliberate change replaces the committed
// file with that text.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "base/store/hash.h"
#include "harness/experiment.h"
#include "harness/tables.h"

namespace fstg {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string digest(const std::vector<int>& detected_by) {
  std::string text;
  for (int t : detected_by) text += std::to_string(t) + ' ';
  return store::hash_hex(store::xxh64(text));
}

std::string digest(const std::vector<bool>& test_effective) {
  std::string text;
  for (bool e : test_effective) text += e ? '1' : '0';
  return store::hash_hex(store::xxh64(text));
}

TEST(GoldenGateLevel, DetectionsMatchCommittedDigests) {
  std::ostringstream computed;
  for (const std::string& name : benchmark_names()) {
    SCOPED_TRACE(name);
    const CircuitExperiment exp = run_circuit(name);
    const GateLevelResult gate =
        run_gate_level(exp, /*classify_redundancy=*/true);
    computed << name << ' ' << digest(gate.sa.sim.detected_by) << ' '
             << digest(gate.sa.sim.test_effective) << ' '
             << digest(gate.br.sim.detected_by) << ' '
             << digest(gate.br.sim.test_effective) << '\n';
    const Table6Row t6 = compute_table6_row(exp, gate);
    EXPECT_TRUE(t6.sa_complete && t6.br_complete);
    const Table7Row t7 = compute_table7_row(exp, gate);
    EXPECT_LE(t7.sa_percent, 100.0);
    EXPECT_LE(t7.br_percent, 100.0);
  }
  const std::string expected =
      read_file(FSTG_GOLDEN_DIR "/gate_level.digests");
  EXPECT_EQ(expected, computed.str())
      << "gate-level digests changed; the current code computes this "
         "tests/golden/gate_level.digests:\n"
      << computed.str();
}

}  // namespace
}  // namespace fstg
