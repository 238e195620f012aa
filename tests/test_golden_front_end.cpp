// Golden front-end digests: for every one of the 31 circuits, the XXH64 of
// the synthesized netlist's BLIF and of the test file `fstg gen` writes
// must equal the line committed in tests/golden/front_end.digests. A
// speed-up of synthesis or chaining that changes a single byte of either
// fails here. On a mismatch the test prints the whole file as the current
// code computes it; a deliberate change replaces the committed file with
// that text.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "base/store/hash.h"
#include "harness/experiment.h"
#include "netlist/export.h"

namespace fstg {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(GoldenFrontEnd, NetlistsAndTestFilesMatchCommittedDigests) {
  std::ostringstream computed;
  for (const std::string& name : benchmark_names()) {
    const CircuitExperiment exp = run_circuit(name);
    computed << name << ' '
             << store::hash_hex(store::xxh64(to_blif(exp.synth.circuit)))
             << ' '
             << store::hash_hex(
                    store::xxh64(write_test_file(test_file_for(exp))))
             << '\n';
  }
  const std::string expected =
      read_file(FSTG_GOLDEN_DIR "/front_end.digests");
  EXPECT_EQ(expected, computed.str())
      << "front-end digests changed; the current code computes this "
         "tests/golden/front_end.digests:\n"
      << computed.str();
}

}  // namespace
}  // namespace fstg
