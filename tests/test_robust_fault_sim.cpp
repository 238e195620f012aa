// Fault simulation over the difftest workload generator's adversarial
// shapes (all fault kinds, X-heavy and X-free vectors, observer-enriched
// reconvergence), checked by the oracle: the engine at 1, 2 and 8 threads
// against the scalar reference simulator. Part of the robust lane, so the
// asan and ubsan presets run it too.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "difftest/oracle.h"
#include "difftest/workload.h"
#include "fault/sim_width.h"

namespace fstg {
namespace {

TEST(SimdWidth, CpuFeaturesStringIsWellFormed) {
  EXPECT_FALSE(cpu_features().empty());
}

TEST(FaultSimOracle, GeneratedWorkloadsMatchReference) {
  for (std::uint64_t seed : {2u, 11u, 29u, 57u, 83u, 124u}) {
    const difftest::Workload w = difftest::generate_workload(seed);
    const difftest::OracleReport report = difftest::run_oracle(w);
    EXPECT_TRUE(report.ok()) << w.name << "\n" << report.to_string();
  }
}

}  // namespace
}  // namespace fstg
