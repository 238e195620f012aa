// Cross-module integration checks on real benchmark circuits: the paper's
// three headline claims, verified end to end on a spread of machines.

#include <gtest/gtest.h>

#include "atpg/cycles.h"
#include "harness/experiment.h"
#include "harness/tables.h"

namespace fstg {
namespace {

class BenchmarkClaims : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkClaims, DetectableCoverageOfBothModelsIsComplete) {
  CircuitExperiment exp = run_circuit(GetParam());
  GateLevelResult gate = run_gate_level(exp, /*classify_redundancy=*/true);
  // Claim 1 (Table 6): all detectable stuck-at AND bridging faults are
  // detected by the functional tests.
  EXPECT_EQ(gate.sa_redundancy.missed_detectable, 0u);
  EXPECT_EQ(gate.br_redundancy.missed_detectable, 0u);
}

TEST_P(BenchmarkClaims, EffectiveSubsetsAreMuchCheaper) {
  CircuitExperiment exp = run_circuit(GetParam());
  GateLevelResult gate = run_gate_level(exp, /*classify_redundancy=*/false);
  const int sv = exp.synth.circuit.num_sv;
  const std::size_t base =
      per_transition_cycles(sv, exp.table.num_transitions());
  // Claim 2 (Table 7): effective subsets cost well below the baseline.
  EXPECT_LT(test_application_cycles(sv, gate.sa.effective_tests), base);
  EXPECT_LT(test_application_cycles(sv, gate.br.effective_tests), base);
}

TEST_P(BenchmarkClaims, ChainingTestsMultipleTransitions) {
  CircuitExperiment exp = run_circuit(GetParam());
  // Claim 3 (Table 5): strictly fewer tests than transitions, i.e. some
  // tests cover several transitions.
  EXPECT_LT(exp.gen.tests.size(), exp.table.num_transitions());
}

INSTANTIATE_TEST_SUITE_P(Circuits, BenchmarkClaims,
                         ::testing::Values("lion", "dk17", "beecount",
                                           "ex5", "dk512", "shiftreg"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

TEST(Integration, ShiftregMatchesPaperTableFiveExactly) {
  // shiftreg is derived from its published definition, and the paper's
  // Table 5 row is reproduced exactly: 13 tests of total length 27.
  CircuitExperiment exp = run_circuit("shiftreg");
  Table5Row row = compute_table5_row(exp);
  EXPECT_EQ(row.trans, 16);
  EXPECT_EQ(row.tests, 13);
  EXPECT_EQ(row.len, 27);
  EXPECT_DOUBLE_EQ(row.onelen_percent, 75.0);
}

TEST(Integration, Table8SelectionRuleFindsShiftreg) {
  // shiftreg is one of the paper's Table 8 subjects because its functional
  // tests exceed the per-transition cycle count (102.99% in the paper).
  CircuitExperiment exp = run_circuit("shiftreg");
  const int sv = exp.synth.circuit.num_sv;
  const double percent =
      100.0 *
      static_cast<double>(test_application_cycles(sv, exp.gen.tests)) /
      static_cast<double>(
          per_transition_cycles(sv, exp.table.num_transitions()));
  EXPECT_GE(percent, 100.0);
}

TEST(Integration, NoTransferNeverExceedsBaselineOnTable8Subjects) {
  ExperimentOptions no_transfer;
  no_transfer.gen.transfer_max_length = 0;
  for (const char* name : {"bbtas", "dk15", "dk27", "shiftreg"}) {
    SCOPED_TRACE(name);
    Table8Row row = compute_table8_row(run_circuit(name, no_transfer));
    EXPECT_LE(row.percent, 100.0);
  }
}

}  // namespace
}  // namespace fstg
