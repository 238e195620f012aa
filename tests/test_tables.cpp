#include "harness/tables.h"

#include <gtest/gtest.h>

#include <sstream>

namespace fstg {
namespace {

class LionTables : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    exp_ = new CircuitExperiment(run_circuit("lion"));
    gate_ = new GateLevelResult(run_gate_level(*exp_, true));
  }
  static void TearDownTestSuite() {
    delete gate_;
    delete exp_;
    exp_ = nullptr;
    gate_ = nullptr;
  }
  static CircuitExperiment* exp_;
  static GateLevelResult* gate_;
};
CircuitExperiment* LionTables::exp_ = nullptr;
GateLevelResult* LionTables::gate_ = nullptr;

TEST_F(LionTables, TableTwoRows) {
  std::vector<Table2Row> rows = compute_table2(*exp_);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].state, "st0");
  EXPECT_EQ(rows[0].sequence, "00");
  EXPECT_EQ(rows[0].final_state, "st0");
  EXPECT_FALSE(rows[1].has_uio);
  EXPECT_EQ(rows[1].sequence, "-");
  EXPECT_EQ(rows[2].sequence, "00 11");
  EXPECT_EQ(rows[2].final_state, "st3");
  std::ostringstream os;
  print_table2(rows, os);
  EXPECT_NE(os.str().find("00 11"), std::string::npos);
}

TEST_F(LionTables, TableThreeShape) {
  std::vector<Table3Row> rows = compute_table3(*exp_, *gate_);
  ASSERT_EQ(rows.size(), 9u);
  // Longest first.
  EXPECT_EQ(rows[0].length, 7);
  EXPECT_EQ(rows.back().length, 1);
  // Cumulative counts are monotone, final equals total detected.
  for (std::size_t i = 1; i < rows.size(); ++i)
    EXPECT_GE(rows[i].detected_cumulative, rows[i - 1].detected_cumulative);
  EXPECT_EQ(rows.back().detected_cumulative, gate_->sa.sim.detected_faults);
  // A test is effective iff its cumulative count increased.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t prev = i == 0 ? 0 : rows[i - 1].detected_cumulative;
    EXPECT_EQ(rows[i].effective, rows[i].detected_cumulative > prev) << i;
  }
}

TEST_F(LionTables, TableFourRow) {
  Table4Row row = compute_table4_row(*exp_);
  EXPECT_EQ(row.circuit, "lion");
  EXPECT_EQ(row.pi, 2);
  EXPECT_EQ(row.states, 4);
  EXPECT_EQ(row.unique, 2);
  EXPECT_EQ(row.sv, 2);
  EXPECT_EQ(row.mlen, 2);
}

TEST_F(LionTables, TableFiveRowMatchesPaperExactly) {
  Table5Row row = compute_table5_row(*exp_);
  EXPECT_EQ(row.trans, 16);
  EXPECT_EQ(row.tests, 9);
  EXPECT_EQ(row.len, 28);
  EXPECT_DOUBLE_EQ(row.onelen_percent, 25.0);
}

TEST_F(LionTables, TableSixRowClaims) {
  Table6Row row = compute_table6_row(*exp_, *gate_);
  EXPECT_DOUBLE_EQ(row.sa_coverage, 100.0);
  EXPECT_TRUE(row.sa_complete);
  EXPECT_TRUE(row.br_complete);  // misses proven undetectable
  EXPECT_EQ(row.sa_detected, row.sa_total);
}

TEST_F(LionTables, TableSevenRowMatchesPaperBaselines) {
  Table7Row row = compute_table7_row(*exp_, *gate_);
  EXPECT_EQ(row.trans_cycles, 50);
  EXPECT_EQ(row.funct_cycles, 48);
  EXPECT_DOUBLE_EQ(row.funct_percent, 96.0);
  EXPECT_LT(row.sa_percent, 100.0);
}

TEST(Tables, TableEightRow) {
  ExperimentOptions no_transfer;
  no_transfer.gen.transfer_max_length = 0;
  Table8Row row = compute_table8_row(run_circuit("shiftreg", no_transfer));
  EXPECT_EQ(row.trans, 16);
  // Paper: 67 cycles, 100.00% for shiftreg without transfers.
  EXPECT_EQ(row.cycles, 67);
  EXPECT_DOUBLE_EQ(row.percent, 100.0);
}

TEST(Tables, TableNineSweepProperties) {
  std::vector<Table9Row> rows = compute_table9("dk512");
  ASSERT_GE(rows.size(), 2u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].mlen, rows[i - 1].mlen + 1);
    // More UIOs never hurt chaining: test counts are non-increasing once
    // the bound grows (ties allowed).
    EXPECT_GE(rows[i].unique, rows[i - 1].unique);
  }
  // The sweep ends when the UIO count stops growing.
  if (rows.size() >= 2) {
    EXPECT_EQ(rows.back().unique, rows[rows.size() - 2].unique);
  }
}

}  // namespace
}  // namespace fstg
