// Reproduces the paper's Table 6: coverage of gate-level stuck-at and
// non-feedback bridging faults by the functional tests, plus the number
// and total length of the *effective* tests (longest-first selection).
// The paper's headline claim — all detectable faults of both models are
// detected — is checked explicitly: every undetected fault is re-simulated
// under the exhaustive combinational test set and must prove undetectable
// (columns sa.cmpl / br.cmpl).
//
// Absolute fault counts differ from the paper (different synthesized
// implementations; bridging lists above 4096 faults are deterministically
// sampled — see DESIGN.md).

#include <iostream>

#include "base/table_printer.h"
#include "harness/paper_data.h"
#include "harness/tables.h"

int main() {
  using namespace fstg;
  std::vector<Table6Row> rows;
  for (const std::string& name : benchmark_names()) {
    CircuitExperiment exp = run_circuit(name);
    GateLevelResult gate = run_gate_level(exp, /*classify_redundancy=*/true);
    rows.push_back(compute_table6_row(exp, gate));
    std::cerr << name << " done\n";
  }

  std::cout << "== Table 6 (measured): simulation of gate-level faults ==\n";
  print_table6(rows, std::cout);

  std::cout << "\n== Table 6 (paper) ==\n";
  TablePrinter paper({"circuit", "sa.tsts", "sa.len", "sa.tot", "sa.det",
                      "sa.fc", "br.tsts", "br.len", "br.tot", "br.det",
                      "br.fc"});
  for (const auto& r : paper_table6())
    paper.add_row({r.circuit, std::to_string(r.sa_tests),
                   std::to_string(r.sa_len), std::to_string(r.sa_total),
                   std::to_string(r.sa_detected),
                   TablePrinter::num(r.sa_coverage),
                   std::to_string(r.br_tests), std::to_string(r.br_len),
                   std::to_string(r.br_total), std::to_string(r.br_detected),
                   TablePrinter::num(r.br_coverage)});
  paper.print(std::cout);

  // The reproduced claim: complete coverage of *detectable* faults.
  int incomplete = 0;
  for (const auto& r : rows)
    if (!r.sa_complete || !r.br_complete) ++incomplete;
  std::cout << "\ncircuits with incomplete detectable-fault coverage: "
            << incomplete << "\n";
  return incomplete == 0 ? 0 : 1;
}
