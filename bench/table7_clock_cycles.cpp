// Reproduces the paper's Table 7: clock cycles for test application
// (N_SV*(N_T+1) + N_PIC) in four configurations — one test per transition,
// the functional tests, the stuck-at-effective subset, and the
// bridging-effective subset — with percentages against the per-transition
// baseline. The reproduced claims: functional tests cost at most about the
// same as per-transition application (~100% or less), and the effective
// subsets are drastically cheaper.

#include <iostream>

#include "base/table_printer.h"
#include "harness/paper_data.h"
#include "harness/tables.h"

int main() {
  using namespace fstg;
  std::vector<Table7Row> rows;
  for (const std::string& name : benchmark_names()) {
    CircuitExperiment exp = run_circuit(name);
    GateLevelResult gate = run_gate_level(exp, /*classify_redundancy=*/false);
    rows.push_back(compute_table7_row(exp, gate));
    std::cerr << name << " done\n";
  }

  std::cout << "== Table 7 (measured): numbers of clock cycles ==\n";
  print_table7(rows, std::cout);

  std::cout << "\n== Table 7 (paper) ==\n";
  TablePrinter paper({"circuit", "trans", "funct.cyc", "funct.%", "sa.cyc",
                      "sa.%", "bridg.cyc", "bridg.%"});
  double f = 0, s = 0, b = 0;
  for (const auto& r : paper_table7()) {
    paper.add_row({r.circuit, std::to_string(r.trans_cycles),
                   std::to_string(r.funct_cycles),
                   TablePrinter::num(r.funct_percent),
                   std::to_string(r.sa_cycles),
                   TablePrinter::num(r.sa_percent),
                   std::to_string(r.br_cycles),
                   TablePrinter::num(r.br_percent)});
    f += r.funct_percent;
    s += r.sa_percent;
    b += r.br_percent;
  }
  const double n = static_cast<double>(paper_table7().size());
  paper.add_row({"average", "", "", TablePrinter::num(f / n), "",
                 TablePrinter::num(s / n), "", TablePrinter::num(b / n)});
  paper.print(std::cout);

  // Shape: the per-transition baseline is fixed by pi/sv and must match
  // the paper exactly; effective subsets must be much cheaper than the
  // baseline.
  int bad = 0;
  for (const auto& r : rows) {
    const PaperTable7Row* p = find_paper_table7(r.circuit);
    if (p && p->trans_cycles != r.trans_cycles) ++bad;
    if (r.sa_percent > 100.0 || r.br_percent > 100.0) ++bad;
  }
  std::cout << "\nshape violations: " << bad << "\n";
  return bad == 0 ? 0 : 1;
}
