#include "sim/read_back.h"

#include <algorithm>

#include "base/error.h"
#include "base/string_util.h"
#include "sim/logic_sim.h"

namespace fstg {

StateTable read_back_table(const ScanCircuit& circuit, const Kiss2Fsm* fsm,
                           const Encoding* enc) {
  const int num_states = 1 << circuit.num_sv;
  StateTable table(circuit.num_pi, circuit.num_po, num_states);
  table.name = circuit.name;
  table.state_names.resize(static_cast<std::size_t>(num_states));
  for (int code = 0; code < num_states; ++code) {
    int sym = (enc != nullptr) ? enc->state_of_code[static_cast<std::size_t>(code)] : -1;
    table.state_names[static_cast<std::size_t>(code)] =
        (sym >= 0 && fsm != nullptr)
            ? fsm->state_names[static_cast<std::size_t>(sym)]
            : "c" + std::to_string(code);
  }

  // Minterm m = (state code << num_pi) | input combination, which is also
  // the table's row-major index. Lane l of one pass evaluates minterm
  // m0 + l, so input i's lane word is bit i of the indices m0..m0+63 (the
  // same input numbering ScanCircuit::step uses).
  const std::uint32_t nic = table.num_input_combos();
  const std::uint64_t minterms = std::uint64_t{nic} << circuit.num_sv;
  LogicSim sim(circuit.comb);
  for (std::uint64_t m0 = 0; m0 < minterms; m0 += kWordBits) {
    for (int i = 0; i < circuit.comb.num_inputs(); ++i) {
      Word lanes = 0;
      for (int l = 0; l < kWordBits; ++l)
        lanes |= (((m0 + static_cast<std::uint64_t>(l)) >> i) & 1u) << l;
      sim.set_input(i, lanes);
    }
    sim.run();
    const int count =
        static_cast<int>(std::min<std::uint64_t>(kWordBits, minterms - m0));
    for (int l = 0; l < count; ++l) {
      std::uint32_t po = 0, ns = 0;
      for (int k = 0; k < circuit.num_po; ++k)
        po |= static_cast<std::uint32_t>((sim.output(k) >> l) & 1u) << k;
      for (int k = 0; k < circuit.num_sv; ++k)
        ns |= static_cast<std::uint32_t>(
                  (sim.output(circuit.num_po + k) >> l) & 1u)
              << k;
      const std::uint64_t m = m0 + static_cast<std::uint64_t>(l);
      table.set(static_cast<int>(m / nic), static_cast<std::uint32_t>(m % nic),
                static_cast<int>(ns), po);
    }
  }
  return table;
}

bool circuit_matches_fsm(const StateTable& table, const Kiss2Fsm& fsm,
                         const Encoding& enc, std::string* message) {
  require(table.input_bits() == fsm.num_inputs &&
              table.output_bits() == fsm.num_outputs,
          "read-back table does not have the machine's input/output width");
  const int pi = fsm.num_inputs;
  for (const auto& row : fsm.rows) {
    const std::uint32_t ps_code =
        enc.code_of_state[static_cast<std::size_t>(fsm.state_index(row.present))];
    const std::uint32_t ns_code =
        enc.code_of_state[static_cast<std::size_t>(fsm.state_index(row.next))];

    // Enumerate the row's input minterms (field characters are MSB-first).
    std::uint32_t value = 0;
    std::vector<int> free_bits;
    for (int b = 0; b < pi; ++b) {
      char c = row.input[static_cast<std::size_t>(pi - 1 - b)];
      if (c == '-')
        free_bits.push_back(b);
      else if (c == '1')
        value |= 1u << b;
    }
    const std::uint32_t n_free = 1u << free_bits.size();
    for (std::uint32_t m = 0; m < n_free; ++m) {
      std::uint32_t ic = value;
      for (std::size_t k = 0; k < free_bits.size(); ++k)
        if ((m >> k) & 1u) ic |= 1u << free_bits[k];

      const std::uint32_t po = table.output(static_cast<int>(ps_code), ic);
      const std::uint32_t ns =
          static_cast<std::uint32_t>(table.next(static_cast<int>(ps_code), ic));
      if (ns != ns_code) {
        if (message)
          *message = strf("state %s input %u: next code %u, expected %u",
                          row.present.c_str(), ic, ns, ns_code);
        return false;
      }
      for (int b = 0; b < fsm.num_outputs; ++b) {
        char expect =
            row.output[static_cast<std::size_t>(fsm.num_outputs - 1 - b)];
        if (expect == '-') continue;
        bool bit = (po >> b) & 1u;
        if (bit != (expect == '1')) {
          if (message)
            *message = strf("state %s input %u: output bit %d is %d, expected %c",
                            row.present.c_str(), ic, b, bit ? 1 : 0, expect);
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace fstg
