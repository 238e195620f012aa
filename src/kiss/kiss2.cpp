#include "kiss/kiss2.h"

#include <cstdint>

#include "base/error.h"

namespace fstg {

namespace {

/// Do two {0,1,-} patterns agree wherever both are specified? For input
/// cubes that means they share a minterm; for output patterns, that no bit
/// is 0 in one and 1 in the other.
bool patterns_compatible(const std::string& a, const std::string& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != '-' && b[i] != '-' && a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

bool rows_conflict(const Kiss2Row& a, const Kiss2Row& b) {
  return a.present == b.present && patterns_compatible(a.input, b.input) &&
         (a.next != b.next || !patterns_compatible(a.output, b.output));
}

int Kiss2Fsm::state_index(const std::string& state) const {
  for (std::size_t i = 0; i < state_names.size(); ++i)
    if (state_names[i] == state) return static_cast<int>(i);
  return -1;
}

int Kiss2Fsm::intern_state(const std::string& state) {
  int idx = state_index(state);
  if (idx >= 0) return idx;
  state_names.push_back(state);
  return static_cast<int>(state_names.size()) - 1;
}

void Kiss2Fsm::check_deterministic() const {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = i + 1; j < rows.size(); ++j) {
      const Kiss2Row& a = rows[i];
      const Kiss2Row& b = rows[j];
      if (rows_conflict(a, b)) {
        throw Error("nondeterministic rows for state " + a.present +
                    ": inputs " + a.input + " and " + b.input + " overlap");
      }
    }
  }
}

bool Kiss2Fsm::completely_specified() const {
  if (num_inputs > 20) throw Error("completely_specified: too many inputs");
  const std::uint32_t nic = 1u << num_inputs;
  for (const auto& state : state_names) {
    // Count minterms covered by this state's rows; rows are deterministic,
    // so overlaps are consistent, but for coverage we need the union size.
    // With few rows per state, inclusion-exclusion is overkill: mark bits.
    std::vector<bool> covered(nic, false);
    for (const auto& row : rows) {
      if (row.present != state) continue;
      // Enumerate minterms of the cube. Field characters are MSB-first:
      // the leftmost character is input bit (num_inputs - 1).
      std::uint32_t value = 0;
      std::vector<int> free_bits;
      for (int b = 0; b < num_inputs; ++b) {
        char c = row.input[static_cast<std::size_t>(num_inputs - 1 - b)];
        if (c == '-') {
          free_bits.push_back(b);
        } else if (c == '1') {
          value |= 1u << b;
        }
      }
      const std::uint32_t n_free = 1u << free_bits.size();
      for (std::uint32_t m = 0; m < n_free; ++m) {
        std::uint32_t ic = value;
        for (std::size_t k = 0; k < free_bits.size(); ++k)
          if ((m >> k) & 1u) ic |= 1u << free_bits[k];
        covered[ic] = true;
      }
    }
    for (std::uint32_t ic = 0; ic < nic; ++ic)
      if (!covered[ic]) return false;
  }
  return true;
}

}  // namespace fstg
