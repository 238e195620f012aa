#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kiss/kiss2.h"

namespace fstg::store {
class BlobWriter;
class BlobReader;
}  // namespace fstg::store

namespace fstg {

/// A completely specified, binary-encoded state table: the functional model
/// the paper's procedure operates on. States are dense indices
/// 0..num_states-1; an input combination is an integer whose bit b is input
/// line b; the output is packed into a 32-bit word (bit b = output line b).
class StateTable {
 public:
  StateTable() = default;
  StateTable(int input_bits, int output_bits, int num_states);

  int input_bits() const { return input_bits_; }
  int output_bits() const { return output_bits_; }
  int num_states() const { return num_states_; }
  std::uint32_t num_input_combos() const { return 1u << input_bits_; }
  std::size_t num_transitions() const {
    return static_cast<std::size_t>(num_states_) * num_input_combos();
  }

  /// Number of state variables needed to encode num_states states.
  int state_bits() const;

  int next(int state, std::uint32_t ic) const { return next_[idx(state, ic)]; }
  std::uint32_t output(int state, std::uint32_t ic) const {
    return out_[idx(state, ic)];
  }
  void set(int state, std::uint32_t ic, int next_state, std::uint32_t out);

  /// Apply an input sequence starting at `state`; returns the final state.
  int run(int state, const std::vector<std::uint32_t>& seq) const;

  /// Output sequence produced by `seq` from `state`.
  std::vector<std::uint32_t> trace(int state,
                                   const std::vector<std::uint32_t>& seq) const;

  /// Optional display names (size num_states if present).
  std::vector<std::string> state_names;
  std::string name;

  bool operator==(const StateTable& o) const {
    return input_bits_ == o.input_bits_ && output_bits_ == o.output_bits_ &&
           num_states_ == o.num_states_ && next_ == o.next_ && out_ == o.out_;
  }

 private:
  std::size_t idx(int state, std::uint32_t ic) const {
    return static_cast<std::size_t>(state) * num_input_combos() + ic;
  }

  int input_bits_ = 0;
  int output_bits_ = 0;
  int num_states_ = 0;
  std::vector<std::int32_t> next_;
  std::vector<std::uint32_t> out_;
};

/// How to fill transitions a partial KISS2 description leaves unspecified
/// when expanding *without* going through logic synthesis. (The benchmark
/// pipeline instead reads the completed table back from the synthesized
/// netlist; see sim/read_back.h.)
enum class FillPolicy {
  kError,     ///< throw if any (state, input) is unspecified
  kSelfLoop,  ///< unspecified -> stay in state, output all zero
};

/// Expand a symbolic KISS2 machine into a dense encoded table over its
/// *specified* states only (no completion to 2^sv). Unspecified output bits
/// ('-') are filled with 0. Throws on nondeterminism.
StateTable expand_fsm(const Kiss2Fsm& fsm, FillPolicy policy);

/// Artifact-store codec (base/store/serial.h). The deserializer validates
/// every dimension and transition target and returns false — never throws —
/// on any violation, so the cache layer can treat a bad payload exactly
/// like a corrupt blob: a miss.
void serialize_state_table(const StateTable& table, store::BlobWriter& w);
bool deserialize_state_table(store::BlobReader& r, StateTable* out);

}  // namespace fstg
