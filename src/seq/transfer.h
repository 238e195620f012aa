#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "base/robust/budget.h"
#include "fsm/state_table.h"

namespace fstg {

/// One entry of a state's successor list: a distinct next state and the
/// lowest input that reaches it.
struct Successor {
  int state;
  std::uint32_t input;
};

/// Entry s lists the distinct next states of state s, each with the lowest
/// input that reaches it, in ascending input order. Built in one pass over
/// the table (O(transitions)).
using SuccessorLists = std::vector<std::vector<Successor>>;
SuccessorLists successor_lists(const StateTable& table);

/// Shortest input sequence of length 1..max_length from `from` to any state
/// satisfying `target`, exploring inputs in ascending order (so ties match
/// the paper's deterministic walkthrough). Returns nullopt if none exists.
/// `from` itself is not tested against `target` (the caller has already
/// decided it needs to move).
std::optional<std::vector<std::uint32_t>> find_transfer(
    const StateTable& table, int from, int max_length,
    const std::function<bool(int)>& target);

/// Typed outcome of a budgeted transfer search: `budget_exhausted`
/// distinguishes "the budget ended the BFS early" (a transfer may still
/// exist) from "no transfer exists within max_length". In both cases the
/// generator's fallback — end the test with a scan-out — is sound.
struct TransferSearch {
  std::optional<std::vector<std::uint32_t>> seq;
  bool budget_exhausted = false;
};

/// Budgeted variant over `successor_lists(table)`. Walking each expanded
/// state's list finds the sequence that trying every input in ascending
/// order finds: the first hit is the lowest input whose successor satisfies
/// `target`, and each new state is first reached through its lowest input.
/// Charges `guard` one expansion per listed successor it examines and
/// returns a typed partial result on exhaustion instead of running
/// unbounded.
TransferSearch find_transfer_guarded(const SuccessorLists& successors,
                                     int from, int max_length,
                                     const std::function<bool(int)>& target,
                                     robust::RunGuard& guard);

}  // namespace fstg
