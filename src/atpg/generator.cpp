#include "atpg/generator.h"

#include <string>

#include "base/error.h"
#include "base/obs/metrics.h"
#include "base/obs/trace.h"
#include "base/timer.h"
#include "seq/transfer.h"

namespace fstg {

namespace {

/// Tracks which transitions remain untested, with a per-state count so
/// "does state s still have untested transitions" is O(1).
class UntestedTracker {
 public:
  UntestedTracker(const StateTable& table)
      : nic_(table.num_input_combos()),
        tested_(table.num_transitions(), -1),
        per_state_(static_cast<std::size_t>(table.num_states()),
                   table.num_input_combos()),
        cursor_(static_cast<std::size_t>(table.num_states()), 0) {}

  bool is_tested(int state, std::uint32_t ic) const {
    return tested_[id(state, ic)] >= 0;
  }
  void mark(int state, std::uint32_t ic, int test_index) {
    require(!is_tested(state, ic), "transition tested twice");
    tested_[id(state, ic)] = test_index;
    --per_state_[static_cast<std::size_t>(state)];
  }
  bool state_has_untested(int state) const {
    return per_state_[static_cast<std::size_t>(state)] > 0;
  }
  /// Lowest untested input combination out of `state`, or nic if none.
  /// Transitions are only ever marked tested, so the answer never moves
  /// down and a per-state cursor resumes where the last call stopped.
  std::uint32_t first_untested(int state) {
    std::uint32_t& a = cursor_[static_cast<std::size_t>(state)];
    while (a < nic_ && is_tested(state, a)) ++a;
    return a;
  }
  const std::vector<int>& tested_by() const { return tested_; }

 private:
  std::size_t id(int state, std::uint32_t ic) const {
    return static_cast<std::size_t>(state) * nic_ + ic;
  }
  std::uint32_t nic_;
  std::vector<int> tested_;
  std::vector<std::uint32_t> per_state_;
  std::vector<std::uint32_t> cursor_;
};

}  // namespace

GeneratorResult generate_functional_tests(const StateTable& table,
                                          const GeneratorOptions& options) {
  Timer timer;
  UioOptions uio_options;
  uio_options.max_length = options.uio_max_length;
  uio_options.eval_budget = options.uio_eval_budget;
  uio_options.budget = options.budget;
  UioSet uios;
  {
    obs::Span uio_span("uio.derive",
                       std::to_string(table.num_states()) + " states");
    uios = derive_uio_sequences(table, uio_options);
  }
  const double uio_seconds = timer.seconds();
  GeneratorResult result =
      generate_functional_tests(table, options, std::move(uios));
  result.uio_seconds = uio_seconds;
  return result;
}

GeneratorResult generate_functional_tests(const StateTable& table,
                                          const GeneratorOptions& options,
                                          UioSet uios) {
  Timer timer;
  GeneratorResult result;
  result.uios = std::move(uios);
  require(static_cast<int>(result.uios.per_state.size()) == table.num_states(),
          "UIO set does not match the machine");

  const std::uint32_t nic = table.num_input_combos();
  UntestedTracker tracker(table);
  TestSet& tests = result.tests;
  result.degraded = !result.uios.complete();
  // One guard, under the run's budget, for every transfer search in this
  // run; exhaustion (or test injection) degrades each remaining search to
  // "no transfer" => the current test ends with a scan-out, which is always
  // sound.
  robust::RunGuard xfer_guard(options.budget, "transfer.bfs");
  const SuccessorLists successors = successor_lists(table);

  auto has_uio = [&](int state) {
    return result.uios.of(state).exists;
  };

  // Chaining outcomes: how each step after a tested transition continued
  // (UIO into more work, transfer into more work, or scan-out fallback).
  static const obs::Counter c_uio_hits = obs::counter("atpg.uio_hits");
  static const obs::Counter c_transfer_hits = obs::counter("atpg.transfer_hits");
  static const obs::Counter c_scanout = obs::counter("atpg.scanout_fallbacks");
  static const obs::Histogram h_test_len = obs::histogram("atpg.test_length");
  obs::Span chain_span("atpg.chain",
                       std::to_string(table.num_transitions()) +
                           " transitions");

  // Two passes over first transitions: pass 0 honors the postponement rule
  // (skip starts whose destination has no UIO); pass 1 picks up the rest.
  const int first_pass = options.postpone_no_uio_starts ? 0 : 1;
  for (int pass = first_pass; pass <= 1; ++pass) {
    for (int s0 = 0; s0 < table.num_states(); ++s0) {
      for (std::uint32_t a0 = 0; a0 < nic; ++a0) {
        if (tracker.is_tested(s0, a0)) continue;
        if (pass == 0 && !has_uio(table.next(s0, a0))) continue;  // postpone

        // Grow one test starting with the transition s0 --a0--> .
        const int test_index = static_cast<int>(tests.tests.size());
        FunctionalTest test;
        test.init_state = s0;
        int s = s0;
        std::uint32_t a = a0;
        std::size_t transitions_in_test = 0;
        while (true) {
          // Apply the transition under test.
          test.inputs.push_back(a);
          tracker.mark(s, a, test_index);
          ++transitions_in_test;
          const int end_state = table.next(s, a);

          // No UIO for the destination: the scan-out itself verifies it.
          if (!has_uio(end_state)) {
            test.final_state = end_state;
            c_scanout.inc();
            break;
          }
          const UioSequence& uio = result.uios.of(end_state);
          const int after_uio = uio.final_state;

          if (tracker.state_has_untested(after_uio)) {
            // Apply the UIO and continue with the next untested transition.
            test.inputs.insert(test.inputs.end(), uio.inputs.begin(),
                               uio.inputs.end());
            c_uio_hits.inc();
            s = after_uio;
            a = tracker.first_untested(s);
            continue;
          }

          // The post-UIO state is exhausted: look for a transfer sequence
          // into a state that still has untested transitions.
          if (options.transfer_max_length > 0) {
            TransferSearch xfer = find_transfer_guarded(
                successors, after_uio, options.transfer_max_length,
                [&](int t) { return tracker.state_has_untested(t); },
                xfer_guard);
            if (xfer.budget_exhausted) result.degraded = true;
            if (xfer.seq.has_value()) {
              test.inputs.insert(test.inputs.end(), uio.inputs.begin(),
                                 uio.inputs.end());
              test.inputs.insert(test.inputs.end(), xfer.seq->begin(),
                                 xfer.seq->end());
              s = table.run(after_uio, *xfer.seq);
              a = tracker.first_untested(s);
              c_transfer_hits.inc();
              continue;
            }
          }

          // No continuation: stop at the last tested transition's end state
          // *without* applying the UIO (the scan-out verifies it directly).
          test.final_state = end_state;
          c_scanout.inc();
          break;
        }

        if (test.inputs.size() == 1)
          result.transitions_in_length_one += transitions_in_test;
        h_test_len.observe(test.inputs.size());
        tests.tests.push_back(std::move(test));
      }
    }
  }

  result.tested_by = tracker.tested_by();
  for (int t : result.tested_by)
    require(t >= 0, "internal error: a transition was never tested");
  tests.validate(table);
  result.generation_seconds = timer.seconds();
  return result;
}

}  // namespace fstg
