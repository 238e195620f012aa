#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/robust/budget.h"
#include "netlist/netlist.h"
#include "sim/logic_sim.h"

namespace fstg {

/// One full-scan functional test as applied to hardware: scan in
/// `init_state`, apply `inputs` one per clock (observing the primary
/// outputs each clock), scan out the final state.
///
/// `input_x`, when non-empty, is a per-cycle X mask over the primary-input
/// bits (same length as `inputs`): a set bit marks that input as unknown
/// that cycle. The scanned-in state is always fully defined (the scan chain
/// loads definite values), but X inputs can drive state bits to X in later
/// cycles.
struct ScanPattern {
  std::uint32_t init_state = 0;
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> input_x;

  bool has_x() const {
    for (std::uint32_t m : input_x)
      if (m != 0) return true;
    return false;
  }
};

/// Tallies of the lazy dirty-lane machinery in run_faulty, plain increments
/// like LogicSimStats (instances are thread-confined); flushed by the
/// fault-simulation engine (counters scan.*).
struct ScanSimStats {
  std::uint64_t cycles_skipped = 0;     ///< unexcited cycles skipped whole
  std::uint64_t cycles_overlay = 0;     ///< cycles evaluated event-driven
  std::uint64_t cycles_full = 0;        ///< diverged-state (full) cycles
  std::uint64_t dirty_activations = 0;  ///< lanes turning dirty
  std::uint64_t dirty_clears = 0;       ///< dirty lanes reconverging
  std::uint64_t continued_faults = 0;   ///< sliced faults continued past a
                                        ///< diverged segment end

  ScanSimStats& operator+=(const ScanSimStats& o) {
    cycles_skipped += o.cycles_skipped;
    cycles_overlay += o.cycles_overlay;
    cycles_full += o.cycles_full;
    dirty_activations += o.dirty_activations;
    dirty_clears += o.dirty_clears;
    continued_faults += o.continued_faults;
    return *this;
  }
};

/// Fault-free reference of a batch of up to 64 scan patterns (one lane per
/// pattern). `gate_values[c]` is the row of cycle c: every gate's lane
/// word, so a primary output's lanes are the word of its output gate and
/// the state entering the cycle is the words of the state inputs.
/// `active[c]` masks lanes whose pattern is at least c+1 vectors long.
/// `final_state[k]` and `final_state_x[k]` hold state variable k of every
/// lane's scanned-out state (value and X mask, one word per state variable;
/// lane_bits reads one lane's state).
///
/// --- Bit-packed X plane ---------------------------------------------------
///
/// When any pattern in the batch carries X bits, `has_x` is set — but the
/// per-cycle X planes are stored only for the cycles that actually carry X:
/// `cycle_x[c]` is the per-cycle "any-X" summary, and for cycles where it is
/// zero `gate_x[c]` stays empty (meaning: all-defined). Since most batches
/// are fully defined and even X-bearing batches usually go X-free after a
/// few cycles, the common case touches only the value plane. When `has_x`
/// is false `cycle_x` and `gate_x` are not populated at all and the
/// simulation is exactly the two-valued one.
struct GoodTrace {
  std::vector<Word> active;
  std::vector<Word> final_state;
  std::vector<Word> final_state_x;
  int num_lanes = 0;
  /// Fault-free value of every gate at every cycle ([cycle][gate]). A row
  /// holds the cycle's inputs (primary inputs and the state entering the
  /// cycle) and its outputs (primary outputs and next state) as lane words,
  /// so it is both the base of the event-driven overlay and the source a
  /// diverged faulty cycle loads its inputs from.
  std::vector<std::vector<Word>> gate_values;

  /// Set by the fault-simulation engine on a time-sliced batch: the lanes
  /// are the consecutive segments of one two-valued test, each starting
  /// where its predecessor ends, so the trace is that test's fault-free
  /// trace folded into rows of one segment length. run_faulty stitches the
  /// segments per fault and reports the whole test as lane 0.
  bool sliced = false;

  bool has_x = false;
  /// Per-cycle any-X summary (sized like `active` iff has_x): nonzero means
  /// cycle c was evaluated three-valued and its `gate_x` row is populated.
  std::vector<std::uint8_t> cycle_x;
  std::vector<std::vector<Word>> gate_x;

  /// --- Excitation/observability index (event-driven fast path) ------------
  ///
  /// Per-gate bitsets over cycles, bit c of word c/64, built once per batch
  /// by ScanBatchSim::build_excitation_index and shared read-only by all
  /// workers. run_faulty jumps straight between candidate cycles instead of
  /// testing excitation cycle by cycle.
  ///
  /// The bitsets are stored word-major: word w of gate g's bitset is
  /// `exc_any1[w * gates + g]` (likewise `exc_any0`, `exc_obs*`), and word
  /// w of fanin entry e's is `exc_pin_obs1[w * entries + e]`, where `gates`
  /// is exc_pin_base.size() - 1 and `entries` is exc_pin_base.back(). One
  /// word's 64 cycles thus fill one contiguous block per bitset kind, which
  /// the builder's slots write without sharing.
  ///
  /// Every bit speaks about *active* lanes only (`active[c]`): a lane whose
  /// test has ended keeps its last state for the rest of the batch, but it
  /// can neither detect a fault nor turn dirty, so its values never make a
  /// cycle a candidate.
  ///
  /// The excitation half: `exc_any1[g]` is set where any active lane of
  /// gate g's fault-free value at cycle c is 1, `exc_any0[g]` where any
  /// active lane is 0.
  ///
  /// The observability half folds in fanout-free-region propagation. For
  /// each gate the builder computes S_g(c): the per-lane sensitivity of g's
  /// FFR head to g at cycle c (active[c] when g is a head). `exc_obs1[g]`
  /// is set where any lane has value 1 AND is head-sensitive (`exc_obs0`
  /// for value 0). A stuck-at-0 at g changes its head's output exactly at
  /// obs1 cycles (stuck-at-1 at obs0) — excited-but-dies-inside-the-FFR
  /// cycles, the large majority of excited cycles, never become candidates.
  /// Pin faults get the same exactness per fanin *entry* (`exc_pin_obs1[e]`:
  /// some lane has the pin's driver at 1, the pin locally sensitive — every
  /// other fanin of the gate non-controlling — and the gate head-sensitive;
  /// `exc_pin_obs0` dually; `exc_pin_base[g]` maps gate g's pin p to entry
  /// exc_pin_base[g]+p). Bridges derive conservative supersets from the
  /// per-gate bits. Cycles that carry X are candidates for every fault
  /// (`exc_x`).
  std::vector<std::uint64_t> exc_any1;
  std::vector<std::uint64_t> exc_any0;
  std::vector<std::uint64_t> exc_obs1;
  std::vector<std::uint64_t> exc_obs0;
  std::vector<std::uint64_t> exc_pin_obs1;
  std::vector<std::uint64_t> exc_pin_obs0;
  std::vector<std::uint32_t> exc_pin_base;
  std::vector<std::uint64_t> exc_x;
  std::size_t exc_words = 0;
  bool exc_built = false;

  /// True iff cycle `c` carries any X (its X plane is stored).
  bool cycle_has_x(std::size_t c) const { return has_x && cycle_x[c] != 0; }
  /// Fault-free gate X plane of cycle c, or nullptr when fully defined.
  const Word* gate_x_of(std::size_t c) const {
    return cycle_has_x(c) ? gate_x[c].data() : nullptr;
  }
};

/// Applies batches of scan patterns to a full-scan circuit, fault-free or
/// with one injected fault. Each lane tracks its own (possibly faulty)
/// state feedback, exactly as the physical scan test would.
///
/// Detection is three-valued exact: a lane detects only where the faulty
/// and fault-free responses are *both defined* and differ (an X on either
/// side can never be claimed as a detection), while state-divergence
/// tracking uses any-difference including X-ness, so a fault that turns a
/// defined state bit into X is followed correctly even before (or without
/// ever) becoming observable.
///
/// Instances are not thread-safe (mutable simulator state); the parallel
/// fault-simulation engine keeps one simulator per worker slot and shares
/// only the immutable good trace.
class ScanBatchSim {
 public:
  explicit ScanBatchSim(const ScanCircuit& circuit)
      : circuit_(&circuit), sim_(circuit.comb) {}

  /// Batch size must be 1..64. The span is only read for the duration of
  /// the call (a window over the full pattern list is fine — no copy).
  GoodTrace run_good(std::span<const ScanPattern> batch);

  /// Simulate the batch with `fault` injected; lane l of the result is set
  /// iff lane l's pattern detects the fault (PO mismatch at any active
  /// cycle, or scanned-out state mismatch). Attribution-exact early exits:
  /// once a lane detects, only lower lanes (earlier tests) are tracked.
  /// If `cone` is given (the fault site's transitive fanout, ascending),
  /// cycles where the faulty state still matches the fault-free state are
  /// evaluated event-driven against the good trace: no copying of good
  /// values, only gates whose fanins changed are re-evaluated, and
  /// unexcited cycles are skipped whole. Without a cone every cycle is a
  /// full faulty evaluation.
  ///
  /// On a sliced trace (`good.sliced`) the lanes are segments of one test,
  /// and lane 0 of the result is set iff that whole test detects the
  /// fault. A first pass runs every segment from its fault-free start;
  /// segment 0 is exact, and segment k+1 is exact iff segment k is exact
  /// and ends in the fault-free state. A PO mismatch in an exact segment
  /// detects, and so does the last segment's end-state mismatch (the
  /// scan-out); an earlier segment ending in a mismatch has only diverged.
  /// When a segment diverges below every exact detection, the fault is
  /// continued from that segment's real faulty end state, one segment per
  /// pass, until it detects, reaches the scan-out, or ends a segment in
  /// the fault-free state where the first pass is exact again. `guard`, if
  /// given, is ticked once per continuation pass; a trip leaves the fault
  /// undetected.
  Word run_faulty(std::span<const ScanPattern> batch, const GoodTrace& good,
                  const FaultSpec& fault,
                  const std::vector<int>* cone = nullptr,
                  robust::RunGuard* guard = nullptr);

  /// Build the excitation/observability index on `good` (one backward
  /// sensitivity sweep per cycle over the netlist — roughly the cost of one
  /// extra good simulation per batch). The engine calls this once per
  /// batch; the index is then shared read-only by every worker's
  /// run_faulty.
  ///
  /// No cycle's sweep depends on another's, so the index's 64-cycle words
  /// are handed out one per chunk across one parallel_for slot per
  /// simulator in `slots` (all over the same circuit; slot s sweeps with
  /// slots[s]'s scratch). Each word's block is written by exactly one slot,
  /// so the index is the same for any number of slots; a single slot, or a
  /// one-word batch, builds on the calling thread.
  static void build_excitation_index(GoodTrace& good,
                                     std::span<ScanBatchSim* const> slots);

  const ScanSimStats& stats() const { return stats_; }
  const LogicSimStats& sim_stats() const { return sim_.stats(); }

 private:
  /// The faulty evaluator behind run_faulty, over the lanes in `lanes`
  /// only. Returns their PO detections (the lowest set lane is exact; lanes
  /// above a detection stop being tracked) and leaves in `end_dirty_` the
  /// tracked lanes below the lowest detection whose faulty end state
  /// differs from the fault-free one in value or X-ness (their end states
  /// in fstate_ / fstate_x_). Lane `start_lane`, unless -1, enters cycle 0
  /// in the two-valued faulty state `start_state` instead of its fault-free
  /// start.
  Word evaluate(const GoodTrace& good, const FaultSpec& fault,
                const std::vector<int>* cone, Word lanes, int start_lane,
                std::uint32_t start_state);
  /// run_faulty on a sliced trace: stitch the segments (see run_faulty).
  Word run_sliced(std::span<const ScanPattern> segments, const GoodTrace& good,
                  const FaultSpec& fault, const std::vector<int>* cone,
                  robust::RunGuard* guard);

  /// Compute the FFR head flags and size the index sweep's scratch (once
  /// per simulator; build_excitation_index calls it on the calling thread
  /// so the parallel sweep never allocates).
  void prepare_index_scratch();
  /// Sweep the cycles of index words [w_lo, w_hi) of `good`, setting bits
  /// only in those words' blocks of the per-gate and per-pin bitsets.
  void sweep_index_words(GoodTrace& good, std::size_t w_lo, std::size_t w_hi);

  /// Materialize the excitation-candidate bitset for `fault` from the good
  /// trace's index into scratch_cand_; returns nullptr when the index is
  /// not built (run_faulty then tests excitation cycle by cycle).
  const std::uint64_t* candidate_bits(const GoodTrace& good,
                                      const FaultSpec& fault);

  const ScanCircuit* circuit_;
  LogicSim sim_;
  ScanSimStats stats_;
  // Per-fault scratch (member state so the hot fault loop never allocates).
  // The tracked faulty state is bit-sliced, one value and one X word per
  // state variable (see evaluate).
  std::vector<Word> fstate_;
  std::vector<Word> fstate_x_;
  std::vector<std::uint64_t> scratch_cand_;
  std::vector<int> scratch_po_cone_;
  std::vector<int> scratch_sv_cone_;
  std::vector<Word> scratch_ends_;  // a sliced first pass's fstate_
  Word end_dirty_ = 0;
  // Index-sweep scratch (prepare_index_scratch): FFR head flags, the
  // per-cycle head sensitivity S, and the AND/OR prefix/suffix products.
  // The sweep reads the netlist from sim_'s CSR.
  std::vector<std::uint8_t> idx_head_;
  std::vector<Word> idx_sens_;
  std::vector<Word> idx_prefix_;
  std::vector<Word> idx_suffix_;
};

}  // namespace fstg
