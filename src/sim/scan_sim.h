#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "base/error.h"
#include "base/parallel/thread_pool.h"
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

/// Width-independent tallies of the lazy dirty-lane machinery in
/// run_faulty, plain increments like LogicSimStats (instances are
/// thread-confined); flushed by the fault-simulation engine (counters
/// scan.*).
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

/// Fault-free reference of a batch of up to LaneOps<V>::kBits scan patterns
/// (one lane per pattern). `po[c][k]` holds the lane values of primary
/// output k at cycle c; `active[c]` masks lanes whose pattern is at least
/// c+1 vectors long; `final_state[l]` is lane l's scanned-out state.
///
/// --- Bit-packed X plane ---------------------------------------------------
///
/// When any pattern in the batch carries X bits, `has_x` is set — but the
/// per-cycle X planes are stored only for the cycles that actually carry X:
/// `cycle_x[c]` is the per-cycle "any-X" summary, and for cycles where it is
/// zero the `po_x[c]` / `gate_x[c]` / `state_x_at[c]` vectors stay empty
/// (meaning: all-defined). Since most batches are fully defined and even
/// X-bearing batches usually go X-free after a few cycles, the common case
/// touches only the value plane. When `has_x` is false none of the *_x
/// structures are populated at all and the simulation is exactly the
/// two-valued one.
template <class V>
struct GoodTraceT {
  using Lanes = LaneOps<V>;

  std::vector<std::vector<V>> po;
  std::vector<V> active;
  std::vector<std::uint32_t> final_state;
  int num_lanes = 0;
  /// Fault-free value of every gate at every cycle ([cycle][gate]), and the
  /// fault-free per-lane state entering each cycle ([cycle][lane]). These
  /// power the single-fault-propagation fast path: while the faulty
  /// machine's state still equals the fault-free state, only the fault's
  /// output cone needs re-evaluation.
  std::vector<std::vector<V>> gate_values;
  std::vector<std::vector<std::uint32_t>> state_at;

  /// Set by the fault-simulation engine on a time-sliced batch: the lanes
  /// are the consecutive segments of one two-valued test, each starting
  /// where its predecessor ends, so the trace is that test's fault-free
  /// trace folded into rows of one segment length. run_faulty stitches the
  /// segments per fault and reports the whole test as lane 0.
  bool sliced = false;

  bool has_x = false;
  /// Per-cycle any-X summary (sized like `active` iff has_x): nonzero means
  /// cycle c was evaluated three-valued and its *_x vectors are populated.
  std::vector<std::uint8_t> cycle_x;
  std::vector<std::vector<V>> po_x;
  std::vector<std::vector<V>> gate_x;
  std::vector<std::vector<std::uint32_t>> state_x_at;
  std::vector<std::uint32_t> final_state_x;

  /// --- Excitation/observability index (event-driven fast path) ------------
  ///
  /// Per-gate bitsets over cycles, bit c of word c/64, built once per batch
  /// by ScanBatchSimT::build_excitation_index and shared read-only by all
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

  /// True iff cycle `c` carries any X (its X vectors are stored).
  bool cycle_has_x(std::size_t c) const { return has_x && cycle_x[c] != 0; }
  /// Fault-free gate X plane of cycle c, or nullptr when fully defined.
  const V* gate_x_of(std::size_t c) const {
    return cycle_has_x(c) ? gate_x[c].data() : nullptr;
  }
  /// X mask of the state entering cycle c for lane l (0 for clean cycles).
  std::uint32_t state_x_at_of(std::size_t c, std::size_t l) const {
    return cycle_has_x(c) ? state_x_at[c][l] : 0u;
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
template <class V>
class ScanBatchSimT {
 public:
  using Lanes = LaneOps<V>;
  using Stats = ScanSimStats;

  explicit ScanBatchSimT(const ScanCircuit& circuit)
      : circuit_(&circuit), sim_(circuit.comb) {}

  /// Batch size must be 1..LaneOps<V>::kBits. The span is only read for the
  /// duration of the call (a window over the full pattern list is fine — no
  /// copy).
  GoodTraceT<V> run_good(std::span<const ScanPattern> batch);

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
  V run_faulty(std::span<const ScanPattern> batch, const GoodTraceT<V>& good,
               const FaultSpec& fault, const std::vector<int>* cone = nullptr,
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
  static void build_excitation_index(GoodTraceT<V>& good,
                                     std::span<ScanBatchSimT* const> slots);

  const ScanCircuit& circuit() const { return *circuit_; }

  const ScanSimStats& stats() const { return stats_; }
  const LogicSimStats& sim_stats() const { return sim_.stats(); }

 private:
  /// Load per-lane inputs/state (values and X masks) into the simulator for
  /// cycle `c`.
  void load_cycle(std::span<const ScanPattern> batch,
                  const std::vector<std::uint32_t>& state,
                  const std::vector<std::uint32_t>& state_x, std::size_t c);
  /// Extract per-lane next states (and their X masks) from the simulator.
  void extract_next_state(std::vector<std::uint32_t>& state,
                          std::vector<std::uint32_t>& state_x, const V& active);

  /// The faulty evaluator behind run_faulty, over the lanes in `lanes`
  /// only. Returns their PO detections (the lowest set lane is exact; lanes
  /// above a detection stop being tracked) and leaves in `end_dirty_` the
  /// tracked lanes below the lowest detection whose faulty end state
  /// differs from the fault-free one in value or X-ness (their end states
  /// in scratch_state_). Lane `start_lane`, unless -1, enters cycle 0 in
  /// the two-valued faulty state `start_state` instead of its fault-free
  /// start.
  V evaluate(std::span<const ScanPattern> batch, const GoodTraceT<V>& good,
             const FaultSpec& fault, const std::vector<int>* cone, V lanes,
             int start_lane, std::uint32_t start_state);
  /// run_faulty on a sliced trace: stitch the segments (see run_faulty).
  V run_sliced(std::span<const ScanPattern> segments, const GoodTraceT<V>& good,
               const FaultSpec& fault, const std::vector<int>* cone,
               robust::RunGuard* guard);

  /// Compute the FFR head flags and size the index sweep's scratch (once
  /// per simulator; build_excitation_index calls it on the calling thread
  /// so the parallel sweep never allocates).
  void prepare_index_scratch();
  /// Sweep the cycles of index words [w_lo, w_hi) of `good`, setting bits
  /// only in those words' blocks of the per-gate and per-pin bitsets.
  void sweep_index_words(GoodTraceT<V>& good, std::size_t w_lo,
                         std::size_t w_hi);

  /// Materialize the excitation-candidate bitset for `fault` from the good
  /// trace's index into scratch_cand_; returns nullptr when the index is
  /// not built (run_faulty then tests excitation cycle by cycle).
  const std::uint64_t* candidate_bits(const GoodTraceT<V>& good,
                                      const FaultSpec& fault);
  /// Index of the first set bit >= `from` in a bitset of `nwords` words
  /// (64*nwords if none).
  static std::size_t next_set_bit(const std::uint64_t* words,
                                  std::size_t nwords, std::size_t from) {
    std::size_t w = from >> 6;
    if (w >= nwords) return nwords << 6;
    std::uint64_t cur = words[w] & (~std::uint64_t{0} << (from & 63));
    while (cur == 0) {
      if (++w >= nwords) return nwords << 6;
      cur = words[w];
    }
    return (w << 6) + static_cast<std::size_t>(std::countr_zero(cur));
  }

  const ScanCircuit* circuit_;
  LogicSimT<V> sim_;
  Stats stats_;
  // Per-fault scratch (member state so the hot fault loop never allocates).
  std::vector<std::uint32_t> scratch_state_;
  std::vector<std::uint32_t> scratch_state_x_;
  std::vector<std::uint64_t> scratch_cand_;
  std::vector<int> scratch_po_cone_;
  std::vector<int> scratch_sv_cone_;
  std::vector<std::uint32_t> scratch_ends_;  // a sliced first pass's ends
  V end_dirty_ = Lanes::zero();
  // Index-sweep scratch (prepare_index_scratch): FFR head flags, the
  // per-cycle head sensitivity S, and the AND/OR prefix/suffix products.
  // The sweep reads the netlist from sim_'s CSR.
  std::vector<std::uint8_t> idx_head_;
  std::vector<V> idx_sens_;
  std::vector<V> idx_prefix_;
  std::vector<V> idx_suffix_;
};

// ---------------------------------------------------------------------------
// Member definitions (template: explicitly instantiated for Word in
// scan_sim.cpp).
// ---------------------------------------------------------------------------

template <class V>
void ScanBatchSimT<V>::load_cycle(std::span<const ScanPattern> batch,
                                  const std::vector<std::uint32_t>& state,
                                  const std::vector<std::uint32_t>& state_x,
                                  std::size_t c) {
  const int num_pi = circuit_->num_pi;
  const int num_sv = circuit_->num_sv;
  sim_.clear_input_x();
  for (int b = 0; b < num_pi; ++b) {
    V w = Lanes::zero();
    V wx = Lanes::zero();
    for (std::size_t l = 0; l < batch.size(); ++l) {
      if (c >= batch[l].inputs.size()) continue;
      if ((batch[l].inputs[c] >> b) & 1u) Lanes::set(w, static_cast<int>(l));
      if (c < batch[l].input_x.size() && ((batch[l].input_x[c] >> b) & 1u))
        Lanes::set(wx, static_cast<int>(l));
    }
    sim_.set_input(b, w);
    if (Lanes::any(wx)) sim_.set_input_x(b, wx);
  }
  for (int k = 0; k < num_sv; ++k) {
    V w = Lanes::zero();
    V wx = Lanes::zero();
    for (std::size_t l = 0; l < batch.size(); ++l) {
      if ((state[l] >> k) & 1u) Lanes::set(w, static_cast<int>(l));
      if ((state_x[l] >> k) & 1u) Lanes::set(wx, static_cast<int>(l));
    }
    sim_.set_input(num_pi + k, w);
    if (Lanes::any(wx)) sim_.set_input_x(num_pi + k, wx);
  }
}

template <class V>
void ScanBatchSimT<V>::extract_next_state(std::vector<std::uint32_t>& state,
                                          std::vector<std::uint32_t>& state_x,
                                          const V& active) {
  const int num_po = circuit_->num_po;
  const int num_sv = circuit_->num_sv;
  for (std::size_t l = 0; l < state.size(); ++l) {
    if (!Lanes::test(active, static_cast<int>(l))) continue;
    std::uint32_t ns = 0;
    std::uint32_t nsx = 0;
    for (int k = 0; k < num_sv; ++k) {
      if (Lanes::test(sim_.output(num_po + k), static_cast<int>(l)))
        ns |= 1u << k;
      if (Lanes::test(sim_.output_x(num_po + k), static_cast<int>(l)))
        nsx |= 1u << k;
    }
    state[l] = ns;
    state_x[l] = nsx;
  }
}

template <class V>
GoodTraceT<V> ScanBatchSimT<V>::run_good(std::span<const ScanPattern> batch) {
  require(!batch.empty() && static_cast<int>(batch.size()) <= Lanes::kBits,
          "batch size exceeds lane width");
  GoodTraceT<V> trace;
  trace.num_lanes = static_cast<int>(batch.size());
  for (const auto& p : batch) trace.has_x = trace.has_x || p.has_x();

  std::size_t max_len = 0;
  for (const auto& p : batch) max_len = std::max(max_len, p.inputs.size());
  // One row per cycle, sized up front: growing by doubling would hold up to
  // twice a long batch's rows at its peak.
  trace.po.reserve(max_len);
  trace.active.reserve(max_len);
  trace.gate_values.reserve(max_len);
  trace.state_at.reserve(max_len);

  std::vector<std::uint32_t> state(batch.size());
  std::vector<std::uint32_t> state_x(batch.size(), 0);
  for (std::size_t l = 0; l < batch.size(); ++l)
    state[l] = batch[l].init_state;

  for (std::size_t c = 0; c < max_len; ++c) {
    V active = Lanes::zero();
    for (std::size_t l = 0; l < batch.size(); ++l)
      if (c < batch[l].inputs.size()) Lanes::set(active, static_cast<int>(l));

    trace.state_at.push_back(state);
    load_cycle(batch, state, state_x, c);
    sim_.run();
    // Bit-packed X plane: the per-cycle summary decides whether this
    // cycle's X vectors are stored at all. sim_.last_run_had_x() is exact —
    // the state X mask entering the cycle feeds set_input_x, so a clean
    // flag really means every signal this cycle is defined.
    const bool cx = trace.has_x && sim_.last_run_had_x();
    if (trace.has_x) {
      trace.cycle_x.push_back(cx ? 1 : 0);
      trace.state_x_at.push_back(cx ? state_x
                                    : std::vector<std::uint32_t>{});
      trace.gate_x.push_back(cx ? sim_.xvals() : std::vector<V>{});
    }
    trace.gate_values.push_back(sim_.values());

    std::vector<V> po(static_cast<std::size_t>(circuit_->num_po));
    for (int k = 0; k < circuit_->num_po; ++k)
      po[static_cast<std::size_t>(k)] = sim_.output(k);
    trace.po.push_back(std::move(po));
    if (trace.has_x) {
      std::vector<V> pox;
      if (cx) {
        pox.resize(static_cast<std::size_t>(circuit_->num_po));
        for (int k = 0; k < circuit_->num_po; ++k)
          pox[static_cast<std::size_t>(k)] = sim_.output_x(k);
      }
      trace.po_x.push_back(std::move(pox));
    }
    trace.active.push_back(active);
    extract_next_state(state, state_x, active);
  }
  trace.final_state = std::move(state);
  if (trace.has_x) trace.final_state_x = std::move(state_x);
  return trace;
}

template <class V>
void ScanBatchSimT<V>::build_excitation_index(
    GoodTraceT<V>& good, std::span<ScanBatchSimT* const> slots) {
  require(!slots.empty(), "excitation index needs a simulator");
  const std::size_t W = (good.active.size() + 63) / 64;
  // One word per chunk. Only the slots parallel_for hands work to get
  // scratch: at most one per word, and just the caller's when this runs
  // nested in another region (inline).
  const std::size_t used = parallel::in_parallel_region()
                               ? 1
                               : std::clamp<std::size_t>(W, 1, slots.size());
  for (std::size_t s = 0; s < used; ++s) slots[s]->prepare_index_scratch();
  const std::vector<int>& fanin_begin = slots.front()->sim_.fanin_begin();
  const std::size_t n = fanin_begin.size() - 1;
  const std::size_t entries = static_cast<std::size_t>(fanin_begin[n]);
  good.exc_words = W;
  good.exc_any1.assign(n * W, 0);
  good.exc_any0.assign(n * W, 0);
  good.exc_obs1.assign(n * W, 0);
  good.exc_obs0.assign(n * W, 0);
  good.exc_pin_base.assign(fanin_begin.begin(), fanin_begin.end());
  good.exc_pin_obs1.assign(entries * W, 0);
  good.exc_pin_obs0.assign(entries * W, 0);
  good.exc_x.assign(W, 0);
  parallel::parallel_for(
      W, 1, static_cast<int>(used),
      [&](int slot, std::size_t lo, std::size_t hi) {
        slots[static_cast<std::size_t>(slot)]->sweep_index_words(good, lo, hi);
      });
  good.exc_built = true;
}

template <class V>
void ScanBatchSimT<V>::prepare_index_scratch() {
  const std::vector<int>& fanin_begin = sim_.fanin_begin();
  const std::vector<int>& fanins = sim_.fanins();
  const std::size_t n = fanin_begin.size() - 1;
  if (idx_head_.size() == n) return;
  // FFR structure (same head rule as netlist/cones.cpp): a gate is a head
  // iff it drives a circuit output or has other than exactly one fanout
  // *entry* — counting entries, not distinct gates, so a gate feeding two
  // pins of the same fanout is a head too and the single-path sensitivity
  // composition below never applies to it.
  std::vector<int> fanout_entries(n, 0);
  int max_fanins = 0;
  for (std::size_t g = 0; g < n; ++g)
    max_fanins = std::max(max_fanins, fanin_begin[g + 1] - fanin_begin[g]);
  for (int f : fanins) ++fanout_entries[static_cast<std::size_t>(f)];
  idx_head_.assign(n, 0);
  for (std::size_t g = 0; g < n; ++g)
    if (fanout_entries[g] != 1) idx_head_[g] = 1;
  for (int out : circuit_->comb.outputs())
    idx_head_[static_cast<std::size_t>(out)] = 1;
  idx_sens_.assign(n, Lanes::zero());
  idx_prefix_.assign(static_cast<std::size_t>(max_fanins) + 1, Lanes::zero());
  idx_suffix_.assign(static_cast<std::size_t>(max_fanins) + 1, Lanes::zero());
}

template <class V>
void ScanBatchSimT<V>::sweep_index_words(GoodTraceT<V>& good,
                                         std::size_t w_lo, std::size_t w_hi) {
  const std::vector<GateType>& types = sim_.gate_types();
  const int* const pin_base = sim_.fanin_begin().data();
  const int* const fanins = sim_.fanins().data();
  const std::size_t n = types.size();
  const std::size_t rows = good.active.size();
  const std::size_t entries = static_cast<std::size_t>(pin_base[n]);
  // S[g] = per-lane sensitivity of g's FFR head to g, valid for the cycle
  // being swept: an interior gate's unique fanout has a higher id (the
  // netlist is topological), so the descending sweep writes S[g] before g
  // is visited. Heads never read their slot.
  V* const S = idx_sens_.data();
  V* const prefix = idx_prefix_.data();
  V* const suffix = idx_suffix_.data();
  const std::uint8_t* const is_head = idx_head_.data();
  const V ones = Lanes::ones();
  const V zero = Lanes::zero();
  for (std::size_t c = w_lo * 64; c < std::min(rows, w_hi * 64); ++c) {
    const std::uint64_t bit = std::uint64_t{1} << (c & 63);
    const std::size_t w = c >> 6;
    if (good.cycle_has_x(c)) {
      // X cycles are candidates for every fault; no per-gate bits needed.
      good.exc_x[w] |= bit;
      continue;
    }
    const V active = good.active[c];
    const V* row = good.gate_values[c].data();
    for (std::size_t gi = n; gi-- > 0;) {
      const V Sg = is_head[gi] ? active : S[gi];
      const V v = row[gi];
      const std::size_t at = w * n + gi;
      if (Lanes::any(v & active)) good.exc_any1[at] |= bit;
      if (Lanes::any(~v & active)) good.exc_any0[at] |= bit;
      const std::size_t begin = static_cast<std::size_t>(pin_base[gi]);
      const std::size_t k = static_cast<std::size_t>(pin_base[gi + 1]) - begin;
      const int* fan = fanins + begin;
      if (!Lanes::any(Sg)) {
        // Blocked everywhere: no lane of this gate reaches its head, so its
        // obs and pin bits stay clear and so does every fanin's sensitivity.
        for (std::size_t p = 0; p < k; ++p) {
          const std::size_t f = static_cast<std::size_t>(fan[p]);
          if (!is_head[f]) S[f] = zero;
        }
        continue;
      }
      if (Lanes::any(v & Sg)) good.exc_obs1[at] |= bit;
      if (Lanes::any(~v & Sg)) good.exc_obs0[at] |= bit;
      if (k == 0) continue;
      const std::size_t pin_at = w * entries + begin;
      // Per-pin work (two-valued; X cycles never reach this sweep):
      //  - pin observability bits: a stuck pin deviates the gate where its
      //    driver disagrees with the stuck value AND the pin is locally
      //    sensitive (every other fanin non-controlling); the deviation
      //    changes the head where the gate is head-sensitive on such a lane.
      //  - head sensitivity pushed down to interior fanins:
      //    S_fanin = S_g AND the pin's local sensitivity.
      const auto emit = [&](std::size_t p, const V& reach) {
        const V vd = row[fan[p]];
        if (Lanes::any(vd & reach)) good.exc_pin_obs1[pin_at + p] |= bit;
        if (Lanes::any(~vd & reach)) good.exc_pin_obs0[pin_at + p] |= bit;
        const std::size_t f = static_cast<std::size_t>(fan[p]);
        if (!is_head[f]) S[f] = reach;
      };
      switch (types[gi]) {
        case GateType::kBuf:
        case GateType::kNot:
        case GateType::kXor:
        case GateType::kXnor:
          // A toggle on any input always toggles the output.
          for (std::size_t p = 0; p < k; ++p) emit(p, Sg);
          break;
        case GateType::kAnd:
        case GateType::kNand: {
          // Pin p is sensitive where every *other* fanin is 1.
          prefix[0] = Sg;
          for (std::size_t p = 0; p < k; ++p)
            prefix[p + 1] = prefix[p] & row[fan[p]];
          suffix[k] = ones;
          for (std::size_t p = k; p-- > 0;)
            suffix[p] = suffix[p + 1] & row[fan[p]];
          for (std::size_t p = 0; p < k; ++p)
            emit(p, prefix[p] & suffix[p + 1]);
          break;
        }
        case GateType::kOr:
        case GateType::kNor: {
          // Pin p is sensitive where every *other* fanin is 0.
          prefix[0] = Lanes::zero();
          for (std::size_t p = 0; p < k; ++p)
            prefix[p + 1] = prefix[p] | row[fan[p]];
          suffix[k] = Lanes::zero();
          for (std::size_t p = k; p-- > 0;)
            suffix[p] = suffix[p + 1] | row[fan[p]];
          for (std::size_t p = 0; p < k; ++p)
            emit(p, Sg & ~(prefix[p] | suffix[p + 1]));
          break;
        }
        default:
          break;  // inputs/constants have no fanins
      }
    }
  }
}

template <class V>
const std::uint64_t* ScanBatchSimT<V>::candidate_bits(
    const GoodTraceT<V>& good, const FaultSpec& fault) {
  if (!good.exc_built) return nullptr;
  const std::size_t W = good.exc_words;
  // Word-major index: a gate's (or fanin entry's) bitset is one word per
  // block, so consecutive words are one block stride apart.
  const std::size_t gates = good.exc_pin_base.size() - 1;
  const std::size_t entries = good.exc_pin_base.back();
  scratch_cand_.assign(W, 0);
  const auto any1 = [&](int g) {
    return good.exc_any1.data() + static_cast<std::size_t>(g);
  };
  const auto any0 = [&](int g) {
    return good.exc_any0.data() + static_cast<std::size_t>(g);
  };
  const auto obs1 = [&](int g) {
    return good.exc_obs1.data() + static_cast<std::size_t>(g);
  };
  const auto obs0 = [&](int g) {
    return good.exc_obs0.data() + static_cast<std::size_t>(g);
  };
  switch (fault.kind) {
    case FaultSpec::Kind::kNone:
      return scratch_cand_.data();  // never excited: all-zero bitset
    case FaultSpec::Kind::kStuckGate: {
      // Exact (for X-free cycles): s-a-v deviates in the lanes where the
      // site's fault-free value differs from v, and changes its FFR head's
      // output iff one of those lanes is head-sensitive. Cycles whose
      // deviation dies inside the FFR never become candidates.
      const std::uint64_t* sel =
          fault.value ? obs0(fault.gate) : obs1(fault.gate);
      for (std::size_t w = 0; w < W; ++w)
        scratch_cand_[w] = sel[w * gates] | good.exc_x[w];
      return scratch_cand_.data();
    }
    case FaultSpec::Kind::kStuckPin: {
      // Exact (for X-free cycles): the pin deviates the gate where its
      // driver differs from v while the pin is locally sensitive, and the
      // deviation reaches the FFR head where the gate is head-sensitive on
      // such a lane — precisely the per-entry pin observability bits.
      const std::size_t entry =
          static_cast<std::size_t>(good.exc_pin_base[fault.gate]) +
          static_cast<std::size_t>(fault.gate2_or_pin);
      const std::uint64_t* sel =
          (fault.value ? good.exc_pin_obs0.data() : good.exc_pin_obs1.data()) +
          entry;
      for (std::size_t w = 0; w < W; ++w)
        scratch_cand_[w] = sel[w * entries] | good.exc_x[w];
      return scratch_cand_.data();
    }
    case FaultSpec::Kind::kBridge: {
      // Superset: an AND-type bridge (value=false) deviates a line only
      // where it is 1 while the other line has a 0-lane, and a *single*
      // deviating line only matters where it is head-sensitive; OR-type
      // dually. When both lines can deviate in the same cycle their
      // downstream effects may interact nonlinearly (two FFR paths
      // reconverging), so head sensitivity proves nothing — any such cycle
      // stays a candidate. Per-lane coincidence is re-checked on visit.
      const int a = fault.gate;
      const int b = fault.gate2_or_pin;
      const std::uint64_t* sa = fault.value ? obs0(a) : obs1(a);
      const std::uint64_t* sb = fault.value ? obs0(b) : obs1(b);
      const std::uint64_t* da = fault.value ? any0(a) : any1(a);
      const std::uint64_t* db = fault.value ? any0(b) : any1(b);
      const std::uint64_t* oa = fault.value ? any1(a) : any0(a);
      const std::uint64_t* ob = fault.value ? any1(b) : any0(b);
      for (std::size_t w = 0; w < W; ++w) {
        const std::size_t at = w * gates;
        const std::uint64_t dev_a = da[at] & ob[at];  // line a can deviate
        const std::uint64_t dev_b = db[at] & oa[at];  // line b can deviate
        scratch_cand_[w] = (sa[at] & ob[at]) | (sb[at] & oa[at]) |
                           (dev_a & dev_b) | good.exc_x[w];
      }
      return scratch_cand_.data();
    }
  }
  return nullptr;
}

template <class V>
V ScanBatchSimT<V>::run_faulty(std::span<const ScanPattern> batch,
                               const GoodTraceT<V>& good,
                               const FaultSpec& fault,
                               const std::vector<int>* cone,
                               robust::RunGuard* guard) {
  require(static_cast<int>(batch.size()) == good.num_lanes,
          "batch/trace size mismatch");
  if (good.sliced) return run_sliced(batch, good, fault, cone, guard);
  V detected =
      evaluate(batch, good, fault, cone,
               Lanes::low_mask(static_cast<int>(batch.size())), -1, 0);

  // Scan-out comparison of the final state. Clean lanes track the good
  // trace by construction, so only the diverged lanes can differ; lanes at
  // or above the lowest detecting lane cannot change the attribution (and
  // their state may be stale), so evaluate leaves them out. A state bit
  // that is X on either side is not a detection.
  for_each_lane(end_dirty_, [&](int li) {
    const std::size_t l = static_cast<std::size_t>(li);
    std::uint32_t mismatch = scratch_state_[l] ^ good.final_state[l];
    mismatch &= ~scratch_state_x_[l];
    if (good.has_x) mismatch &= ~good.final_state_x[l];
    if (mismatch != 0) Lanes::set(detected, li);
  });
  return detected;
}

template <class V>
V ScanBatchSimT<V>::run_sliced(std::span<const ScanPattern> segments,
                               const GoodTraceT<V>& good,
                               const FaultSpec& fault,
                               const std::vector<int>* cone,
                               robust::RunGuard* guard) {
  const V test_detects = Lanes::low_mask(1);
  const int last = static_cast<int>(segments.size()) - 1;
  V last_lane = Lanes::zero();
  Lanes::set(last_lane, last);

  // First pass: every segment from its fault-free start. `first_det` is
  // the lowest segment that detects if it is exact; the segments that end
  // diverged below it were all tracked to their ends.
  const V po = evaluate(segments, good, fault, cone,
                        Lanes::low_mask(last + 1), -1, 0);
  const V det = po | (end_dirty_ & last_lane);
  const int first_det = Lanes::any(det) ? Lanes::first_lane(det) : last + 1;
  const V diverged = end_dirty_ & ~last_lane;
  if (Lanes::none(diverged))
    return first_det <= last ? test_detects : Lanes::zero();
  scratch_ends_ = scratch_state_;
  ++stats_.continued_faults;

  // First-pass outcomes are exact from segment `exact_from` on, up to the
  // lowest segment that ends diverged there. Continue the fault from that
  // segment's real faulty end state until it detects, reaches the scan-out,
  // or ends a segment in the fault-free state. At or below first_det the
  // first pass is exact again from that boundary; above it the first pass
  // tracked nothing, so the continuation runs on.
  int exact_from = 0;
  for (;;) {
    const V ahead = diverged & ~Lanes::low_mask(exact_from);
    if (Lanes::none(ahead))
      return first_det <= last ? test_detects : Lanes::zero();
    int j = Lanes::first_lane(ahead);
    std::uint32_t from = scratch_ends_[static_cast<std::size_t>(j)];
    bool dirty = true;
    for (++j;; ++j) {
      if (guard != nullptr && !guard->tick()) return Lanes::zero();
      V lane = Lanes::zero();
      Lanes::set(lane, j);
      if (Lanes::any(evaluate(segments, good, fault, cone, lane,
                              dirty ? j : -1, from)))
        return test_detects;
      dirty = Lanes::any(end_dirty_);
      if (j == last) return dirty ? test_detects : Lanes::zero();
      if (dirty) {
        from = scratch_state_[static_cast<std::size_t>(j)];
      } else if (j + 1 <= first_det) {
        exact_from = j + 1;
        break;
      }
    }
  }
}

template <class V>
V ScanBatchSimT<V>::evaluate(std::span<const ScanPattern> batch,
                             const GoodTraceT<V>& good, const FaultSpec& fault,
                             const std::vector<int>* cone, V lanes,
                             int start_lane, std::uint32_t start_state) {
  V detected = Lanes::zero();

  // Lazily tracked faulty state: `state[l]` (and its X mask `state_x[l]`)
  // is meaningful only for lanes in `dirty` (faulty state differs from the
  // good trace in value or X-ness); every other lane's faulty state IS
  // good.state_at[c][l]. A fault that never perturbs the state (the
  // dominant case, thanks to cycle skipping) costs zero per-lane work per
  // cycle.
  scratch_state_.assign(batch.size(), 0);
  scratch_state_x_.assign(batch.size(), 0);
  std::vector<std::uint32_t>& state = scratch_state_;
  std::vector<std::uint32_t>& state_x = scratch_state_x_;
  V dirty = Lanes::zero();
  if (start_lane >= 0) {
    state[static_cast<std::size_t>(start_lane)] = start_state;
    Lanes::set(dirty, start_lane);
    ++stats_.dirty_activations;
  }

  const int num_po = circuit_->num_po;
  const int num_sv = circuit_->num_sv;

  // Candidate-cycle jumping (build_excitation_index): while no
  // lane has diverged, cycles outside the fault's candidate bitset are
  // provably unexcited and are skipped in blocks — the iteration jumps from
  // set bit to set bit instead of testing excitation cycle by cycle. A
  // diverged lane evolves state every cycle, so jumping pauses while
  // `dirty` is nonzero and resumes when the lanes reconverge.
  const std::uint64_t* cand =
      cone != nullptr ? candidate_bits(good, fault) : nullptr;

  // Only outputs inside the fault's cone — or that are fault sites
  // themselves (compute_fault_cones removes a bridge's two lines from its
  // cone, but the overlay stamps them directly) — can ever be stamped; the
  // per-cycle PO/next-state scans probe just those.
  scratch_po_cone_.clear();
  scratch_sv_cone_.clear();
  if (cone != nullptr) {
    const int site = fault.gate;
    const int site2 =
        fault.kind == FaultSpec::Kind::kBridge ? fault.gate2_or_pin : -1;
    const auto& outs = circuit_->comb.outputs();
    for (int k = 0; k < num_po + num_sv; ++k) {
      const int out = outs[static_cast<std::size_t>(k)];
      if (out != site && out != site2 &&
          !std::binary_search(cone->begin(), cone->end(), out))
        continue;
      if (k < num_po)
        scratch_po_cone_.push_back(k);
      else
        scratch_sv_cone_.push_back(k - num_po);
    }
  }

  for (std::size_t c = 0; c < good.active.size(); ++c) {
    if (cand != nullptr && Lanes::none(dirty)) {
      const std::size_t next = next_set_bit(cand, good.exc_words, c);
      if (next != c) {
        const std::size_t stop = std::min(next, good.active.size());
        stats_.cycles_skipped += static_cast<std::uint64_t>(stop - c);
        if (stop == good.active.size()) break;
        c = stop;  // fall through: this iteration processes the candidate
      }
    }
    // Once a lane detects, only *earlier* tests can change the
    // first-detection attribution, so later lanes stop mattering.
    const V relevant = Lanes::below_lowest(detected) & lanes;
    const V active = good.active[c] & relevant;
    if (Lanes::none(active))
      break;  // active masks only shrink; nothing left to see

    // Per-cycle X plane (bit-packed: nullptr for the clean cycles even in
    // an X-bearing batch).
    const V* base_x = good.gate_x_of(c);
    const bool cx = base_x != nullptr;

    if (Lanes::none(dirty & active) && cone != nullptr) {
      // Every tracked lane is in the fault-free state: evaluate against the
      // good trace through the event-driven overlay (no copying). An
      // unexcited cycle (the ~97% case) is decided by the seeding predicate
      // alone — for a stuck-at-gate fault one load and compare — without
      // paying the overlay's epoch/heap setup.
      const V* base = good.gate_values[c].data();
      if (!sim_.fault_excited(fault, base, base_x)) {
        ++stats_.cycles_skipped;
        continue;  // not excited: outputs and next state match fault-free
      }
      if (sim_.run_cone_overlay(fault, *cone, base, base_x) == 0) {
        ++stats_.cycles_skipped;
        continue;
      }
      ++stats_.cycles_overlay;
      for (int k : scratch_po_cone_)
        detected |= sim_.overlay_output_det_diff(k, base, base_x) & active;
      if (Lanes::none(Lanes::below_lowest(detected) & lanes))
        break;  // the lowest tracked lane detected: nothing left to see
      // Lanes whose faulty next state differs from the good next state in
      // ANY way (value or X-ness) become dirty; materialize their faulty
      // state bits. Tracking only detectable differences here would lose
      // defined->X state transitions and mis-simulate later cycles.
      V ns_diff = Lanes::zero();
      for (int k : scratch_sv_cone_)
        ns_diff |= sim_.overlay_output_any_diff(num_po + k, base, base_x);
      ns_diff &= active;
      for_each_lane(ns_diff, [&](int l) {
        std::uint32_t ns = 0;
        std::uint32_t nsx = 0;
        for (int k = 0; k < num_sv; ++k) {
          if (Lanes::test(sim_.overlay_output(num_po + k, base), l))
            ns |= 1u << k;
          if (cx &&
              Lanes::test(sim_.overlay_output_xval(num_po + k, base_x), l))
            nsx |= 1u << k;
        }
        state[static_cast<std::size_t>(l)] = ns;
        state_x[static_cast<std::size_t>(l)] = nsx;
      });
      dirty |= ns_diff;
      stats_.dirty_activations +=
          static_cast<std::uint64_t>(Lanes::popcount(ns_diff));
      continue;
    }

    // A diverged (or cone-less) cycle evaluates the whole faulty machine
    // from the full state vector: materialize clean lanes from the good
    // trace first.
    for_each_lane(lanes & ~dirty, [&](int li) {
      const std::size_t l = static_cast<std::size_t>(li);
      state[l] = good.state_at[c][l];
      state_x[l] = good.state_x_at_of(c, l);
    });

    ++stats_.cycles_full;
    load_cycle(batch, state, state_x, c);
    sim_.run(fault);
    for (int k = 0; k < num_po; ++k) {
      V diff = sim_.output(k) ^ good.po[c][static_cast<std::size_t>(k)];
      // Detection requires both responses defined; X on either side masks
      // the lane out for this output.
      diff &= ~sim_.output_x(k);
      if (cx) diff &= ~good.po_x[c][static_cast<std::size_t>(k)];
      detected |= diff & active;
    }
    if (Lanes::none(Lanes::below_lowest(detected) & lanes))
      break;  // the lowest tracked lane detected: nothing left to see
    extract_next_state(state, state_x, active);
    // Re-derive the dirty set for active lanes by comparing against the
    // good next state (inactive lanes keep their bits and their state).
    const std::vector<std::uint32_t>& next = c + 1 < good.state_at.size()
                                                 ? good.state_at[c + 1]
                                                 : good.final_state;
    const bool next_in_trace = c + 1 < good.state_at.size();
    for_each_lane(active, [&](int li) {
      const std::size_t l = static_cast<std::size_t>(li);
      const std::uint32_t nx =
          next_in_trace ? good.state_x_at_of(c + 1, l)
                        : (good.has_x ? good.final_state_x[l] : 0u);
      const bool differs = state[l] != next[l] || state_x[l] != nx;
      if (differs) {
        if (!Lanes::test(dirty, li)) ++stats_.dirty_activations;
        Lanes::set(dirty, li);
      } else {
        if (Lanes::test(dirty, li)) {
          ++stats_.dirty_clears;
          V bit = Lanes::zero();
          Lanes::set(bit, li);
          dirty &= ~bit;
        }
      }
    });
  }

  end_dirty_ = dirty & Lanes::below_lowest(detected) & lanes;
  return detected;
}

/// The 64-pattern scan simulator every caller uses; explicitly
/// instantiated in scan_sim.cpp.
using GoodTrace = GoodTraceT<Word>;
using ScanBatchSim = ScanBatchSimT<Word>;
extern template class ScanBatchSimT<Word>;

}  // namespace fstg
