#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netlist/netlist.h"
#include "sim/pattern_vec.h"

namespace fstg {

/// A fault injectable into the word-parallel simulator.
struct FaultSpec {
  enum class Kind : std::uint8_t {
    kNone,       ///< fault-free
    kStuckGate,  ///< gate output (stem) stuck at `value`
    kStuckPin,   ///< input pin `pin` of gate `gate` (branch) stuck at `value`
    kBridge,     ///< non-feedback bridge between outputs of gates `gate` and
                 ///< `gate2`; AND-type if `value` is false, OR-type if true
  };
  Kind kind = Kind::kNone;
  int gate = -1;
  int gate2_or_pin = -1;
  bool value = false;

  static FaultSpec none() { return {}; }
  static FaultSpec stuck_gate(int gate, bool value) {
    return {Kind::kStuckGate, gate, -1, value};
  }
  static FaultSpec stuck_pin(int gate, int pin, bool value) {
    return {Kind::kStuckPin, gate, pin, value};
  }
  static FaultSpec bridge_and(int g1, int g2) {
    return {Kind::kBridge, g1, g2, false};
  }
  static FaultSpec bridge_or(int g1, int g2) {
    return {Kind::kBridge, g1, g2, true};
  }

  bool operator==(const FaultSpec& o) const = default;
};

/// One bit of a packed evaluation (LogicSim::run_packed): its fault, and
/// where its inputs come from. Primary input i is bit `lane` of
/// `row[nl.inputs()[i]]` (X: of `row_x`, nullptr for an all-defined row),
/// a good-trace row of the scan simulator; state input k is bit k of
/// `state` (X: of `state_x`).
struct PackedEntry {
  FaultSpec fault;
  const Word* row = nullptr;
  const Word* row_x = nullptr;
  int lane = 0;
  std::uint32_t state = 0;
  std::uint32_t state_x = 0;
};

/// An AND, NAND, OR or NOR gate with more than this many fanins is *wide*:
/// a two-valued evaluation also writes, after the gate words of the row,
/// the lanes where at least two of its fanin entries hold the controlling
/// value, so the overlay re-evaluates it in O(1) when one fanin entry
/// changes (LogicSim::values). The paper's two-level circuits make every
/// output one wide OR of shared product terms (rie's ORs have 36-67
/// fanins), which take 98.6% of rie's overlay fanin reads; gates of at most
/// 8 fanins take 1.4% of rie's and 2.1% of nucpwr's, while a word for each
/// of them would nearly double every row.
inline constexpr int kWideFanins = 8;

/// Tallies of the event-driven overlay path, accumulated with plain
/// increments (a simulator instance is thread-confined, so no atomics in
/// the hot loop); the fault-simulation engine flushes them into the obs
/// metrics registry once per run (counters sim.event_pushes /
/// sim.event_pops / sim.overlay_calls / sim.overlay_gates_changed /
/// sim.overlay_wide_incremental).
struct LogicSimStats {
  std::uint64_t overlay_calls = 0;     ///< run_cone_overlay invocations
  std::uint64_t event_pushes = 0;      ///< event-queue insertions
  std::uint64_t event_pops = 0;        ///< event-queue removals
  std::uint64_t gates_changed = 0;     ///< overlay stamps (value != base)
  std::uint64_t wide_incremental = 0;  ///< wide gates evaluated in O(1)

  LogicSimStats& operator+=(const LogicSimStats& o) {
    overlay_calls += o.overlay_calls;
    event_pushes += o.event_pushes;
    event_pops += o.event_pops;
    gates_changed += o.gates_changed;
    wide_incremental += o.wide_incremental;
    return *this;
  }
};

/// Word-parallel (64 patterns per pass, one per lane of a Word) levelized
/// evaluation of a combinational netlist, with fault injection per bit. The
/// netlist's topological storage order makes evaluation a single linear
/// sweep; bridging faults take a second partial sweep (see sweep() for why
/// this is exact for non-feedback bridges).
///
/// --- Three-valued (0/1/X) lanes -------------------------------------------
///
/// Every signal carries a value word plus an X-mask word (canonical form:
/// `value & xmask == 0`; an X lane reads as value 0, xmask 1). The X plane
/// is evaluated pessimistically (an AND with a definite-0 input is 0 even
/// if other inputs are X; an XOR/XNOR with any X input is X). Patterns
/// without X bits pay nothing: the X plane is skipped entirely while every
/// input X word is zero, which is detected per run.
class LogicSim {
 public:
  explicit LogicSim(const Netlist& nl);

  /// Set the lane values of primary input `input_index`.
  void set_input(int input_index, Word w) {
    input_words_[static_cast<std::size_t>(input_index)] = w;
  }
  /// Lanes of primary input `input_index` that carry X. Value bits under an
  /// X bit are ignored (canonicalized to 0 at evaluation time). Cleared for
  /// all inputs by clear_input_x().
  void set_input_x(int input_index, Word w) {
    input_x_[static_cast<std::size_t>(input_index)] = w;
    input_x_set_ = input_x_set_ || w != 0;
  }
  /// Reset every input X word to zero (cheap no-op when none was set).
  void clear_input_x();

  /// Evaluate all gates with `fault` injected in every bit (kNone =
  /// fault-free): run_packed's case where every bit carries one fault.
  void run(const FaultSpec& fault = FaultSpec::none());

  /// Packed evaluation, one fault per bit as in parallel-fault simulation:
  /// bit b reads its inputs from entries[b] (see PackedEntry; the first
  /// `num_pi` netlist inputs are primary inputs, the rest state inputs) and
  /// carries entries[b].fault, injected in that bit only. Bits past
  /// entries.size() evaluate all-zero inputs fault-free. Replaces every
  /// input word; three-valued only when some entry carries an X.
  ///
  /// Injection rules: a stuck-at gate fault forces the gate's value and
  /// clears its X; a stuck-at pin fault forces only that fanin position of
  /// its gate (a duplicated driver's sibling pins stay fault-free, the
  /// per-pin semantics PODEM uses; difftest corpus case
  /// stuck_pin_dup_fanin); a non-feedback bridge forces both lines to the
  /// wired value of their raw values (wired3 under X).
  void run_packed(std::span<const PackedEntry> entries, int num_pi);

  Word value(int gate_id) const {
    return values_[static_cast<std::size_t>(gate_id)];
  }
  /// X-mask of `gate_id` after the last evaluation (all zero when the last
  /// evaluation was two-valued).
  Word xval(int gate_id) const {
    return x_clean_ ? 0 : xvals_[static_cast<std::size_t>(gate_id)];
  }
  Word output(int output_index) const {
    return value(nl_->outputs()[static_cast<std::size_t>(output_index)]);
  }
  Word output_x(int output_index) const {
    return xval(nl_->outputs()[static_cast<std::size_t>(output_index)]);
  }
  /// The row of the last evaluation: every gate's word, followed by one
  /// word per wide gate (kWideFanins; its position is wide_word(gate)): the
  /// lanes where at least two of the gate's fanin entries hold the
  /// controlling value (0 for AND/NAND, 1 for OR/NOR), a driver on two pins
  /// counting twice. Only a two-valued evaluation writes that tail; a
  /// three-valued row's tail is stale, which is harmless because the
  /// overlay evaluates every gate in full against a row with an X plane.
  const std::vector<Word>& values() const { return values_; }
  /// Position of wide gate `gate`'s two-controlling word in a row of
  /// values(), or -1 for any other gate.
  int wide_word(int gate) const {
    return wide_word_[static_cast<std::size_t>(gate)];
  }
  /// X plane of the last evaluation. Always sized num_gates; all-zero after
  /// a two-valued run. `last_run_had_x()` says whether it is worth storing.
  const std::vector<Word>& xvals() const { return xvals_; }
  /// True iff the last run() evaluated three-valued (some input lane was X),
  /// i.e. the X plane may be nonzero. The scan simulator uses this to store
  /// X planes only for the cycles that actually carry X.
  bool last_run_had_x() const { return !x_clean_; }

  /// Force gate `g` to `value` and re-evaluate everything downstream of it
  /// (all ids > g, g itself held). Valid after any full evaluation; used
  /// by the transition-delay fault simulator, which needs the raw value of
  /// the fault site before deciding the delayed value.
  void override_and_propagate(int gate, Word value);

  /// --- Event-driven overlay evaluation ------------------------------------
  ///
  /// The fast path of fault simulation evaluates one faulty cycle against a
  /// known fault-free value array (`base`, the good trace's gate values for
  /// that cycle) without copying it: changed gates are recorded in an
  /// epoch-stamped overlay, and an event queue re-evaluates exactly the
  /// fanouts of gates that actually changed. Gates whose recomputed value
  /// equals the fault-free value are not stamped and push no events, so a
  /// dying fault effect prunes its own downstream work completely. The
  /// netlist's topological storage order is its levelization: a min-heap on
  /// gate id pops every gate after all its fanins, so one evaluation per
  /// touched gate is exact.
  ///
  /// `base_x` is the matching fault-free X plane, or nullptr for an
  /// all-defined trace. With a non-null `base_x` the overlay tracks
  /// (value, xmask) pairs and a gate counts as changed when *either* plane
  /// differs from the base — comparing only the value plane would silently
  /// drop defined->X transitions (difftest corpus case xprop_xor_overlay).
  ///
  /// `base` is a whole row of values(), its wide-gate tail included. The
  /// event queue counts the changed fanin entries of each queued gate (a
  /// driver on two pins counts twice). On a two-valued row a wide gate
  /// with exactly one changed entry, and the site of a stuck-at pin fault
  /// on a wide gate, take the O(1) update in controlling terms,
  /// any' = (any & ~loss) | gain | (loss & two): `any` is the base's lanes
  /// with some controlling fanin, `loss` / `gain` the lanes where the entry
  /// stops / starts controlling, and `two` the row's two-controlling word.
  /// Several changed entries, X rows and narrow gates evaluate every fanin
  /// (counter sim.overlay_wide_incremental counts the O(1) evaluations).
  ///
  /// Returns the number of gates whose (value, xmask) differs from the
  /// base (0 = the fault is not excited this cycle — the whole cycle can be
  /// skipped: every output and the next state equal the fault-free
  /// reference).
  int run_cone_overlay(const FaultSpec& fault, const Word* base,
                       const Word* base_x = nullptr);

  /// The lanes in which run_cone_overlay would stamp a fault site of
  /// `fault` against this base cycle: where the site's (value, xmask)
  /// differs from the base. That is the overlay's seeding predicate per
  /// lane, with none of its epoch/heap setup: a stuck-at gate fault's site
  /// deviates where the base value differs from the stuck value or is X, a
  /// stuck-at pin fault's where its gate evaluated with the pin forced
  /// differs, and a bridge where the wired value differs from either line.
  /// Lanes are independent, so a cycle whose excited lanes miss every lane
  /// a caller still tracks changes no output or next state there, and the
  /// scan simulator runs the overlay only when they meet. A stuck-at pin
  /// fault on a wide gate takes the overlay's O(1) update on a two-valued
  /// row, so `base` must be a whole row, as for the overlay.
  Word fault_excited(const FaultSpec& fault, const Word* base,
                     const Word* base_x) const;

  /// Faulty value of `gate` after run_cone_overlay (base value if unchanged).
  Word overlay_value(int gate, const Word* base) const {
    return overlay_stamp_[static_cast<std::size_t>(gate)] == overlay_epoch_
               ? overlay_[static_cast<std::size_t>(gate)]
               : base[gate];
  }
  /// Faulty X-mask of `gate` after run_cone_overlay.
  Word overlay_xval(int gate, const Word* base_x) const {
    return overlay_stamp_[static_cast<std::size_t>(gate)] == overlay_epoch_
               ? overlay_x_[static_cast<std::size_t>(gate)]
               : (base_x == nullptr ? 0 : base_x[gate]);
  }
  /// Faulty value of output `output_index` after run_cone_overlay.
  Word overlay_output(int output_index, const Word* base) const {
    return overlay_value(
        nl_->outputs()[static_cast<std::size_t>(output_index)], base);
  }
  Word overlay_output_xval(int output_index, const Word* base_x) const {
    return overlay_xval(
        nl_->outputs()[static_cast<std::size_t>(output_index)], base_x);
  }
  /// Lanes where output `output_index` *detectably* differs from the
  /// fault-free base after run_cone_overlay: both sides defined and values
  /// opposite. X lanes on either side never count as a detection.
  Word overlay_output_det_diff(int output_index, const Word* base,
                               const Word* base_x) const {
    const std::size_t g = static_cast<std::size_t>(
        nl_->outputs()[static_cast<std::size_t>(output_index)]);
    if (overlay_stamp_[g] != overlay_epoch_) return 0;
    const Word diff = overlay_[g] ^ base[g];
    if (base_x == nullptr) return diff;
    return diff & ~overlay_x_[g] & ~base_x[g];
  }
  /// Lanes where output `output_index` differs from the base in *any* way
  /// (value or X-ness). This is what next-state divergence tracking needs:
  /// a state bit that turns X must make the lane dirty even though it is
  /// not (yet) a detection.
  Word overlay_output_any_diff(int output_index, const Word* base,
                               const Word* base_x) const {
    const std::size_t g = static_cast<std::size_t>(
        nl_->outputs()[static_cast<std::size_t>(output_index)]);
    if (overlay_stamp_[g] != overlay_epoch_) return 0;
    Word diff = overlay_[g] ^ base[g];
    if (base_x != nullptr) diff |= overlay_x_[g] ^ base_x[g];
    return diff;
  }

  const LogicSimStats& stats() const { return stats_; }

 private:
  /// Evaluate gate `id` reading fanin values through `value_of(pin, fanin)`
  /// where `pin` is the fanin position within the gate. The direct path
  /// binds it to `values_`; the overlay path maps fanins through the
  /// epoch-stamped overlay; stuck-pin injection forces exactly the faulted
  /// position (a branch fault on a gate with duplicated fanins must not
  /// force the siblings — that matches PODEM's per-pin semantics; difftest
  /// corpus case stuck_pin_dup_fanin).
  template <typename ValueOf>
  Word eval_gate_with(int id, ValueOf&& value_of) const;
  /// Three-valued twin of eval_gate_with: `vx_of(pin, fanin)` returns the
  /// (value, xmask) pair of a fanin; the result is the pessimistic 0/1/X
  /// evaluation in canonical form (value bit 0 wherever the X bit is set).
  template <typename VxOf>
  std::pair<Word, Word> eval_gate_x_with(int id, VxOf&& vx_of) const;
  Word eval_gate(int id) const;
  std::pair<Word, Word> eval_gate_x(int id) const;
  /// Two-valued evaluation of wide gate `id` from values_, writing its
  /// two-controlling word to values_[at].
  Word eval_wide(int id, int at);
  /// Two-valued value of wide gate `id` against the row `base` when exactly
  /// one of its fanin entries reads `to` instead of its base value `from`.
  Word wide_update(int id, const Word* base, Word from, Word to) const;
  /// Two-valued value of gate `gate` against the row `base` with its fanin
  /// position `pin` forced to `forced` (a stuck-at pin fault's site).
  Word eval_pin_forced(int gate, int pin, Word forced, const Word* base) const;
  /// Evaluate gates [first, last) from their fanins (kX: three-valued,
  /// maintaining xvals_).
  template <bool kX>
  void eval_range(int first, int last);
  /// True when any input X word is nonzero; resets input_x_set_ when the
  /// flag was conservative (set then overwritten with zeros).
  bool inputs_have_x();

  /// One forced bit set of a sweep: bits `mask` of gate `gate`'s output
  /// (pin -1) or of its fanin position `pin` read `value` / `xval`.
  struct Injection {
    int gate;
    int pin;
    Word mask;
    Word value;
    Word xval;
  };
  /// A non-feedback bridge in bits `mask`, forced once a first sweep has
  /// its lines' raw values.
  struct BridgeInjection {
    int gate1;
    int gate2;
    Word mask;
    bool or_type;
  };
  /// Queue `fault`'s injection into bits `mask` of the next sweep.
  void add_injection(const FaultSpec& fault, Word mask);
  /// Evaluate every gate with the queued injections (see run_packed).
  void sweep();
  /// Evaluate gates [first, n) from their fanins, applying injections_
  /// (sorted by gate) at their gates.
  template <bool kX>
  void sweep_from(int first);
  /// Evaluate gate `g` under the injections [at, end) at g.
  template <bool kX>
  void eval_injected(int g, const Injection* at, const Injection* end);
  /// Record `value` for `gate` in the current overlay epoch.
  void overlay_stamp(int gate, Word value, Word xmask);
  void overlay_prepare();
  /// Hand-rolled binary min-heap on gate id over heap_.
  void heap_push(int id);
  int heap_pop();

  const Netlist* nl_;
  std::vector<Word> input_words_;
  std::vector<Word> input_x_;
  std::vector<Word> values_;
  std::vector<Word> xvals_;
  /// xvals_ is known all-zero and the last evaluation was two-valued.
  bool x_clean_ = true;
  /// Some set_input_x call since the last clear passed a nonzero word
  /// (conservative; verified against the actual words once per run).
  bool input_x_set_ = false;
  // CSR-flattened netlist for the hot loop.
  std::vector<GateType> type_;
  std::vector<int> fanin_begin_;
  std::vector<int> fanins_;
  std::vector<int> input_index_;
  /// Per gate: the row position of its two-controlling word, -1 unless wide.
  std::vector<int> wide_word_;
  // Sweep scratch: injections sorted by gate, and the pending bridges.
  std::vector<Injection> injections_;
  std::vector<BridgeInjection> bridges_;
  // Fanout CSR (transpose of the fanin CSR), built lazily on the first
  // run_cone_overlay: the event queue pushes exactly the fanouts of gates
  // whose value changed, so a dying fault effect costs nothing downstream.
  std::vector<int> fanout_begin_;
  std::vector<int> fanouts_;
  // Event-driven overlay scratch (O(1) reset via epoch bump). queue_ dedups
  // event-queue pushes within one epoch and counts each queued gate's
  // changed fanin entries to two; heap_ is a min-heap on gate id, so gates
  // pop in topological order and one evaluation per touched gate is exact.
  struct QueueMark {
    std::uint32_t epoch = 0;
    /// The driver of the one changed fanin entry, or -1 once a second
    /// entry (of any driver, the same one on another pin included) changed.
    int driver = -1;
  };
  std::vector<Word> overlay_;
  std::vector<Word> overlay_x_;
  std::vector<std::uint32_t> overlay_stamp_;
  std::vector<QueueMark> queue_;
  std::vector<int> heap_;
  std::uint32_t overlay_epoch_ = 0;
  LogicSimStats stats_;
};

}  // namespace fstg
