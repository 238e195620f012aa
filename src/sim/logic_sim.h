#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "base/error.h"
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

/// Tallies of the event-driven overlay path, accumulated with plain
/// increments (a simulator instance is thread-confined, so no atomics in
/// the hot loop); the fault-simulation engine flushes them into the obs
/// metrics registry once per run (counters sim.event_pushes /
/// sim.event_pops / sim.overlay_calls / sim.overlay_unexcited /
/// sim.overlay_gates_changed).
struct LogicSimStats {
  std::uint64_t overlay_calls = 0;      ///< run_cone_overlay invocations
  std::uint64_t overlay_unexcited = 0;  ///< calls that returned 0
  std::uint64_t event_pushes = 0;       ///< event-queue insertions
  std::uint64_t event_pops = 0;         ///< event-queue removals
  std::uint64_t gates_changed = 0;      ///< overlay stamps (value != base)

  LogicSimStats& operator+=(const LogicSimStats& o) {
    overlay_calls += o.overlay_calls;
    overlay_unexcited += o.overlay_unexcited;
    event_pushes += o.event_pushes;
    event_pops += o.event_pops;
    gates_changed += o.gates_changed;
    return *this;
  }
};

namespace detail {

/// Three-valued wired resolution of a bridge: AND-type (value=false) drives
/// both lines to v1&v2, OR-type to v1|v2; the result is X unless it is
/// forced by a definite controlling side (a definite 0 on either line of an
/// AND bridge, a definite 1 on either line of an OR bridge) or both sides
/// are defined.
template <class V>
inline std::pair<V, V> wired3(bool or_type, const V& v1, const V& x1,
                              const V& v2, const V& x2) {
  const V def0_1 = ~(v1 | x1);
  const V def0_2 = ~(v2 | x2);
  if (or_type) {
    const V v = v1 | v2;
    return {v, ~(v | (def0_1 & def0_2))};
  }
  const V v = v1 & v2;
  return {v, ~(v | def0_1 | def0_2)};
}

}  // namespace detail

/// Word-parallel (LaneOps<V>::kBits patterns per pass) levelized evaluation
/// of a combinational netlist, with single-fault injection. The netlist's
/// topological storage order makes evaluation a single linear sweep;
/// bridging faults take a second partial sweep (see run2/run3 for why this
/// is exact for non-feedback bridges).
///
/// --- Three-valued (0/1/X) lanes -------------------------------------------
///
/// Every signal carries a value vector plus an X-mask vector (canonical
/// form: `value & xmask == 0`; an X lane reads as value 0, xmask 1). The X
/// plane is evaluated pessimistically (an AND with a definite-0 input is 0
/// even if other inputs are X; an XOR/XNOR with any X input is X). Patterns
/// without X bits pay nothing: the X plane is skipped entirely while every
/// input X vector is zero, which is detected per run.
template <class V>
class LogicSimT {
 public:
  using Lanes = LaneOps<V>;
  using Stats = LogicSimStats;

  explicit LogicSimT(const Netlist& nl);

  /// Set the lane values of primary input `input_index`.
  void set_input(int input_index, const V& w) {
    input_words_[static_cast<std::size_t>(input_index)] = w;
  }
  const V& input(int input_index) const {
    return input_words_[static_cast<std::size_t>(input_index)];
  }
  /// Lanes of primary input `input_index` that carry X. Value bits under an
  /// X bit are ignored (canonicalized to 0 at evaluation time). Cleared for
  /// all inputs by clear_input_x().
  void set_input_x(int input_index, const V& w) {
    input_x_[static_cast<std::size_t>(input_index)] = w;
    input_x_set_ = input_x_set_ || Lanes::any(w);
  }
  /// Reset every input X vector to zero (cheap no-op when none was set).
  void clear_input_x();

  /// Evaluate all gates under `fault` (kNone = fault-free).
  void run(const FaultSpec& fault = FaultSpec::none());

  const V& value(int gate_id) const {
    return values_[static_cast<std::size_t>(gate_id)];
  }
  /// X-mask of `gate_id` after the last evaluation (all zero when the last
  /// evaluation was two-valued).
  V xval(int gate_id) const {
    return x_clean_ ? Lanes::zero() : xvals_[static_cast<std::size_t>(gate_id)];
  }
  const V& output(int output_index) const {
    return values_[static_cast<std::size_t>(
        nl_->outputs()[static_cast<std::size_t>(output_index)])];
  }
  V output_x(int output_index) const {
    return xval(nl_->outputs()[static_cast<std::size_t>(output_index)]);
  }
  const std::vector<V>& values() const { return values_; }
  /// The netlist in the CSR form the evaluation loop reads: gate g's type
  /// is gate_types()[g] and its fanins are
  /// fanins()[fanin_begin()[g] .. fanin_begin()[g + 1]).
  const std::vector<GateType>& gate_types() const { return type_; }
  const std::vector<int>& fanin_begin() const { return fanin_begin_; }
  const std::vector<int>& fanins() const { return fanins_; }
  /// X plane of the last evaluation. Always sized num_gates; all-zero after
  /// a two-valued run. `last_run_had_x()` says whether it is worth storing.
  const std::vector<V>& xvals() const { return xvals_; }
  /// True iff the last run() evaluated three-valued (some input lane was X),
  /// i.e. the X plane may be nonzero. The scan simulator uses this to store
  /// X planes only for the cycles that actually carry X.
  bool last_run_had_x() const { return !x_clean_; }

  /// Overwrite all gate values (used to seed a known-good evaluation
  /// before a cone-restricted faulty re-evaluation).
  void seed_values(const std::vector<V>& values) { values_ = values; }

  /// Re-evaluate only the gates in `cone` (sorted ascending; the fault
  /// site's transitive fanout) on top of seeded values. All other gates —
  /// including the primary inputs — keep their seeded values, which is
  /// exact as long as the seeded values are the fault-free values of the
  /// same cycle. This is the single-fault-propagation fast path.
  void run_cone(const FaultSpec& fault, const std::vector<int>& cone);

  /// Force gate `g` to `value` and re-evaluate everything downstream of it
  /// (all ids > g, g itself held). Valid after any full evaluation; used
  /// by the transition-delay fault simulator, which needs the raw value of
  /// the fault site before deciding the delayed value.
  void override_and_propagate(int gate, const V& value);

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
  /// touched gate is exact. (`cone` is unused by this path and kept for
  /// signature parity with run_cone.)
  ///
  /// `base_x` is the matching fault-free X plane, or nullptr for an
  /// all-defined trace. With a non-null `base_x` the overlay tracks
  /// (value, xmask) pairs and a gate counts as changed when *either* plane
  /// differs from the base — comparing only the value plane would silently
  /// drop defined->X transitions (difftest corpus case xprop_xor_overlay).
  ///
  /// Returns the number of gates whose (value, xmask) differs from the
  /// base (0 = the fault is not excited this cycle — the whole cycle can be
  /// skipped: every output and the next state equal the fault-free
  /// reference).
  int run_cone_overlay(const FaultSpec& fault, const std::vector<int>& cone,
                       const V* base, const V* base_x = nullptr);

  /// Would run_cone_overlay stamp anything for `fault` against this base
  /// cycle? Exactly the overlay's seeding predicate with none of its
  /// epoch/heap setup. ~97% of (fault, cycle) pairs are unexcited, and for
  /// stuck-at-gate faults — the bulk of every fault list — the answer is one
  /// load and one compare, so the scan simulator asks this first and enters
  /// the overlay machinery only for cycles that can actually propagate.
  bool fault_excited(const FaultSpec& fault, const V* base,
                     const V* base_x) const;

  /// Faulty value of `gate` after run_cone_overlay (base value if unchanged).
  V overlay_value(int gate, const V* base) const {
    return overlay_stamp_[static_cast<std::size_t>(gate)] == overlay_epoch_
               ? overlay_[static_cast<std::size_t>(gate)]
               : base[gate];
  }
  /// Faulty X-mask of `gate` after run_cone_overlay.
  V overlay_xval(int gate, const V* base_x) const {
    return overlay_stamp_[static_cast<std::size_t>(gate)] == overlay_epoch_
               ? overlay_x_[static_cast<std::size_t>(gate)]
               : (base_x == nullptr ? Lanes::zero() : base_x[gate]);
  }
  /// Faulty value of output `output_index` after run_cone_overlay.
  V overlay_output(int output_index, const V* base) const {
    return overlay_value(
        nl_->outputs()[static_cast<std::size_t>(output_index)], base);
  }
  V overlay_output_xval(int output_index, const V* base_x) const {
    return overlay_xval(
        nl_->outputs()[static_cast<std::size_t>(output_index)], base_x);
  }
  /// Lanes where output `output_index` *detectably* differs from the
  /// fault-free base after run_cone_overlay: both sides defined and values
  /// opposite. X lanes on either side never count as a detection.
  V overlay_output_det_diff(int output_index, const V* base,
                            const V* base_x) const {
    const std::size_t g = static_cast<std::size_t>(
        nl_->outputs()[static_cast<std::size_t>(output_index)]);
    if (overlay_stamp_[g] != overlay_epoch_) return Lanes::zero();
    const V diff = overlay_[g] ^ base[g];
    if (base_x == nullptr) return diff;
    return diff & ~overlay_x_[g] & ~base_x[g];
  }
  /// Lanes where output `output_index` differs from the base in *any* way
  /// (value or X-ness). This is what next-state divergence tracking needs:
  /// a state bit that turns X must make the lane dirty even though it is
  /// not (yet) a detection.
  V overlay_output_any_diff(int output_index, const V* base,
                            const V* base_x) const {
    const std::size_t g = static_cast<std::size_t>(
        nl_->outputs()[static_cast<std::size_t>(output_index)]);
    if (overlay_stamp_[g] != overlay_epoch_) return Lanes::zero();
    V diff = overlay_[g] ^ base[g];
    if (base_x != nullptr) diff |= overlay_x_[g] ^ base_x[g];
    return diff;
  }

  const Netlist& netlist() const { return *nl_; }

  const Stats& stats() const { return stats_; }

 private:
  /// Evaluate gate `id` reading fanin values through `value_of(pin, fanin)`
  /// where `pin` is the fanin position within the gate. The direct path
  /// binds it to `values_`; the overlay path maps fanins through the
  /// epoch-stamped overlay; stuck-pin injection forces exactly the faulted
  /// position (a branch fault on a gate with duplicated fanins must not
  /// force the siblings — that matches PODEM's per-pin semantics; difftest
  /// corpus case stuck_pin_dup_fanin).
  template <typename ValueOf>
  V eval_gate_with(int id, ValueOf&& value_of) const {
    const int begin = fanin_begin_[static_cast<std::size_t>(id)];
    const int end = fanin_begin_[static_cast<std::size_t>(id) + 1];
    switch (type_[static_cast<std::size_t>(id)]) {
      case GateType::kInput:
        return input_words_[static_cast<std::size_t>(
            input_index_[static_cast<std::size_t>(id)])];
      case GateType::kConst0:
        return Lanes::zero();
      case GateType::kConst1:
        return Lanes::ones();
      case GateType::kBuf:
        return value_of(0, fanins_[static_cast<std::size_t>(begin)]);
      case GateType::kNot:
        return ~value_of(0, fanins_[static_cast<std::size_t>(begin)]);
      case GateType::kAnd: {
        V v = Lanes::ones();
        for (int p = begin; p < end; ++p)
          v &= value_of(p - begin, fanins_[static_cast<std::size_t>(p)]);
        return v;
      }
      case GateType::kNand: {
        V v = Lanes::ones();
        for (int p = begin; p < end; ++p)
          v &= value_of(p - begin, fanins_[static_cast<std::size_t>(p)]);
        return ~v;
      }
      case GateType::kOr: {
        V v = Lanes::zero();
        for (int p = begin; p < end; ++p)
          v |= value_of(p - begin, fanins_[static_cast<std::size_t>(p)]);
        return v;
      }
      case GateType::kNor: {
        V v = Lanes::zero();
        for (int p = begin; p < end; ++p)
          v |= value_of(p - begin, fanins_[static_cast<std::size_t>(p)]);
        return ~v;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        // Parity over all fanins (n-ary; reading only the first two was the
        // xor_nary_parity difftest bug).
        V v = Lanes::zero();
        for (int p = begin; p < end; ++p)
          v ^= value_of(p - begin, fanins_[static_cast<std::size_t>(p)]);
        return type_[static_cast<std::size_t>(id)] == GateType::kXor ? v : ~v;
      }
    }
    return Lanes::zero();
  }

  /// Three-valued twin of eval_gate_with: `vx_of(pin, fanin)` returns the
  /// (value, xmask) pair of a fanin; the result is the pessimistic 0/1/X
  /// evaluation in canonical form (value bit 0 wherever the X bit is set).
  template <typename VxOf>
  std::pair<V, V> eval_gate_x_with(int id, VxOf&& vx_of) const {
    const int begin = fanin_begin_[static_cast<std::size_t>(id)];
    const int end = fanin_begin_[static_cast<std::size_t>(id) + 1];
    const GateType type = type_[static_cast<std::size_t>(id)];
    switch (type) {
      case GateType::kInput: {
        const std::size_t ii = static_cast<std::size_t>(
            input_index_[static_cast<std::size_t>(id)]);
        const V x = input_x_[ii];
        return {input_words_[ii] & ~x, x};
      }
      case GateType::kConst0:
        return {Lanes::zero(), Lanes::zero()};
      case GateType::kConst1:
        return {Lanes::ones(), Lanes::zero()};
      case GateType::kBuf:
        return vx_of(0, fanins_[static_cast<std::size_t>(begin)]);
      case GateType::kNot: {
        const auto [v, x] = vx_of(0, fanins_[static_cast<std::size_t>(begin)]);
        return {~v & ~x, x};
      }
      case GateType::kAnd:
      case GateType::kNand: {
        V all1 = Lanes::ones();  // lanes where every fanin is definite 1
        V any0 = Lanes::zero();  // lanes where some fanin is definite 0
        for (int p = begin; p < end; ++p) {
          const auto [v, x] =
              vx_of(p - begin, fanins_[static_cast<std::size_t>(p)]);
          all1 &= v;
          any0 |= ~(v | x);
        }
        const V x = ~(all1 | any0);
        return type == GateType::kAnd ? std::pair<V, V>{all1, x}
                                      : std::pair<V, V>{any0, x};
      }
      case GateType::kOr:
      case GateType::kNor: {
        V any1 = Lanes::zero();
        V all0 = Lanes::ones();
        for (int p = begin; p < end; ++p) {
          const auto [v, x] =
              vx_of(p - begin, fanins_[static_cast<std::size_t>(p)]);
          any1 |= v;
          all0 &= ~(v | x);
        }
        const V x = ~(any1 | all0);
        return type == GateType::kOr ? std::pair<V, V>{any1, x}
                                     : std::pair<V, V>{all0, x};
      }
      case GateType::kXor:
      case GateType::kXnor: {
        V parity = Lanes::zero();
        V anyx = Lanes::zero();
        for (int p = begin; p < end; ++p) {
          const auto [v, x] =
              vx_of(p - begin, fanins_[static_cast<std::size_t>(p)]);
          parity ^= v;
          anyx |= x;
        }
        if (type == GateType::kXnor) parity = ~parity;
        return {parity & ~anyx, anyx};
      }
    }
    return {Lanes::zero(), Lanes::zero()};
  }

  V eval_gate(int id) const {
    return eval_gate_with(id, [this](int, int g) -> const V& {
      return values_[static_cast<std::size_t>(g)];
    });
  }
  std::pair<V, V> eval_gate_x(int id) const {
    return eval_gate_x_with(id, [this](int, int g) {
      return std::pair<V, V>{values_[static_cast<std::size_t>(g)],
                             xvals_[static_cast<std::size_t>(g)]};
    });
  }
  void eval_span(int first_gate, int skip_a, int skip_b);
  void eval_span_x(int first_gate, int skip_a, int skip_b);
  /// True when any input X vector is nonzero; resets input_x_set_ when the
  /// flag was conservative (set then overwritten with zeros).
  bool inputs_have_x();
  /// Two- and three-valued bodies of run(); the latter maintains xvals_.
  void run2(const FaultSpec& fault);
  void run3(const FaultSpec& fault);
  /// Record `value` for `gate` in the current overlay epoch.
  void overlay_stamp(int gate, const V& value, const V& xmask) {
    overlay_[static_cast<std::size_t>(gate)] = value;
    overlay_x_[static_cast<std::size_t>(gate)] = xmask;
    overlay_stamp_[static_cast<std::size_t>(gate)] = overlay_epoch_;
  }
  void overlay_prepare();
  /// Hand-rolled binary min-heap on gate id over heap_.
  void heap_push(int id) {
    heap_.push_back(id);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (heap_[parent] <= heap_[i]) break;
      const int tmp = heap_[parent];
      heap_[parent] = heap_[i];
      heap_[i] = tmp;
      i = parent;
    }
  }
  int heap_pop() {
    const int top = heap_[0];
    const int last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      std::size_t i = 0;
      for (;;) {
        const std::size_t l = 2 * i + 1;
        if (l >= n) break;
        const std::size_t r = l + 1;
        std::size_t m = (r < n && heap_[r] < heap_[l]) ? r : l;
        if (heap_[m] >= last) break;
        heap_[i] = heap_[m];
        i = m;
      }
      heap_[i] = last;
    }
    return top;
  }

  const Netlist* nl_;
  std::vector<V> input_words_;
  std::vector<V> input_x_;
  std::vector<V> values_;
  std::vector<V> xvals_;
  /// xvals_ is known all-zero and the last evaluation was two-valued.
  bool x_clean_ = true;
  /// Some set_input_x call since the last clear passed a nonzero vector
  /// (conservative; verified against the actual vectors once per run).
  bool input_x_set_ = false;
  // CSR-flattened netlist for the hot loop.
  std::vector<GateType> type_;
  std::vector<int> fanin_begin_;
  std::vector<int> fanins_;
  std::vector<int> input_index_;
  // Fanout CSR (transpose of the fanin CSR), built lazily on the first
  // run_cone_overlay: the event queue pushes exactly the fanouts of gates
  // whose value changed, so a dying fault effect costs nothing downstream.
  std::vector<int> fanout_begin_;
  std::vector<int> fanouts_;
  // Event-driven overlay scratch (O(1) reset via epoch bump). queue_stamp_
  // dedups event-queue pushes within one epoch; heap_ is a min-heap on gate
  // id, so gates pop in topological order and one evaluation per touched
  // gate is exact.
  std::vector<V> overlay_;
  std::vector<V> overlay_x_;
  std::vector<std::uint32_t> overlay_stamp_;
  std::vector<std::uint32_t> queue_stamp_;
  std::vector<int> heap_;
  std::uint32_t overlay_epoch_ = 0;
  Stats stats_;
};

// ---------------------------------------------------------------------------
// Member definitions (template: explicitly instantiated for Word in
// logic_sim.cpp).
// ---------------------------------------------------------------------------

template <class V>
LogicSimT<V>::LogicSimT(const Netlist& nl) : nl_(&nl) {
  input_words_.assign(static_cast<std::size_t>(nl.num_inputs()),
                      Lanes::zero());
  input_x_.assign(static_cast<std::size_t>(nl.num_inputs()), Lanes::zero());
  values_.assign(static_cast<std::size_t>(nl.num_gates()), Lanes::zero());
  xvals_.assign(static_cast<std::size_t>(nl.num_gates()), Lanes::zero());

  // Flatten the netlist into CSR form for the hot evaluation loop.
  const int n = nl.num_gates();
  type_.resize(static_cast<std::size_t>(n));
  fanin_begin_.resize(static_cast<std::size_t>(n) + 1);
  input_index_.assign(static_cast<std::size_t>(n), -1);
  int inputs_seen = 0;
  std::size_t total_fanins = 0;
  for (int id = 0; id < n; ++id) total_fanins += nl.gate(id).fanins.size();
  fanins_.reserve(total_fanins);
  for (int id = 0; id < n; ++id) {
    const Gate& g = nl.gate(id);
    type_[static_cast<std::size_t>(id)] = g.type;
    fanin_begin_[static_cast<std::size_t>(id)] =
        static_cast<int>(fanins_.size());
    for (int f : g.fanins) fanins_.push_back(f);
    if (g.type == GateType::kInput)
      input_index_[static_cast<std::size_t>(id)] = inputs_seen++;
  }
  fanin_begin_[static_cast<std::size_t>(n)] = static_cast<int>(fanins_.size());
}

template <class V>
void LogicSimT<V>::clear_input_x() {
  if (!input_x_set_) return;
  std::fill(input_x_.begin(), input_x_.end(), Lanes::zero());
  input_x_set_ = false;
}

template <class V>
bool LogicSimT<V>::inputs_have_x() {
  if (!input_x_set_) return false;
  V any = Lanes::zero();
  for (const V& w : input_x_) any |= w;
  if (Lanes::none(any)) input_x_set_ = false;  // flag was conservative
  return Lanes::any(any);
}

template <class V>
int LogicSimT<V>::run_cone_overlay(const FaultSpec& fault,
                                   const std::vector<int>& cone, const V* base,
                                   const V* base_x) {
  (void)cone;  // the event queue discovers the dirty frontier itself
  overlay_prepare();

  ++stats_.overlay_calls;
  heap_.clear();
  const auto push_fanouts = [this](int g) {
    const int begin = fanout_begin_[static_cast<std::size_t>(g)];
    const int end = fanout_begin_[static_cast<std::size_t>(g) + 1];
    for (int p = begin; p < end; ++p) {
      const int out = fanouts_[static_cast<std::size_t>(p)];
      std::uint32_t& stamp = queue_stamp_[static_cast<std::size_t>(out)];
      if (stamp == overlay_epoch_) continue;
      stamp = overlay_epoch_;
      ++stats_.event_pushes;
      heap_push(out);
    }
  };

  // A gate is "changed" when its (value, xmask) pair differs from the base.
  // Comparing the value plane alone would lose defined->X transitions.
  const auto base_xv = [base_x](int g) {
    return base_x == nullptr ? LaneOps<V>::zero() : base_x[g];
  };
  const auto vx_overlaid = [this, base, base_x](int, int g) {
    return std::pair<V, V>{overlay_value(g, base), overlay_xval(g, base_x)};
  };
  const auto stamp_if_changed = [&](int g, const V& v, const V& x) {
    if (v != base[g] || x != base_xv(g)) {
      overlay_stamp(g, v, x);
      return 1;
    }
    return 0;
  };

  int changed = 0;
  int site = -1, site2 = -1;  // forced gates: never re-evaluated from fanins
  switch (fault.kind) {
    case FaultSpec::Kind::kNone:
      return 0;
    case FaultSpec::Kind::kStuckGate: {
      site = fault.gate;
      const V forced = fault.value ? Lanes::ones() : Lanes::zero();
      changed += stamp_if_changed(site, forced, Lanes::zero());
      break;
    }
    case FaultSpec::Kind::kStuckPin: {
      site = fault.gate;
      const V pin_v = fault.value ? Lanes::ones() : Lanes::zero();
      // Force exactly the faulted pin position: a branch fault must not
      // force sibling pins fed by the same driver.
      const auto [v, x] = eval_gate_x_with(site, [&](int p, int g) {
        return p == fault.gate2_or_pin
                   ? std::pair<V, V>{pin_v, Lanes::zero()}
                   : vx_overlaid(p, g);
      });
      changed += stamp_if_changed(site, v, x);
      break;
    }
    case FaultSpec::Kind::kBridge: {
      // base holds the raw (pre-bridge) fault-free line values; the two
      // bridged gates are forced here and never re-evaluated from fanins.
      site = fault.gate;
      site2 = fault.gate2_or_pin;
      const auto [wv, wx] = detail::wired3(fault.value, base[site],
                                           base_xv(site), base[site2],
                                           base_xv(site2));
      changed += stamp_if_changed(site, wv, wx);
      changed += stamp_if_changed(site2, wv, wx);
      break;
    }
  }
  if (changed == 0) {
    ++stats_.overlay_unexcited;
    return 0;  // fault not excited: nothing can propagate
  }

  // Propagate the change wavefront. Ids are topological (fanins smaller),
  // so the min-heap pops gates in evaluation order: by the time a gate pops,
  // every fanin that can change already has, and one evaluation is exact.
  if (overlay_stamp_[static_cast<std::size_t>(site)] == overlay_epoch_)
    push_fanouts(site);
  if (site2 >= 0 &&
      overlay_stamp_[static_cast<std::size_t>(site2)] == overlay_epoch_)
    push_fanouts(site2);
  if (base_x == nullptr) {
    // Two-valued fast path: the overwhelmingly common case (no X anywhere
    // in the batch). Identical work to the X-aware loop minus the X plane.
    const auto overlaid = [this, base](int, int g) {
      return overlay_value(g, base);
    };
    while (!heap_.empty()) {
      const int id = heap_pop();
      ++stats_.event_pops;
      if (id == site || id == site2) continue;
      const V v = eval_gate_with(id, overlaid);
      if (v != base[id]) {
        overlay_stamp(id, v, Lanes::zero());
        ++changed;
        push_fanouts(id);
      }
    }
  } else {
    while (!heap_.empty()) {
      const int id = heap_pop();
      ++stats_.event_pops;
      if (id == site || id == site2) continue;
      const auto [v, x] = eval_gate_x_with(id, vx_overlaid);
      if (v != base[id] || x != base_x[id]) {
        overlay_stamp(id, v, x);
        ++changed;
        push_fanouts(id);
      }
    }
  }
  stats_.gates_changed += static_cast<std::uint64_t>(changed);
  return changed;
}

template <class V>
bool LogicSimT<V>::fault_excited(const FaultSpec& fault, const V* base,
                                 const V* base_x) const {
  const auto base_xv = [base_x](int g) {
    return base_x == nullptr ? LaneOps<V>::zero() : base_x[g];
  };
  switch (fault.kind) {
    case FaultSpec::Kind::kNone:
      return false;
    case FaultSpec::Kind::kStuckGate: {
      const int site = fault.gate;
      const V forced = fault.value ? Lanes::ones() : Lanes::zero();
      return forced != base[site] || Lanes::any(base_xv(site));
    }
    case FaultSpec::Kind::kStuckPin: {
      const int site = fault.gate;
      const V pin_v = fault.value ? Lanes::ones() : Lanes::zero();
      if (base_x == nullptr) {
        const V v = eval_gate_with(site, [&](int p, int g) {
          return p == fault.gate2_or_pin ? pin_v : base[g];
        });
        return v != base[site];
      }
      const auto [v, x] = eval_gate_x_with(site, [&](int p, int g) {
        return p == fault.gate2_or_pin
                   ? std::pair<V, V>{pin_v, Lanes::zero()}
                   : std::pair<V, V>{base[g], base_x[g]};
      });
      return v != base[site] || x != base_xv(site);
    }
    case FaultSpec::Kind::kBridge: {
      const int site = fault.gate;
      const int site2 = fault.gate2_or_pin;
      // Two-valued wired resolution yields a defined value in
      // {v1 & v2, v1 | v2}, which differs from a line exactly when the two
      // lines disagree — one XOR decides excitation for both bridge types.
      if (base_x == nullptr) return Lanes::any(base[site] ^ base[site2]);
      const auto [wv, wx] =
          detail::wired3(fault.value, base[site], base_xv(site), base[site2],
                         base_xv(site2));
      return wv != base[site] || wx != base_xv(site) || wv != base[site2] ||
             wx != base_xv(site2);
    }
  }
  return false;
}

template <class V>
void LogicSimT<V>::overlay_prepare() {
  if (overlay_.empty()) {
    const std::size_t n = static_cast<std::size_t>(nl_->num_gates());
    overlay_.assign(n, Lanes::zero());
    overlay_x_.assign(n, Lanes::zero());
    overlay_stamp_.assign(n, 0);
    queue_stamp_.assign(n, 0);
    overlay_epoch_ = 0;
    // Fanout CSR = transpose of the fanin CSR (counting sort by target).
    fanout_begin_.assign(n + 1, 0);
    for (int f : fanins_) ++fanout_begin_[static_cast<std::size_t>(f) + 1];
    for (std::size_t g = 0; g < n; ++g)
      fanout_begin_[g + 1] += fanout_begin_[g];
    fanouts_.resize(fanins_.size());
    std::vector<int> cursor(fanout_begin_.begin(), fanout_begin_.end() - 1);
    for (std::size_t id = 0; id < n; ++id) {
      const int begin = fanin_begin_[id];
      const int end = fanin_begin_[id + 1];
      for (int p = begin; p < end; ++p) {
        const std::size_t f =
            static_cast<std::size_t>(fanins_[static_cast<std::size_t>(p)]);
        fanouts_[static_cast<std::size_t>(cursor[f]++)] = static_cast<int>(id);
      }
    }
  }
  if (++overlay_epoch_ == 0) {  // epoch wrapped: stale stamps could collide
    std::fill(overlay_stamp_.begin(), overlay_stamp_.end(), 0u);
    std::fill(queue_stamp_.begin(), queue_stamp_.end(), 0u);
    overlay_epoch_ = 1;
  }
}

template <class V>
void LogicSimT<V>::eval_span(int first_gate, int skip_a, int skip_b) {
  const int n = nl_->num_gates();
  for (int id = first_gate; id < n; ++id) {
    if (id == skip_a || id == skip_b) continue;
    values_[static_cast<std::size_t>(id)] = eval_gate(id);
  }
}

template <class V>
void LogicSimT<V>::eval_span_x(int first_gate, int skip_a, int skip_b) {
  const int n = nl_->num_gates();
  for (int id = first_gate; id < n; ++id) {
    if (id == skip_a || id == skip_b) continue;
    const auto [v, x] = eval_gate_x(id);
    values_[static_cast<std::size_t>(id)] = v;
    xvals_[static_cast<std::size_t>(id)] = x;
  }
}

template <class V>
void LogicSimT<V>::run_cone(const FaultSpec& fault,
                            const std::vector<int>& cone) {
  if (x_clean_) {
    switch (fault.kind) {
      case FaultSpec::Kind::kNone:
        for (int id : cone)
          values_[static_cast<std::size_t>(id)] = eval_gate(id);
        return;

      case FaultSpec::Kind::kStuckGate:
        for (int id : cone) {
          values_[static_cast<std::size_t>(id)] =
              id == fault.gate ? (fault.value ? Lanes::ones() : Lanes::zero())
                               : eval_gate(id);
        }
        return;

      case FaultSpec::Kind::kStuckPin: {
        const V pin_v = fault.value ? Lanes::ones() : Lanes::zero();
        for (int id : cone) {
          values_[static_cast<std::size_t>(id)] =
              id == fault.gate
                  ? eval_gate_with(
                        id,
                        [&](int p, int g) {
                          return p == fault.gate2_or_pin
                                     ? pin_v
                                     : values_[static_cast<std::size_t>(g)];
                        })
                  : eval_gate(id);
        }
        return;
      }

      case FaultSpec::Kind::kBridge: {
        // Seeded values are the fault-free (raw) line values; the cone must
        // contain the downstream of both bridged gates but not the gates
        // themselves (they are forced, never re-evaluated).
        const int g1 = fault.gate;
        const int g2 = fault.gate2_or_pin;
        const V v1 = values_[static_cast<std::size_t>(g1)];
        const V v2 = values_[static_cast<std::size_t>(g2)];
        const V wired = fault.value ? (v1 | v2) : (v1 & v2);
        values_[static_cast<std::size_t>(g1)] = wired;
        values_[static_cast<std::size_t>(g2)] = wired;
        for (int id : cone)
          values_[static_cast<std::size_t>(id)] = eval_gate(id);
        return;
      }
    }
    return;
  }

  // Three-valued cone re-evaluation on top of seeded (values, xvals).
  const auto set = [this](int id, std::pair<V, V> vx) {
    values_[static_cast<std::size_t>(id)] = vx.first;
    xvals_[static_cast<std::size_t>(id)] = vx.second;
  };
  switch (fault.kind) {
    case FaultSpec::Kind::kNone:
      for (int id : cone) set(id, eval_gate_x(id));
      return;

    case FaultSpec::Kind::kStuckGate: {
      const V forced = fault.value ? Lanes::ones() : Lanes::zero();
      for (int id : cone) {
        if (id == fault.gate)
          set(id, {forced, Lanes::zero()});
        else
          set(id, eval_gate_x(id));
      }
      return;
    }

    case FaultSpec::Kind::kStuckPin: {
      const V pin_v = fault.value ? Lanes::ones() : Lanes::zero();
      for (int id : cone) {
        if (id == fault.gate) {
          set(id, eval_gate_x_with(id, [&](int p, int g) {
                return p == fault.gate2_or_pin
                           ? std::pair<V, V>{pin_v, Lanes::zero()}
                           : std::pair<V, V>{
                                 values_[static_cast<std::size_t>(g)],
                                 xvals_[static_cast<std::size_t>(g)]};
              }));
        } else {
          set(id, eval_gate_x(id));
        }
      }
      return;
    }

    case FaultSpec::Kind::kBridge: {
      const int g1 = fault.gate;
      const int g2 = fault.gate2_or_pin;
      const auto [wv, wx] = detail::wired3(
          fault.value, values_[static_cast<std::size_t>(g1)],
          xvals_[static_cast<std::size_t>(g1)],
          values_[static_cast<std::size_t>(g2)],
          xvals_[static_cast<std::size_t>(g2)]);
      set(g1, {wv, wx});
      set(g2, {wv, wx});
      for (int id : cone) set(id, eval_gate_x(id));
      return;
    }
  }
}

template <class V>
void LogicSimT<V>::override_and_propagate(int gate, const V& value) {
  // Two-valued by design: only the transition-delay simulator uses this,
  // and it never applies X-bearing patterns.
  values_[static_cast<std::size_t>(gate)] = value;
  eval_span(gate + 1, gate, -1);
}

template <class V>
void LogicSimT<V>::run(const FaultSpec& fault) {
  if (inputs_have_x()) {
    x_clean_ = false;
    run3(fault);
    return;
  }
  if (!x_clean_) {
    std::fill(xvals_.begin(), xvals_.end(), Lanes::zero());
    x_clean_ = true;
  }
  run2(fault);
}

template <class V>
void LogicSimT<V>::run2(const FaultSpec& fault) {
  switch (fault.kind) {
    case FaultSpec::Kind::kNone:
      eval_span(0, -1, -1);
      return;

    case FaultSpec::Kind::kStuckGate:
      eval_span(0, fault.gate, -1);
      values_[static_cast<std::size_t>(fault.gate)] =
          fault.value ? Lanes::ones() : Lanes::zero();
      eval_span(fault.gate + 1, -1, -1);
      return;

    case FaultSpec::Kind::kStuckPin: {
      // Evaluate up to the faulted gate, patch exactly the faulted pin
      // position (a duplicated driver's sibling pins stay fault-free, the
      // same per-pin semantics PODEM uses), continue downstream.
      eval_span(0, fault.gate, -1);
      const V pin_v = fault.value ? Lanes::ones() : Lanes::zero();
      values_[static_cast<std::size_t>(fault.gate)] =
          eval_gate_with(fault.gate, [&](int p, int g) {
            return p == fault.gate2_or_pin
                       ? pin_v
                       : values_[static_cast<std::size_t>(g)];
          });
      eval_span(fault.gate + 1, -1, -1);
      return;
    }

    case FaultSpec::Kind::kBridge: {
      // Non-feedback bridge: neither gate is in the other's fanin cone, so
      // the raw (pre-bridge) values from a fault-free sweep are exact.
      // Force both lines to the wired value and re-evaluate downstream;
      // one partial sweep suffices because all transitive fanouts have
      // larger ids (topological storage).
      const int g1 = fault.gate;
      const int g2 = fault.gate2_or_pin;
      require(g1 >= 0 && g2 >= 0 && g1 != g2,
              "bridge needs two distinct gates");
      eval_span(0, -1, -1);
      const V v1 = values_[static_cast<std::size_t>(g1)];
      const V v2 = values_[static_cast<std::size_t>(g2)];
      const V wired = fault.value ? (v1 | v2) : (v1 & v2);
      values_[static_cast<std::size_t>(g1)] = wired;
      values_[static_cast<std::size_t>(g2)] = wired;
      eval_span(std::min(g1, g2) + 1, g1, g2);
      return;
    }
  }
}

template <class V>
void LogicSimT<V>::run3(const FaultSpec& fault) {
  switch (fault.kind) {
    case FaultSpec::Kind::kNone:
      eval_span_x(0, -1, -1);
      return;

    case FaultSpec::Kind::kStuckGate:
      eval_span_x(0, fault.gate, -1);
      values_[static_cast<std::size_t>(fault.gate)] =
          fault.value ? Lanes::ones() : Lanes::zero();
      xvals_[static_cast<std::size_t>(fault.gate)] = Lanes::zero();
      eval_span_x(fault.gate + 1, -1, -1);
      return;

    case FaultSpec::Kind::kStuckPin: {
      eval_span_x(0, fault.gate, -1);
      const V pin_v = fault.value ? Lanes::ones() : Lanes::zero();
      const auto [v, x] = eval_gate_x_with(fault.gate, [&](int p, int g) {
        return p == fault.gate2_or_pin
                   ? std::pair<V, V>{pin_v, Lanes::zero()}
                   : std::pair<V, V>{values_[static_cast<std::size_t>(g)],
                                     xvals_[static_cast<std::size_t>(g)]};
      });
      values_[static_cast<std::size_t>(fault.gate)] = v;
      xvals_[static_cast<std::size_t>(fault.gate)] = x;
      eval_span_x(fault.gate + 1, -1, -1);
      return;
    }

    case FaultSpec::Kind::kBridge: {
      const int g1 = fault.gate;
      const int g2 = fault.gate2_or_pin;
      require(g1 >= 0 && g2 >= 0 && g1 != g2,
              "bridge needs two distinct gates");
      eval_span_x(0, -1, -1);
      const auto [wv, wx] = detail::wired3(
          fault.value, values_[static_cast<std::size_t>(g1)],
          xvals_[static_cast<std::size_t>(g1)],
          values_[static_cast<std::size_t>(g2)],
          xvals_[static_cast<std::size_t>(g2)]);
      values_[static_cast<std::size_t>(g1)] = wv;
      xvals_[static_cast<std::size_t>(g1)] = wx;
      values_[static_cast<std::size_t>(g2)] = wv;
      xvals_[static_cast<std::size_t>(g2)] = wx;
      eval_span_x(std::min(g1, g2) + 1, g1, g2);
      return;
    }
  }
}

/// The 64-pattern simulator every caller uses; explicitly instantiated in
/// logic_sim.cpp.
using LogicSim = LogicSimT<Word>;
extern template class LogicSimT<Word>;

}  // namespace fstg
