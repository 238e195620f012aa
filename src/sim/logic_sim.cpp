#include "sim/logic_sim.h"

#include <algorithm>

#include "base/error.h"

namespace fstg {

namespace {

constexpr Word kOnes = ~Word{0};

/// Three-valued wired resolution of a bridge: AND-type (value=false) drives
/// both lines to v1&v2, OR-type to v1|v2; the result is X unless it is
/// forced by a definite controlling side (a definite 0 on either line of an
/// AND bridge, a definite 1 on either line of an OR bridge) or both sides
/// are defined.
std::pair<Word, Word> wired3(bool or_type, Word v1, Word x1, Word v2,
                             Word x2) {
  const Word def0_1 = ~(v1 | x1);
  const Word def0_2 = ~(v2 | x2);
  if (or_type) {
    const Word v = v1 | v2;
    return {v, ~(v | (def0_1 & def0_2))};
  }
  const Word v = v1 & v2;
  return {v, ~(v | def0_1 | def0_2)};
}

}  // namespace

LogicSim::LogicSim(const Netlist& nl) : nl_(&nl) {
  input_words_.assign(static_cast<std::size_t>(nl.num_inputs()), 0);
  input_x_.assign(static_cast<std::size_t>(nl.num_inputs()), 0);
  values_.assign(static_cast<std::size_t>(nl.num_gates()), 0);
  xvals_.assign(static_cast<std::size_t>(nl.num_gates()), 0);

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

template <typename ValueOf>
inline Word LogicSim::eval_gate_with(int id, ValueOf&& value_of) const {
  const int begin = fanin_begin_[static_cast<std::size_t>(id)];
  const int end = fanin_begin_[static_cast<std::size_t>(id) + 1];
  switch (type_[static_cast<std::size_t>(id)]) {
    case GateType::kInput:
      return input_words_[static_cast<std::size_t>(
          input_index_[static_cast<std::size_t>(id)])];
    case GateType::kConst0:
      return 0;
    case GateType::kConst1:
      return kOnes;
    case GateType::kBuf:
      return value_of(0, fanins_[static_cast<std::size_t>(begin)]);
    case GateType::kNot:
      return ~value_of(0, fanins_[static_cast<std::size_t>(begin)]);
    case GateType::kAnd: {
      Word v = kOnes;
      for (int p = begin; p < end; ++p)
        v &= value_of(p - begin, fanins_[static_cast<std::size_t>(p)]);
      return v;
    }
    case GateType::kNand: {
      Word v = kOnes;
      for (int p = begin; p < end; ++p)
        v &= value_of(p - begin, fanins_[static_cast<std::size_t>(p)]);
      return ~v;
    }
    case GateType::kOr: {
      Word v = 0;
      for (int p = begin; p < end; ++p)
        v |= value_of(p - begin, fanins_[static_cast<std::size_t>(p)]);
      return v;
    }
    case GateType::kNor: {
      Word v = 0;
      for (int p = begin; p < end; ++p)
        v |= value_of(p - begin, fanins_[static_cast<std::size_t>(p)]);
      return ~v;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      // Parity over all fanins (n-ary; reading only the first two was the
      // xor_nary_parity difftest bug).
      Word v = 0;
      for (int p = begin; p < end; ++p)
        v ^= value_of(p - begin, fanins_[static_cast<std::size_t>(p)]);
      return type_[static_cast<std::size_t>(id)] == GateType::kXor ? v : ~v;
    }
  }
  return 0;
}

template <typename VxOf>
inline std::pair<Word, Word> LogicSim::eval_gate_x_with(int id,
                                                        VxOf&& vx_of) const {
  const int begin = fanin_begin_[static_cast<std::size_t>(id)];
  const int end = fanin_begin_[static_cast<std::size_t>(id) + 1];
  const GateType type = type_[static_cast<std::size_t>(id)];
  switch (type) {
    case GateType::kInput: {
      const std::size_t ii =
          static_cast<std::size_t>(input_index_[static_cast<std::size_t>(id)]);
      const Word x = input_x_[ii];
      return {input_words_[ii] & ~x, x};
    }
    case GateType::kConst0:
      return {0, 0};
    case GateType::kConst1:
      return {kOnes, 0};
    case GateType::kBuf:
      return vx_of(0, fanins_[static_cast<std::size_t>(begin)]);
    case GateType::kNot: {
      const auto [v, x] = vx_of(0, fanins_[static_cast<std::size_t>(begin)]);
      return {~v & ~x, x};
    }
    case GateType::kAnd:
    case GateType::kNand: {
      Word all1 = kOnes;  // lanes where every fanin is definite 1
      Word any0 = 0;      // lanes where some fanin is definite 0
      for (int p = begin; p < end; ++p) {
        const auto [v, x] =
            vx_of(p - begin, fanins_[static_cast<std::size_t>(p)]);
        all1 &= v;
        any0 |= ~(v | x);
      }
      const Word x = ~(all1 | any0);
      return type == GateType::kAnd ? std::pair<Word, Word>{all1, x}
                                    : std::pair<Word, Word>{any0, x};
    }
    case GateType::kOr:
    case GateType::kNor: {
      Word any1 = 0;
      Word all0 = kOnes;
      for (int p = begin; p < end; ++p) {
        const auto [v, x] =
            vx_of(p - begin, fanins_[static_cast<std::size_t>(p)]);
        any1 |= v;
        all0 &= ~(v | x);
      }
      const Word x = ~(any1 | all0);
      return type == GateType::kOr ? std::pair<Word, Word>{any1, x}
                                   : std::pair<Word, Word>{all0, x};
    }
    case GateType::kXor:
    case GateType::kXnor: {
      Word parity = 0;
      Word anyx = 0;
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
  return {0, 0};
}

inline Word LogicSim::eval_gate(int id) const {
  return eval_gate_with(id, [this](int, int g) -> const Word& {
    return values_[static_cast<std::size_t>(g)];
  });
}

inline std::pair<Word, Word> LogicSim::eval_gate_x(int id) const {
  return eval_gate_x_with(id, [this](int, int g) {
    return std::pair<Word, Word>{values_[static_cast<std::size_t>(g)],
                                 xvals_[static_cast<std::size_t>(g)]};
  });
}

inline void LogicSim::overlay_stamp(int gate, Word value, Word xmask) {
  overlay_[static_cast<std::size_t>(gate)] = value;
  overlay_x_[static_cast<std::size_t>(gate)] = xmask;
  overlay_stamp_[static_cast<std::size_t>(gate)] = overlay_epoch_;
}

inline void LogicSim::heap_push(int id) {
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

inline int LogicSim::heap_pop() {
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

void LogicSim::clear_input_x() {
  if (!input_x_set_) return;
  std::fill(input_x_.begin(), input_x_.end(), Word{0});
  input_x_set_ = false;
}

bool LogicSim::inputs_have_x() {
  if (!input_x_set_) return false;
  Word any = 0;
  for (const Word w : input_x_) any |= w;
  if (any == 0) input_x_set_ = false;  // flag was conservative
  return any != 0;
}

int LogicSim::run_cone_overlay(const FaultSpec& fault, const Word* base,
                               const Word* base_x) {
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
    return base_x == nullptr ? Word{0} : base_x[g];
  };
  const auto vx_overlaid = [this, base, base_x](int, int g) {
    return std::pair<Word, Word>{overlay_value(g, base),
                                 overlay_xval(g, base_x)};
  };
  const auto stamp_if_changed = [&](int g, Word v, Word x) {
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
      changed += stamp_if_changed(site, fault.value ? kOnes : 0, 0);
      break;
    }
    case FaultSpec::Kind::kStuckPin: {
      site = fault.gate;
      const Word pin_v = fault.value ? kOnes : 0;
      // Force exactly the faulted pin position: a branch fault must not
      // force sibling pins fed by the same driver.
      const auto [v, x] = eval_gate_x_with(site, [&](int p, int g) {
        return p == fault.gate2_or_pin ? std::pair<Word, Word>{pin_v, 0}
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
      const auto [wv, wx] = wired3(fault.value, base[site], base_xv(site),
                                   base[site2], base_xv(site2));
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
      const Word v = eval_gate_with(id, overlaid);
      if (v != base[id]) {
        overlay_stamp(id, v, 0);
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

bool LogicSim::fault_excited(const FaultSpec& fault, const Word* base,
                             const Word* base_x) const {
  const auto base_xv = [base_x](int g) {
    return base_x == nullptr ? Word{0} : base_x[g];
  };
  switch (fault.kind) {
    case FaultSpec::Kind::kNone:
      return false;
    case FaultSpec::Kind::kStuckGate: {
      const int site = fault.gate;
      const Word forced = fault.value ? kOnes : 0;
      return forced != base[site] || base_xv(site) != 0;
    }
    case FaultSpec::Kind::kStuckPin: {
      const int site = fault.gate;
      const Word pin_v = fault.value ? kOnes : 0;
      if (base_x == nullptr) {
        const Word v = eval_gate_with(site, [&](int p, int g) {
          return p == fault.gate2_or_pin ? pin_v : base[g];
        });
        return v != base[site];
      }
      const auto [v, x] = eval_gate_x_with(site, [&](int p, int g) {
        return p == fault.gate2_or_pin
                   ? std::pair<Word, Word>{pin_v, 0}
                   : std::pair<Word, Word>{base[g], base_x[g]};
      });
      return v != base[site] || x != base_xv(site);
    }
    case FaultSpec::Kind::kBridge: {
      const int site = fault.gate;
      const int site2 = fault.gate2_or_pin;
      // Two-valued wired resolution yields a defined value in
      // {v1 & v2, v1 | v2}, which differs from a line exactly when the two
      // lines disagree — one XOR decides excitation for both bridge types.
      if (base_x == nullptr) return (base[site] ^ base[site2]) != 0;
      const auto [wv, wx] = wired3(fault.value, base[site], base_xv(site),
                                   base[site2], base_xv(site2));
      return wv != base[site] || wx != base_xv(site) || wv != base[site2] ||
             wx != base_xv(site2);
    }
  }
  return false;
}

void LogicSim::overlay_prepare() {
  if (overlay_.empty()) {
    const std::size_t n = static_cast<std::size_t>(nl_->num_gates());
    overlay_.assign(n, 0);
    overlay_x_.assign(n, 0);
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

void LogicSim::eval_span(int first_gate, int skip_a, int skip_b) {
  const int n = nl_->num_gates();
  for (int id = first_gate; id < n; ++id) {
    if (id == skip_a || id == skip_b) continue;
    values_[static_cast<std::size_t>(id)] = eval_gate(id);
  }
}

void LogicSim::eval_span_x(int first_gate, int skip_a, int skip_b) {
  const int n = nl_->num_gates();
  for (int id = first_gate; id < n; ++id) {
    if (id == skip_a || id == skip_b) continue;
    const auto [v, x] = eval_gate_x(id);
    values_[static_cast<std::size_t>(id)] = v;
    xvals_[static_cast<std::size_t>(id)] = x;
  }
}

void LogicSim::override_and_propagate(int gate, Word value) {
  // Two-valued by design: only the transition-delay simulator uses this,
  // and it never applies X-bearing patterns.
  values_[static_cast<std::size_t>(gate)] = value;
  eval_span(gate + 1, gate, -1);
}

void LogicSim::run(const FaultSpec& fault) {
  if (inputs_have_x()) {
    x_clean_ = false;
    run3(fault);
    return;
  }
  if (!x_clean_) {
    std::fill(xvals_.begin(), xvals_.end(), Word{0});
    x_clean_ = true;
  }
  run2(fault);
}

void LogicSim::run2(const FaultSpec& fault) {
  switch (fault.kind) {
    case FaultSpec::Kind::kNone:
      eval_span(0, -1, -1);
      return;

    case FaultSpec::Kind::kStuckGate:
      eval_span(0, fault.gate, -1);
      values_[static_cast<std::size_t>(fault.gate)] = fault.value ? kOnes : 0;
      eval_span(fault.gate + 1, -1, -1);
      return;

    case FaultSpec::Kind::kStuckPin: {
      // Evaluate up to the faulted gate, patch exactly the faulted pin
      // position (a duplicated driver's sibling pins stay fault-free, the
      // same per-pin semantics PODEM uses), continue downstream.
      eval_span(0, fault.gate, -1);
      const Word pin_v = fault.value ? kOnes : 0;
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
      const Word v1 = values_[static_cast<std::size_t>(g1)];
      const Word v2 = values_[static_cast<std::size_t>(g2)];
      const Word wired = fault.value ? (v1 | v2) : (v1 & v2);
      values_[static_cast<std::size_t>(g1)] = wired;
      values_[static_cast<std::size_t>(g2)] = wired;
      eval_span(std::min(g1, g2) + 1, g1, g2);
      return;
    }
  }
}

void LogicSim::run3(const FaultSpec& fault) {
  switch (fault.kind) {
    case FaultSpec::Kind::kNone:
      eval_span_x(0, -1, -1);
      return;

    case FaultSpec::Kind::kStuckGate:
      eval_span_x(0, fault.gate, -1);
      values_[static_cast<std::size_t>(fault.gate)] = fault.value ? kOnes : 0;
      xvals_[static_cast<std::size_t>(fault.gate)] = 0;
      eval_span_x(fault.gate + 1, -1, -1);
      return;

    case FaultSpec::Kind::kStuckPin: {
      eval_span_x(0, fault.gate, -1);
      const Word pin_v = fault.value ? kOnes : 0;
      const auto [v, x] = eval_gate_x_with(fault.gate, [&](int p, int g) {
        return p == fault.gate2_or_pin
                   ? std::pair<Word, Word>{pin_v, 0}
                   : std::pair<Word, Word>{values_[static_cast<std::size_t>(g)],
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
      const auto [wv, wx] = wired3(
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

}  // namespace fstg
