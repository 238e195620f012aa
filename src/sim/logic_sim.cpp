#include "sim/logic_sim.h"

#include <algorithm>
#include <tuple>

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

/// XOR mask that turns a fanin word of an AND, NAND, OR or NOR gate of type
/// `t` into the lanes where it holds the controlling value (0 for AND/NAND,
/// 1 for OR/NOR).
inline Word controlling_flip(GateType t) {
  return t == GateType::kAnd || t == GateType::kNand ? kOnes : 0;
}

/// XOR mask between the lanes where some fanin controls and the output of
/// a wide gate of type `t`: OR and NAND are 1 there, AND and NOR 0.
inline Word output_flip(GateType t) {
  return t == GateType::kOr || t == GateType::kNand ? 0 : kOnes;
}

}  // namespace

LogicSim::LogicSim(const Netlist& nl) : nl_(&nl) {
  input_words_.assign(static_cast<std::size_t>(nl.num_inputs()), 0);
  input_x_.assign(static_cast<std::size_t>(nl.num_inputs()), 0);
  xvals_.assign(static_cast<std::size_t>(nl.num_gates()), 0);

  // Flatten the netlist into CSR form for the hot evaluation loop.
  const int n = nl.num_gates();
  type_.resize(static_cast<std::size_t>(n));
  fanin_begin_.resize(static_cast<std::size_t>(n) + 1);
  input_index_.assign(static_cast<std::size_t>(n), -1);
  wide_word_.assign(static_cast<std::size_t>(n), -1);
  int inputs_seen = 0;
  int row = n;  // the wide gates' words follow the gate words
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
    const bool and_or = g.type == GateType::kAnd || g.type == GateType::kNand ||
                        g.type == GateType::kOr || g.type == GateType::kNor;
    if (and_or && g.fanins.size() > static_cast<std::size_t>(kWideFanins))
      wide_word_[static_cast<std::size_t>(id)] = row++;
  }
  fanin_begin_[static_cast<std::size_t>(n)] = static_cast<int>(fanins_.size());
  values_.assign(static_cast<std::size_t>(row), 0);
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

inline Word LogicSim::eval_wide(int id, int at) {
  const GateType type = type_[static_cast<std::size_t>(id)];
  const Word flip = controlling_flip(type);
  const int begin = fanin_begin_[static_cast<std::size_t>(id)];
  const int end = fanin_begin_[static_cast<std::size_t>(id) + 1];
  // Count the controlling fanin entries to two: the lanes where at least
  // one, and at least two, hold the controlling value.
  Word one = 0;
  Word two = 0;
  for (int p = begin; p < end; ++p) {
    const Word c =
        values_[static_cast<std::size_t>(fanins_[static_cast<std::size_t>(p)])] ^
        flip;
    two |= one & c;
    one |= c;
  }
  values_[static_cast<std::size_t>(at)] = two;
  return one ^ output_flip(type);
}

inline Word LogicSim::wide_update(int id, const Word* base, Word from,
                                  Word to) const {
  const GateType type = type_[static_cast<std::size_t>(id)];
  const Word flip = controlling_flip(type);
  const Word out_flip = output_flip(type);
  // In controlling terms: a lane where the entry stops controlling keeps
  // some controlling fanin iff another entry controls too, that is iff the
  // base counted two there.
  const Word any = base[id] ^ out_flip;
  const Word was = from ^ flip;
  const Word is = to ^ flip;
  const Word loss = was & ~is;
  const Word gain = is & ~was;
  const Word two = base[wide_word_[static_cast<std::size_t>(id)]];
  return ((any & ~loss) | gain | (loss & two)) ^ out_flip;
}

Word LogicSim::eval_pin_forced(int gate, int pin, Word forced,
                               const Word* base) const {
  if (wide_word_[static_cast<std::size_t>(gate)] >= 0) {
    const int driver = fanins_[static_cast<std::size_t>(
        fanin_begin_[static_cast<std::size_t>(gate)] + pin)];
    return wide_update(gate, base, base[driver], forced);
  }
  return eval_gate_with(gate, [&](int p, int g) {
    return p == pin ? forced : base[g];
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
  // One call per changed gate, one iteration per fanout entry: a gate
  // queued a second time in the epoch has several changed fanin entries.
  const auto push_fanouts = [this](int g) {
    const int begin = fanout_begin_[static_cast<std::size_t>(g)];
    const int end = fanout_begin_[static_cast<std::size_t>(g) + 1];
    for (int p = begin; p < end; ++p) {
      const int out = fanouts_[static_cast<std::size_t>(p)];
      QueueMark& mark = queue_[static_cast<std::size_t>(out)];
      if (mark.epoch == overlay_epoch_) {
        mark.driver = -1;
        continue;
      }
      mark = {overlay_epoch_, g};
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
      if (base_x == nullptr) {
        if (wide_word_[static_cast<std::size_t>(site)] >= 0)
          ++stats_.wide_incremental;
        changed += stamp_if_changed(
            site, eval_pin_forced(site, fault.gate2_or_pin, pin_v, base), 0);
        break;
      }
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
  if (changed == 0) return 0;  // fault not excited: nothing can propagate

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
      const int driver = queue_[static_cast<std::size_t>(id)].driver;
      Word v;
      if (driver >= 0 && wide_word_[static_cast<std::size_t>(id)] >= 0) {
        v = wide_update(id, base, base[driver],
                        overlay_[static_cast<std::size_t>(driver)]);
        ++stats_.wide_incremental;
      } else {
        v = eval_gate_with(id, overlaid);
      }
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

Word LogicSim::fault_excited(const FaultSpec& fault, const Word* base,
                             const Word* base_x) const {
  switch (fault.kind) {
    case FaultSpec::Kind::kNone:
      return 0;
    case FaultSpec::Kind::kStuckGate: {
      const int site = fault.gate;
      const Word site_x = base_x == nullptr ? 0 : base_x[site];
      return ((fault.value ? kOnes : 0) ^ base[site]) | site_x;
    }
    case FaultSpec::Kind::kStuckPin: {
      const int site = fault.gate;
      const Word pin_v = fault.value ? kOnes : 0;
      if (base_x == nullptr)
        return eval_pin_forced(site, fault.gate2_or_pin, pin_v, base) ^
               base[site];
      const auto [v, x] = eval_gate_x_with(site, [&](int p, int g) {
        return p == fault.gate2_or_pin
                   ? std::pair<Word, Word>{pin_v, 0}
                   : std::pair<Word, Word>{base[g], base_x[g]};
      });
      return (v ^ base[site]) | (x ^ base_x[site]);
    }
    case FaultSpec::Kind::kBridge: {
      const int site = fault.gate;
      const int site2 = fault.gate2_or_pin;
      // Two-valued wired resolution yields a defined value in
      // {v1 & v2, v1 | v2}, which differs from a line exactly where the two
      // lines disagree — one XOR decides the lanes for both bridge types.
      if (base_x == nullptr) return base[site] ^ base[site2];
      const auto [wv, wx] = wired3(fault.value, base[site], base_x[site],
                                   base[site2], base_x[site2]);
      return (wv ^ base[site]) | (wx ^ base_x[site]) | (wv ^ base[site2]) |
             (wx ^ base_x[site2]);
    }
  }
  return 0;
}

void LogicSim::overlay_prepare() {
  if (overlay_.empty()) {
    const std::size_t n = static_cast<std::size_t>(nl_->num_gates());
    overlay_.assign(n, 0);
    overlay_x_.assign(n, 0);
    overlay_stamp_.assign(n, 0);
    queue_.assign(n, QueueMark{});
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
    std::fill(queue_.begin(), queue_.end(), QueueMark{});
    overlay_epoch_ = 1;
  }
}

template <bool kX>
void LogicSim::eval_range(int first, int last) {
  for (int id = first; id < last; ++id) {
    if constexpr (kX) {
      const auto [v, x] = eval_gate_x(id);
      values_[static_cast<std::size_t>(id)] = v;
      xvals_[static_cast<std::size_t>(id)] = x;
    } else {
      const int at = wide_word_[static_cast<std::size_t>(id)];
      values_[static_cast<std::size_t>(id)] =
          at >= 0 ? eval_wide(id, at) : eval_gate(id);
    }
  }
}

void LogicSim::override_and_propagate(int gate, Word value) {
  // Two-valued by design: only the transition-delay simulator uses this,
  // and it never applies X-bearing patterns.
  values_[static_cast<std::size_t>(gate)] = value;
  eval_range<false>(gate + 1, nl_->num_gates());
}

void LogicSim::run(const FaultSpec& fault) {
  injections_.clear();
  bridges_.clear();
  add_injection(fault, kOnes);
  sweep();
}

void LogicSim::run_packed(std::span<const PackedEntry> entries, int num_pi) {
  require(entries.size() <= static_cast<std::size_t>(kWordBits),
          "packed evaluation exceeds the word width");
  const std::vector<int>& ins = nl_->inputs();
  const std::size_t num_in = ins.size();
  std::fill(input_words_.begin(), input_words_.end(), Word{0});
  std::fill(input_x_.begin(), input_x_.end(), Word{0});
  injections_.clear();
  bridges_.clear();
  for (std::size_t b = 0; b < entries.size(); ++b) {
    const PackedEntry& e = entries[b];
    for (std::size_t i = 0; i < static_cast<std::size_t>(num_pi); ++i) {
      const std::size_t g = static_cast<std::size_t>(ins[i]);
      input_words_[i] |= ((e.row[g] >> e.lane) & 1u) << b;
      if (e.row_x != nullptr) input_x_[i] |= ((e.row_x[g] >> e.lane) & 1u) << b;
    }
    for (std::size_t i = static_cast<std::size_t>(num_pi); i < num_in; ++i) {
      const std::size_t k = i - static_cast<std::size_t>(num_pi);
      input_words_[i] |= Word{(e.state >> k) & 1u} << b;
      input_x_[i] |= Word{(e.state_x >> k) & 1u} << b;
    }
    add_injection(e.fault, Word{1} << b);
  }
  input_x_set_ = true;  // inputs_have_x checks the words
  sweep();
}

void LogicSim::add_injection(const FaultSpec& fault, Word mask) {
  const Word forced = fault.value ? mask : 0;
  switch (fault.kind) {
    case FaultSpec::Kind::kNone:
      return;
    case FaultSpec::Kind::kStuckGate:
      injections_.push_back({fault.gate, -1, mask, forced, 0});
      return;
    case FaultSpec::Kind::kStuckPin:
      injections_.push_back({fault.gate, fault.gate2_or_pin, mask, forced, 0});
      return;
    case FaultSpec::Kind::kBridge:
      require(fault.gate >= 0 && fault.gate2_or_pin >= 0 &&
                  fault.gate != fault.gate2_or_pin,
              "bridge needs two distinct gates");
      bridges_.push_back({fault.gate, fault.gate2_or_pin, mask, fault.value});
      return;
  }
}

void LogicSim::sweep() {
  const auto by_gate = [](const Injection& a, const Injection& b) {
    return a.gate < b.gate;
  };
  std::sort(injections_.begin(), injections_.end(), by_gate);
  const bool x3 = inputs_have_x();
  if (x3) {
    x_clean_ = false;
  } else if (!x_clean_) {
    std::fill(xvals_.begin(), xvals_.end(), Word{0});
    x_clean_ = true;
  }
  x3 ? sweep_from<true>(0) : sweep_from<false>(0);
  if (bridges_.empty()) return;

  // Non-feedback bridges: neither line is in the other's fanin cone, so the
  // first sweep, which left the bridged bits fault-free, holds their raw
  // line values. Force both lines to the wired value and sweep again from
  // the lowest bridged gate; every transitive fanout has a larger id
  // (topological storage), and the other bits' injections reapply.
  int lowest = nl_->num_gates();
  for (const BridgeInjection& br : bridges_) {
    const std::size_t g1 = static_cast<std::size_t>(br.gate1);
    const std::size_t g2 = static_cast<std::size_t>(br.gate2);
    const auto [wv, wx] =
        wired3(br.or_type, values_[g1], xvals_[g1], values_[g2], xvals_[g2]);
    injections_.push_back({br.gate1, -1, br.mask, wv & br.mask, wx & br.mask});
    injections_.push_back({br.gate2, -1, br.mask, wv & br.mask, wx & br.mask});
    lowest = std::min({lowest, br.gate1, br.gate2});
  }
  std::sort(injections_.begin(), injections_.end(), by_gate);
  x3 ? sweep_from<true>(lowest) : sweep_from<false>(lowest);
}

template <bool kX>
void LogicSim::sweep_from(int first) {
  const Injection* at = injections_.data();
  const Injection* const end = at + injections_.size();
  while (at != end && at->gate < first) ++at;
  int id = first;
  while (at != end) {
    const int g = at->gate;
    const Injection* group_end = at;
    while (group_end != end && group_end->gate == g) ++group_end;
    eval_range<kX>(id, g);
    eval_injected<kX>(g, at, group_end);
    id = g + 1;
    at = group_end;
  }
  eval_range<kX>(id, nl_->num_gates());
}

template <bool kX>
void LogicSim::eval_injected(int g, const Injection* at,
                             const Injection* end) {
  bool pins = false;
  for (const Injection* r = at; r != end; ++r) pins = pins || r->pin >= 0;
  const std::size_t gi = static_cast<std::size_t>(g);
  Word v = 0;
  Word x = 0;
  if constexpr (kX) {
    std::tie(v, x) =
        pins ? eval_gate_x_with(g,
                                [&](int p, int f) {
                                  Word fv = values_[static_cast<std::size_t>(f)];
                                  Word fx = xvals_[static_cast<std::size_t>(f)];
                                  for (const Injection* r = at; r != end; ++r) {
                                    if (r->pin != p) continue;
                                    fv = (fv & ~r->mask) | r->value;
                                    fx &= ~r->mask;
                                  }
                                  return std::pair<Word, Word>{fv, fx};
                                })
             : eval_gate_x(g);
  } else {
    v = pins ? eval_gate_with(g,
                              [&](int p, int f) {
                                Word fv = values_[static_cast<std::size_t>(f)];
                                for (const Injection* r = at; r != end; ++r)
                                  if (r->pin == p)
                                    fv = (fv & ~r->mask) | r->value;
                                return fv;
                              })
             : eval_gate(g);
  }
  for (const Injection* r = at; r != end; ++r) {
    if (r->pin >= 0) continue;
    v = (v & ~r->mask) | r->value;
    x = (x & ~r->mask) | r->xval;
  }
  values_[gi] = v;
  if constexpr (kX) xvals_[gi] = x;
}

}  // namespace fstg
