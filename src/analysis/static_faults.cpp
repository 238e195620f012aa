#include "analysis/static_faults.h"

#include <numeric>

#include "base/obs/metrics.h"
#include "netlist/cones.h"
#include "netlist/reach.h"

namespace fstg::analysis {

const char* fault_verdict_name(FaultVerdict verdict) {
  switch (verdict) {
    case FaultVerdict::kUnknown: return "unknown";
    case FaultVerdict::kUnexcitable: return "unexcitable";
    case FaultVerdict::kUnpropagatable: return "unpropagatable";
  }
  return "?";
}

namespace {

/// Controlling input value of a gate type: 0 for AND/NAND, 1 for OR/NOR,
/// -1 when no single input value controls the output (XOR, BUF, ...).
int controlling_value(GateType type) {
  switch (type) {
    case GateType::kAnd:
    case GateType::kNand:
      return 0;
    case GateType::kOr:
    case GateType::kNor:
      return 1;
    default:
      return -1;
  }
}

}  // namespace

StaticAnalyzer::StaticAnalyzer(const Netlist& nl,
                               const AnalyzerOptions& options)
    : nl_(&nl),
      engine_(nl, options.engine),
      dom_(output_dominators(nl)),
      reach_(forward_reachability(nl)) {
  static const obs::Counter c_runs = obs::counter("analysis.runs");
  static const obs::Counter c_constants = obs::counter("analysis.constants");
  static const obs::Counter c_learned =
      obs::counter("analysis.learned_implications");
  c_runs.inc();
  c_constants.add(engine_.num_constants());
  c_learned.add(engine_.num_learned());
}

bool StaticAnalyzer::observable(int gate) const {
  return dom_[static_cast<std::size_t>(gate)] != kDominatorDead;
}

bool StaticAnalyzer::propagation_blocked(int from,
                                         const Implications& imp) const {
  for (int d = dom_[static_cast<std::size_t>(from)]; d >= 0;
       d = dom_[static_cast<std::size_t>(d)]) {
    const Gate& gate = nl_->gate(d);
    const int ctrl = controlling_value(gate.type);
    if (ctrl < 0) continue;
    for (int s : gate.fanins) {
      // Side inputs only: a fanin inside the fault cone carries a faulty
      // value, so its fault-free implication proves nothing about it.
      if (s == from || reaches(from, s)) continue;
      if (imp.value_of(s) == ctrl) return true;
    }
  }
  return false;
}

FaultVerdict StaticAnalyzer::classify_stem(int gate, bool value) const {
  const signed char cv = engine_.constant(gate);
  if (cv == (value ? 1 : 0)) return FaultVerdict::kUnexcitable;
  if (!observable(gate)) return FaultVerdict::kUnpropagatable;
  // Excitation needs the fault-free line at ¬v; everything that closure
  // implies holds in every exciting test.
  const Implications imp = engine_.implications(gate, !value);
  if (imp.conflict) return FaultVerdict::kUnexcitable;
  if (propagation_blocked(gate, imp)) return FaultVerdict::kUnpropagatable;
  return FaultVerdict::kUnknown;
}

FaultVerdict StaticAnalyzer::classify_pin(int gate, int pin,
                                          bool value) const {
  const Gate& g = nl_->gate(gate);
  if (pin < 0 || static_cast<std::size_t>(pin) >= g.fanins.size())
    return FaultVerdict::kUnknown;
  const int driver = g.fanins[static_cast<std::size_t>(pin)];
  const signed char cv = engine_.constant(driver);
  if (cv == (value ? 1 : 0)) return FaultVerdict::kUnexcitable;
  if (!observable(gate)) return FaultVerdict::kUnpropagatable;
  const Implications imp = engine_.implications(driver, !value);
  if (imp.conflict) return FaultVerdict::kUnexcitable;
  // A branch fault corrupts exactly one pin of `gate`; every other line in
  // the circuit (including the driver's other branches) stays fault-free.
  // First hurdle: the owning gate's own side pins.
  const int ctrl = controlling_value(g.type);
  if (ctrl >= 0) {
    for (std::size_t q = 0; q < g.fanins.size(); ++q) {
      if (static_cast<int>(q) == pin) continue;
      const int s = g.fanins[q];
      // The same driver on another pin carries the fault-free value ¬v.
      const int sv = s == driver ? (value ? 0 : 1) : imp.value_of(s);
      if (sv == ctrl) return FaultVerdict::kUnpropagatable;
    }
  }
  // Beyond `gate` the error flows inside gate's fanout cone only.
  if (propagation_blocked(gate, imp)) return FaultVerdict::kUnpropagatable;
  return FaultVerdict::kUnknown;
}

FaultVerdict StaticAnalyzer::classify_bridge(int g1, int g2,
                                             bool or_type) const {
  // The wired function only changes a line where the two lines differ. If
  // they are statically always equal, the bridge is a no-op.
  const signed char c1 = engine_.constant(g1);
  const signed char c2 = engine_.constant(g2);
  if (c1 != -1 && c1 == c2) return FaultVerdict::kUnexcitable;
  if (engine_.implies(g1, false, g2, false) &&
      engine_.implies(g1, true, g2, true))
    return FaultVerdict::kUnexcitable;
  if (!observable(g1) && !observable(g2))
    return FaultVerdict::kUnpropagatable;
  // Per-direction analysis. The wired function corrupts exactly one line
  // at a time: for wired-AND, line a flips 1→0 only when (a=1, b=0); for
  // wired-OR, a flips 0→1 only when (a=0, b=1) — the other line keeps its
  // fault-free value, so the error is confined to the flipped line's
  // fanout cone and the stem-fault dominator reasoning applies under the
  // *joint* closure of both excitation literals.
  const bool lv = !or_type;  // flipped line's fault-free value
  bool excitable1 = false, excitable2 = false;
  bool blocked1 = true, blocked2 = true;
  {
    const Implications imp = engine_.implications(g1, lv, g2, !lv);
    if (!imp.conflict) {
      excitable1 = true;
      blocked1 = !observable(g1) || propagation_blocked(g1, imp);
    }
  }
  {
    const Implications imp = engine_.implications(g2, lv, g1, !lv);
    if (!imp.conflict) {
      excitable2 = true;
      blocked2 = !observable(g2) || propagation_blocked(g2, imp);
    }
  }
  if (!excitable1 && !excitable2) return FaultVerdict::kUnexcitable;
  if (blocked1 && blocked2) return FaultVerdict::kUnpropagatable;
  return FaultVerdict::kUnknown;
}

FaultVerdict StaticAnalyzer::classify(const FaultSpec& fault) const {
  const int n = nl_->num_gates();
  auto in_range = [n](int g) { return g >= 0 && g < n; };
  switch (fault.kind) {
    case FaultSpec::Kind::kNone:
      return FaultVerdict::kUnknown;
    case FaultSpec::Kind::kStuckGate:
      if (!in_range(fault.gate)) return FaultVerdict::kUnknown;
      return classify_stem(fault.gate, fault.value);
    case FaultSpec::Kind::kStuckPin:
      if (!in_range(fault.gate)) return FaultVerdict::kUnknown;
      return classify_pin(fault.gate, fault.gate2_or_pin, fault.value);
    case FaultSpec::Kind::kBridge:
      if (!in_range(fault.gate) || !in_range(fault.gate2_or_pin))
        return FaultVerdict::kUnknown;
      return classify_bridge(fault.gate, fault.gate2_or_pin, fault.value);
  }
  return FaultVerdict::kUnknown;
}

namespace {

/// Union-find over stem-fault literals (2 * gate + stuck_value).
struct LitUnion {
  std::vector<int> parent;
  explicit LitUnion(int n) : parent(static_cast<std::size_t>(n)) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
  }
};

}  // namespace

FaultAnalysis StaticAnalyzer::analyze(
    const std::vector<FaultSpec>& faults) const {
  FaultAnalysis result;
  result.verdict.assign(faults.size(), FaultVerdict::kUnknown);
  result.equiv_rep.resize(faults.size());
  std::iota(result.equiv_rep.begin(), result.equiv_rep.end(),
            std::size_t{0});

  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultVerdict v = classify(faults[i]);
    result.verdict[i] = v;
    if (v == FaultVerdict::kUnexcitable) ++result.unexcitable;
    if (v == FaultVerdict::kUnpropagatable) ++result.unpropagatable;
  }

  // Equivalence classes over stem literals: single-fanout chain rules
  // merge a driver-line fault with the matching fault on its one fanout
  // gate, transitively across whole fanout-free chains — strictly more
  // than the gate-local pin collapsing in enumerate_stuck_at.
  const int n = nl_->num_gates();
  LitUnion uf(2 * n);
  {
    std::vector<int> fanout_count(static_cast<std::size_t>(n), 0);
    std::vector<int> single_fanout(static_cast<std::size_t>(n), -1);
    for (int id = 0; id < n; ++id) {
      for (int f : nl_->gate(id).fanins) {
        ++fanout_count[static_cast<std::size_t>(f)];
        single_fanout[static_cast<std::size_t>(f)] = id;
      }
    }
    std::vector<char> is_output(static_cast<std::size_t>(n), 0);
    for (int o : nl_->outputs()) is_output[static_cast<std::size_t>(o)] = 1;
    for (int a = 0; a < n; ++a) {
      const std::size_t as = static_cast<std::size_t>(a);
      if (fanout_count[as] != 1 || is_output[as]) continue;
      const int h = single_fanout[as];
      switch (nl_->gate(h).type) {
        case GateType::kBuf:
          uf.unite(2 * a + 0, 2 * h + 0);
          uf.unite(2 * a + 1, 2 * h + 1);
          break;
        case GateType::kNot:
          uf.unite(2 * a + 0, 2 * h + 1);
          uf.unite(2 * a + 1, 2 * h + 0);
          break;
        case GateType::kAnd:
          uf.unite(2 * a + 0, 2 * h + 0);
          break;
        case GateType::kNand:
          uf.unite(2 * a + 0, 2 * h + 1);
          break;
        case GateType::kOr:
          uf.unite(2 * a + 1, 2 * h + 1);
          break;
        case GateType::kNor:
          uf.unite(2 * a + 1, 2 * h + 0);
          break;
        default:
          break;
      }
    }
  }

  // Map each analyzable fault to a class literal: stems directly,
  // controlling-value and unary pin faults via the gate-local collapse.
  auto class_lit = [&](const FaultSpec& f) -> int {
    if (f.kind == FaultSpec::Kind::kStuckGate)
      return uf.find(2 * f.gate + (f.value ? 1 : 0));
    if (f.kind != FaultSpec::Kind::kStuckPin) return -1;
    const Gate& g = nl_->gate(f.gate);
    if (f.gate2_or_pin < 0 ||
        static_cast<std::size_t>(f.gate2_or_pin) >= g.fanins.size())
      return -1;
    switch (g.type) {
      case GateType::kBuf:
        return uf.find(2 * f.gate + (f.value ? 1 : 0));
      case GateType::kNot:
        return uf.find(2 * f.gate + (f.value ? 0 : 1));
      case GateType::kAnd:
        return f.value ? -1 : uf.find(2 * f.gate + 0);
      case GateType::kNand:
        return f.value ? -1 : uf.find(2 * f.gate + 1);
      case GateType::kOr:
        return f.value ? uf.find(2 * f.gate + 1) : -1;
      case GateType::kNor:
        return f.value ? uf.find(2 * f.gate + 0) : -1;
      default:
        return -1;
    }
  };

  std::vector<std::size_t> first_of(static_cast<std::size_t>(2 * n),
                                    faults.size());
  std::size_t classes = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const int root = class_lit(faults[i]);
    if (root < 0) {
      ++classes;  // uncollapsible fault: its own class
      continue;
    }
    std::size_t& first = first_of[static_cast<std::size_t>(root)];
    if (first == faults.size()) {
      first = i;
      ++classes;
    } else {
      result.equiv_rep[i] = first;
      ++result.equiv_merged;
    }
  }
  result.equiv_classes = classes;

  static const obs::Counter c_checked = obs::counter("analysis.faults_checked");
  static const obs::Counter c_unexc = obs::counter("analysis.unexcitable");
  static const obs::Counter c_unprop =
      obs::counter("analysis.unpropagatable");
  static const obs::Counter c_merged = obs::counter("analysis.equiv_merged");
  c_checked.add(faults.size());
  c_unexc.add(result.unexcitable);
  c_unprop.add(result.unpropagatable);
  c_merged.add(result.equiv_merged);
  return result;
}

void register_analysis_counters() {
  static const char* const kNames[] = {
      "analysis.runs",           "analysis.constants",
      "analysis.learned_implications", "analysis.faults_checked",
      "analysis.unexcitable",    "analysis.unpropagatable",
      "analysis.equiv_merged",   "analysis.pruned",
  };
  for (const char* name : kNames) obs::counter(name);
}

}  // namespace fstg::analysis
