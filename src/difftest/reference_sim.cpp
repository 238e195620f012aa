#include "difftest/reference_sim.h"

#include <algorithm>

#include "base/error.h"

namespace fstg::difftest {

namespace {

RV rv_not(RV a) {
  if (a == RV::kX) return RV::kX;
  return a == RV::k0 ? RV::k1 : RV::k0;
}

RV rv_xor(RV a, RV b) {
  if (a == RV::kX || b == RV::kX) return RV::kX;
  return a == b ? RV::k0 : RV::k1;
}

/// One-fault scalar evaluator. Values live in a per-instance array indexed
/// by gate id; inputs are set through set_input before eval().
class RefEval {
 public:
  explicit RefEval(const Netlist& nl)
      : nl_(&nl), val_(static_cast<std::size_t>(nl.num_gates()), RV::kX),
        in_(static_cast<std::size_t>(nl.num_inputs()), RV::kX) {}

  void set_input(int index, RV v) { in_[static_cast<std::size_t>(index)] = v; }

  /// Evaluate every gate under `fault`.
  void eval(const FaultSpec& fault) {
    switch (fault.kind) {
      case FaultSpec::Kind::kNone:
        sweep(0, -1, -1, fault);
        return;
      case FaultSpec::Kind::kStuckGate:
      case FaultSpec::Kind::kStuckPin:
        sweep(0, -1, -1, fault);
        return;
      case FaultSpec::Kind::kBridge: {
        // Raw (pre-bridge) line values first, then force both lines to the
        // wired value and redo everything downstream. Non-feedback bridges
        // guarantee neither site is in the other's cone, so the raw values
        // are exact.
        const FaultSpec none = FaultSpec::none();
        sweep(0, -1, -1, none);
        const int g1 = fault.gate;
        const int g2 = fault.gate2_or_pin;
        const RV wired = resolve_bridge(fault.value, value(g1), value(g2));
        val_[static_cast<std::size_t>(g1)] = wired;
        val_[static_cast<std::size_t>(g2)] = wired;
        sweep(std::min(g1, g2) + 1, g1, g2, none);
        return;
      }
    }
  }

  RV value(int gate) const { return val_[static_cast<std::size_t>(gate)]; }
  RV output(int k) const {
    return value(nl_->outputs()[static_cast<std::size_t>(k)]);
  }

 private:
  static RV resolve_bridge(bool or_type, RV a, RV b) {
    if (or_type) {  // wired-OR: a definite 1 on either side wins
      if (a == RV::k1 || b == RV::k1) return RV::k1;
      if (a == RV::k0 && b == RV::k0) return RV::k0;
      return RV::kX;
    }
    // wired-AND: a definite 0 on either side wins
    if (a == RV::k0 || b == RV::k0) return RV::k0;
    if (a == RV::k1 && b == RV::k1) return RV::k1;
    return RV::kX;
  }

  RV fanin_value(const Gate& g, int gate_id, std::size_t pin,
                 const FaultSpec& fault) const {
    if (fault.kind == FaultSpec::Kind::kStuckPin && fault.gate == gate_id &&
        static_cast<std::size_t>(fault.gate2_or_pin) == pin)
      return fault.value ? RV::k1 : RV::k0;
    return val_[static_cast<std::size_t>(g.fanins[pin])];
  }

  RV eval_gate(int id, const FaultSpec& fault) const {
    const Gate& g = nl_->gate(id);
    switch (g.type) {
      case GateType::kInput: {
        int index = 0;
        for (int in : nl_->inputs()) {
          if (in == id) return in_[static_cast<std::size_t>(index)];
          ++index;
        }
        return RV::kX;  // unreachable for well-formed netlists
      }
      case GateType::kConst0:
        return RV::k0;
      case GateType::kConst1:
        return RV::k1;
      case GateType::kBuf:
        return fanin_value(g, id, 0, fault);
      case GateType::kNot:
        return rv_not(fanin_value(g, id, 0, fault));
      case GateType::kAnd:
      case GateType::kNand: {
        bool any_x = false;
        bool any0 = false;
        for (std::size_t p = 0; p < g.fanins.size(); ++p) {
          const RV a = fanin_value(g, id, p, fault);
          if (a == RV::k0) any0 = true;
          if (a == RV::kX) any_x = true;
        }
        RV v = any0 ? RV::k0 : (any_x ? RV::kX : RV::k1);
        return g.type == GateType::kAnd ? v : rv_not(v);
      }
      case GateType::kOr:
      case GateType::kNor: {
        bool any_x = false;
        bool any1 = false;
        for (std::size_t p = 0; p < g.fanins.size(); ++p) {
          const RV a = fanin_value(g, id, p, fault);
          if (a == RV::k1) any1 = true;
          if (a == RV::kX) any_x = true;
        }
        RV v = any1 ? RV::k1 : (any_x ? RV::kX : RV::k0);
        return g.type == GateType::kOr ? v : rv_not(v);
      }
      case GateType::kXor:
      case GateType::kXnor: {
        RV v = RV::k0;
        for (std::size_t p = 0; p < g.fanins.size(); ++p)
          v = rv_xor(v, fanin_value(g, id, p, fault));
        return g.type == GateType::kXor ? v : rv_not(v);
      }
    }
    return RV::kX;
  }

  void sweep(int first, int skip_a, int skip_b, const FaultSpec& fault) {
    for (int id = first; id < nl_->num_gates(); ++id) {
      if (id == skip_a || id == skip_b) continue;
      if (fault.kind == FaultSpec::Kind::kStuckGate && id == fault.gate) {
        val_[static_cast<std::size_t>(id)] = fault.value ? RV::k1 : RV::k0;
        continue;
      }
      val_[static_cast<std::size_t>(id)] = eval_gate(id, fault);
    }
  }

  const Netlist* nl_;
  std::vector<RV> val_;
  std::vector<RV> in_;
};

/// Response of one test under one fault: per-cycle POs plus final state,
/// each value three-valued.
struct Response {
  std::vector<std::vector<RV>> po;  ///< [cycle][output]
  std::vector<RV> final_state;      ///< [state bit]
};

/// True when some position is defined in both vectors and differs.
bool distinguishable(const std::vector<RV>& a, const std::vector<RV>& b) {
  for (std::size_t k = 0; k < a.size(); ++k)
    if (a[k] != RV::kX && b[k] != RV::kX && a[k] != b[k]) return true;
  return false;
}

/// Simulate `test` under `fault`. Given `good`, the test's fault-free
/// response, the run stops after the first cycle whose primary outputs are
/// distinguishable from it and leaves `final_state` empty: detection is
/// settled there.
Response simulate_one(const ScanCircuit& circuit, const FunctionalTest& test,
                      const FaultSpec& fault, const Response* good = nullptr) {
  RefEval eval(circuit.comb);
  Response r;
  std::vector<RV> state(static_cast<std::size_t>(circuit.num_sv));
  for (int k = 0; k < circuit.num_sv; ++k)
    state[static_cast<std::size_t>(k)] =
        ((static_cast<std::uint32_t>(test.init_state) >> k) & 1u) ? RV::k1
                                                                  : RV::k0;
  for (std::size_t c = 0; c < test.inputs.size(); ++c) {
    const std::uint32_t in = test.inputs[c];
    const std::uint32_t inx =
        c < test.input_x.size() ? test.input_x[c] : 0u;
    for (int b = 0; b < circuit.num_pi; ++b) {
      RV v = ((in >> b) & 1u) ? RV::k1 : RV::k0;
      if ((inx >> b) & 1u) v = RV::kX;
      eval.set_input(b, v);
    }
    for (int k = 0; k < circuit.num_sv; ++k)
      eval.set_input(circuit.num_pi + k, state[static_cast<std::size_t>(k)]);
    eval.eval(fault);
    std::vector<RV> po(static_cast<std::size_t>(circuit.num_po));
    for (int k = 0; k < circuit.num_po; ++k)
      po[static_cast<std::size_t>(k)] = eval.output(k);
    r.po.push_back(std::move(po));
    if (good != nullptr && distinguishable(good->po[c], r.po.back())) return r;
    for (int k = 0; k < circuit.num_sv; ++k)
      state[static_cast<std::size_t>(k)] = eval.output(circuit.num_po + k);
  }
  r.final_state = std::move(state);
  return r;
}

/// True when the faulty response is distinguishable from the fault-free
/// one at some cycle's primary outputs or at the scan-out. A run that
/// stopped early ends in a distinguishable cycle, so its empty final state
/// is never compared.
bool detects(const Response& good, const Response& faulty) {
  for (std::size_t c = 0; c < faulty.po.size(); ++c)
    if (distinguishable(good.po[c], faulty.po[c])) return true;
  return distinguishable(good.final_state, faulty.final_state);
}

}  // namespace

std::vector<RV> reference_eval(const Netlist& nl,
                               const std::vector<RV>& inputs,
                               const FaultSpec& fault) {
  require(inputs.size() == static_cast<std::size_t>(nl.num_inputs()),
          "reference_eval: one value per input");
  RefEval eval(nl);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    eval.set_input(static_cast<int>(i), inputs[i]);
  eval.eval(fault);
  std::vector<RV> values(static_cast<std::size_t>(nl.num_gates()));
  for (int g = 0; g < nl.num_gates(); ++g)
    values[static_cast<std::size_t>(g)] = eval.value(g);
  return values;
}

RefTestTrace reference_good_trace(const ScanCircuit& circuit,
                                  const FunctionalTest& test) {
  const Response r = simulate_one(circuit, test, FaultSpec::none());
  RefTestTrace t;
  for (const std::vector<RV>& po : r.po) {
    std::uint32_t v = 0, x = 0;
    for (std::size_t k = 0; k < po.size(); ++k) {
      if (po[k] == RV::k1) v |= 1u << k;
      if (po[k] == RV::kX) x |= 1u << k;
    }
    t.po.push_back(v);
    t.po_x.push_back(x);
  }
  for (std::size_t k = 0; k < r.final_state.size(); ++k) {
    if (r.final_state[k] == RV::k1) t.final_state |= 1u << k;
    if (r.final_state[k] == RV::kX) t.final_state_x |= 1u << k;
  }
  return t;
}

ReferenceResult reference_simulate(const ScanCircuit& circuit,
                                   const TestSet& tests,
                                   const std::vector<FaultSpec>& faults) {
  ReferenceResult result;
  result.detected_by.assign(faults.size(), -1);
  result.test_effective.assign(tests.tests.size(), false);

  std::vector<Response> good;
  good.reserve(tests.tests.size());
  for (const FunctionalTest& t : tests.tests)
    good.push_back(simulate_one(circuit, t, FaultSpec::none()));

  for (std::size_t f = 0; f < faults.size(); ++f) {
    for (std::size_t t = 0; t < tests.tests.size(); ++t) {
      const Response faulty =
          simulate_one(circuit, tests.tests[t], faults[f], &good[t]);
      if (detects(good[t], faulty)) {
        result.detected_by[f] = static_cast<int>(t);
        result.test_effective[t] = true;
        ++result.detected_faults;
        break;  // lowest test index wins, like the engines
      }
    }
  }
  return result;
}

}  // namespace fstg::difftest
