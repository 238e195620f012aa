#include "fault/podem.h"

#include <algorithm>

#include "base/error.h"
#include "fault/fault_sim.h"

namespace fstg {

namespace {

/// Three-valued component (good or faulty machine view).
enum class V3 : std::uint8_t { k0 = 0, k1 = 1, kX = 2 };

V3 v3_not(V3 a) {
  if (a == V3::kX) return V3::kX;
  return a == V3::k0 ? V3::k1 : V3::k0;
}
V3 v3_and(V3 a, V3 b) {
  if (a == V3::k0 || b == V3::k0) return V3::k0;
  if (a == V3::k1 && b == V3::k1) return V3::k1;
  return V3::kX;
}
V3 v3_or(V3 a, V3 b) {
  if (a == V3::k1 || b == V3::k1) return V3::k1;
  if (a == V3::k0 && b == V3::k0) return V3::k0;
  return V3::kX;
}
V3 v3_xor(V3 a, V3 b) {
  if (a == V3::kX || b == V3::kX) return V3::kX;
  return a == b ? V3::k0 : V3::k1;
}

/// Composite value: the pair (good, faulty). D = (1,0), D' = (0,1).
struct V5 {
  V3 good = V3::kX;
  V3 faulty = V3::kX;

  bool is_error() const {
    return good != V3::kX && faulty != V3::kX && good != faulty;
  }
};

/// PODEM engine for one target fault.
class Podem {
 public:
  Podem(const ScanCircuit& circuit, const FaultSpec& fault,
        const PodemOptions& options)
      : circuit_(circuit),
        nl_(circuit.comb),
        fault_(fault),
        options_(options) {
    require(fault.kind == FaultSpec::Kind::kStuckGate ||
                fault.kind == FaultSpec::Kind::kStuckPin,
            "podem: only stuck-at faults are supported");
    pi_value_.assign(static_cast<std::size_t>(nl_.num_inputs()), V3::kX);
    values_.resize(static_cast<std::size_t>(nl_.num_gates()));
  }

  PodemResult run(robust::RunGuard& guard) {
    PodemResult result;
    simulate();
    while (true) {
      // One tick per decision/backtrack iteration, each of which costs one
      // full-netlist simulation.
      if (!guard.tick(static_cast<std::uint64_t>(nl_.num_gates()))) {
        result.status = PodemResult::Status::kAborted;
        result.budget_exhausted = true;
        return result;
      }
      if (result.backtracks > options_.backtrack_limit) {
        result.status = PodemResult::Status::kAborted;
        return result;
      }
      if (detected()) {
        result.status = PodemResult::Status::kDetected;
        result.pattern = extract_pattern();
        return result;
      }
      int obj_gate = -1;
      V3 obj_value = V3::kX;
      if (next_objective(obj_gate, obj_value)) {
        const auto [pi, value] = backtrace(obj_gate, obj_value);
        decisions_.push_back({pi, value, false});
        pi_value_[static_cast<std::size_t>(pi)] = value;
        simulate();
      } else {
        // Conflict: flip the most recent unflipped decision.
        bool flipped = false;
        while (!decisions_.empty()) {
          Decision& d = decisions_.back();
          if (!d.tried_both) {
            d.value = v3_not(d.value);
            d.tried_both = true;
            pi_value_[static_cast<std::size_t>(d.pi)] = d.value;
            ++result.backtracks;
            simulate();
            flipped = true;
            break;
          }
          pi_value_[static_cast<std::size_t>(d.pi)] = V3::kX;
          decisions_.pop_back();
        }
        if (!flipped) {
          result.status = PodemResult::Status::kRedundant;
          return result;
        }
      }
    }
  }

 private:
  struct Decision {
    int pi;
    V3 value;
    bool tried_both;
  };

  /// The gate whose *good* value activates the fault, and that value.
  int activation_site() const {
    if (fault_.kind == FaultSpec::Kind::kStuckGate) return fault_.gate;
    // Pin fault: the driver of the faulted pin must carry the opposite
    // value for the fault to matter.
    return nl_.gate(fault_.gate).fanins[static_cast<std::size_t>(
        fault_.gate2_or_pin)];
  }
  V3 activation_value() const { return fault_.value ? V3::k0 : V3::k1; }

  void simulate() {
    std::size_t input_index = 0;
    for (int id = 0; id < nl_.num_gates(); ++id) {
      const Gate& g = nl_.gate(id);
      V5 v;
      switch (g.type) {
        case GateType::kInput:
          v.good = pi_value_[input_index];
          v.faulty = v.good;
          ++input_index;
          break;
        case GateType::kConst0: v = {V3::k0, V3::k0}; break;
        case GateType::kConst1: v = {V3::k1, V3::k1}; break;
        case GateType::kBuf: v = fanin(id, 0); break;
        case GateType::kNot: {
          V5 a = fanin(id, 0);
          v = {v3_not(a.good), v3_not(a.faulty)};
          break;
        }
        case GateType::kAnd:
        case GateType::kNand: {
          v = {V3::k1, V3::k1};
          for (std::size_t p = 0; p < g.fanins.size(); ++p) {
            V5 a = fanin(id, static_cast<int>(p));
            v = {v3_and(v.good, a.good), v3_and(v.faulty, a.faulty)};
          }
          if (g.type == GateType::kNand)
            v = {v3_not(v.good), v3_not(v.faulty)};
          break;
        }
        case GateType::kOr:
        case GateType::kNor: {
          v = {V3::k0, V3::k0};
          for (std::size_t p = 0; p < g.fanins.size(); ++p) {
            V5 a = fanin(id, static_cast<int>(p));
            v = {v3_or(v.good, a.good), v3_or(v.faulty, a.faulty)};
          }
          if (g.type == GateType::kNor) v = {v3_not(v.good), v3_not(v.faulty)};
          break;
        }
        case GateType::kXor:
        case GateType::kXnor: {
          v = {V3::k0, V3::k0};
          for (std::size_t p = 0; p < g.fanins.size(); ++p) {
            V5 a = fanin(id, static_cast<int>(p));
            v = {v3_xor(v.good, a.good), v3_xor(v.faulty, a.faulty)};
          }
          if (g.type == GateType::kXnor)
            v = {v3_not(v.good), v3_not(v.faulty)};
          break;
        }
      }
      if (fault_.kind == FaultSpec::Kind::kStuckGate && fault_.gate == id)
        v.faulty = fault_.value ? V3::k1 : V3::k0;
      values_[static_cast<std::size_t>(id)] = v;
    }
  }

  /// Fanin value as seen by gate `id` (stuck pins override the faulty
  /// component for that gate only).
  V5 fanin(int id, int pin) const {
    const Gate& g = nl_.gate(id);
    V5 v = values_[static_cast<std::size_t>(
        g.fanins[static_cast<std::size_t>(pin)])];
    if (fault_.kind == FaultSpec::Kind::kStuckPin && fault_.gate == id &&
        fault_.gate2_or_pin == pin)
      v.faulty = fault_.value ? V3::k1 : V3::k0;
    return v;
  }

  bool detected() const {
    for (int out : nl_.outputs())
      if (values_[static_cast<std::size_t>(out)].is_error()) return true;
    return false;
  }

  /// Pick the next objective (gate, good-value). Returns false on conflict
  /// (fault unactivatable or empty D-frontier).
  bool next_objective(int& obj_gate, V3& obj_value) const {
    const int site = activation_site();
    const V3 need = activation_value();
    const V3 have = values_[static_cast<std::size_t>(site)].good;
    if (have == V3::kX) {
      obj_gate = site;
      obj_value = need;
      return true;
    }
    if (have != need) return false;  // fault can never be activated now

    // D-frontier: a gate with an error on some input and X output.
    for (int id = 0; id < nl_.num_gates(); ++id) {
      const Gate& g = nl_.gate(id);
      if (g.type == GateType::kInput || g.fanins.empty()) continue;
      const V5& out = values_[static_cast<std::size_t>(id)];
      if (out.good != V3::kX && out.faulty != V3::kX) continue;
      bool has_error = false;
      for (std::size_t p = 0; p < g.fanins.size(); ++p)
        if (fanin(id, static_cast<int>(p)).is_error()) has_error = true;
      if (!has_error) continue;
      // Objective: set one X input to the gate's non-controlling value.
      for (std::size_t p = 0; p < g.fanins.size(); ++p) {
        const V5 a = fanin(id, static_cast<int>(p));
        if (a.good != V3::kX) continue;
        obj_gate = g.fanins[p];
        switch (g.type) {
          case GateType::kAnd:
          case GateType::kNand:
            obj_value = V3::k1;
            break;
          case GateType::kOr:
          case GateType::kNor:
            obj_value = V3::k0;
            break;
          default:
            obj_value = V3::k0;  // XOR/BUF/NOT: any defined value works
            break;
        }
        return true;
      }
    }
    return false;  // no way to extend propagation
  }

  /// Walk the objective back to an unassigned primary input.
  std::pair<int, V3> backtrace(int gate, V3 value) const {
    int cur = gate;
    V3 v = value;
    while (nl_.gate(cur).type != GateType::kInput) {
      const Gate& g = nl_.gate(cur);
      switch (g.type) {
        case GateType::kNot:
        case GateType::kNand:
        case GateType::kNor:
          v = v3_not(v);
          break;
        case GateType::kXor:
        case GateType::kXnor: {
          // Aim for v assuming every other fanin resolves to its known
          // value (undefined fanins besides the one we follow count as 0).
          V3 known = V3::k0;
          for (int f : g.fanins) {
            const V3 fg = values_[static_cast<std::size_t>(f)].good;
            if (fg != V3::kX) known = v3_xor(known, fg);
          }
          v = v3_xor(v, known);
          if (g.type == GateType::kXnor) v = v3_not(v);
          break;
        }
        default:
          break;
      }
      // Follow any X-valued fanin (one must exist while the output is X).
      int next = -1;
      for (int f : g.fanins)
        if (values_[static_cast<std::size_t>(f)].good == V3::kX) {
          next = f;
          break;
        }
      require(next >= 0, "podem: backtrace hit a fully assigned gate");
      cur = next;
    }
    if (v == V3::kX) v = V3::k0;
    return {cur, v};
  }

  ScanPattern extract_pattern() const {
    ScanPattern p;
    std::uint32_t ic = 0, state = 0;
    for (int b = 0; b < circuit_.num_pi; ++b)
      if (pi_value_[static_cast<std::size_t>(b)] == V3::k1) ic |= 1u << b;
    for (int k = 0; k < circuit_.num_sv; ++k)
      if (pi_value_[static_cast<std::size_t>(circuit_.num_pi + k)] == V3::k1)
        state |= 1u << k;
    p.init_state = state;
    p.inputs = {ic};
    return p;
  }

  const ScanCircuit& circuit_;
  const Netlist& nl_;
  FaultSpec fault_;
  PodemOptions options_;
  std::vector<V3> pi_value_;
  std::vector<V5> values_;
  std::vector<Decision> decisions_;
};

}  // namespace

PodemResult podem(const ScanCircuit& circuit, const FaultSpec& fault,
                  const PodemOptions& options) {
  robust::RunGuard guard(options.budget, "podem.run");
  PodemResult result = Podem(circuit, fault, options).run(guard);
  if (result.status == PodemResult::Status::kDetected) {
    // Safety net: the generated vector must actually detect the fault
    // (gate_level_atpg's dropping pass checks its vectors the same way).
    TestSet one;
    one.tests.push_back({static_cast<int>(result.pattern.init_state),
                         result.pattern.inputs, -1, {}});
    require(simulate_faults(circuit, one, {fault}).detected_faults == 1,
            "podem: generated vector fails verification");
  }
  return result;
}

GateAtpgResult gate_level_atpg(const ScanCircuit& circuit,
                               const std::vector<FaultSpec>& faults,
                               const PodemOptions& options) {
  GateAtpgResult result;
  std::vector<bool> dropped(faults.size(), false);
  robust::RunGuard guard(options.budget, "podem.run");

  for (std::size_t f = 0; f < faults.size(); ++f) {
    if (dropped[f]) continue;
    if (guard.exhausted()) {
      // Budget spent: stop targeting, report the tail as unprocessed.
      result.complete = false;
      for (std::size_t g = f; g < faults.size(); ++g)
        if (!dropped[g]) ++result.unprocessed;
      break;
    }
    PodemResult r = Podem(circuit, faults[f], options).run(guard);
    if (r.budget_exhausted) {
      result.complete = false;
      for (std::size_t g = f; g < faults.size(); ++g)
        if (!dropped[g]) ++result.unprocessed;
      break;
    }
    switch (r.status) {
      case PodemResult::Status::kRedundant:
        ++result.redundant;
        dropped[f] = true;
        continue;
      case PodemResult::Status::kAborted:
        ++result.aborted;
        dropped[f] = true;  // give up on this target
        continue;
      case PodemResult::Status::kDetected:
        break;
    }

    // Record the vector as a length-one scan test.
    FunctionalTest test;
    test.init_state = static_cast<int>(r.pattern.init_state);
    test.inputs = r.pattern.inputs;
    std::uint32_t po = 0, ns = 0;
    circuit.step(r.pattern.init_state, r.pattern.inputs[0], po, ns);
    test.final_state = static_cast<int>(ns);
    result.tests.tests.push_back(test);

    // Drop every remaining fault the new vector detects.
    TestSet one;
    one.tests.push_back(test);
    std::vector<FaultSpec> alive;
    std::vector<std::size_t> alive_index;
    for (std::size_t g = f; g < faults.size(); ++g) {
      if (dropped[g]) continue;
      alive.push_back(faults[g]);
      alive_index.push_back(g);
    }
    FaultSimResult sim = simulate_faults(circuit, one, alive);
    for (std::size_t i = 0; i < alive.size(); ++i) {
      if (sim.detected_by[i] >= 0) {
        dropped[alive_index[i]] = true;
        ++result.detected;
      }
    }
    require(dropped[f], "podem: dropping pass missed the target fault");
  }
  return result;
}

}  // namespace fstg
