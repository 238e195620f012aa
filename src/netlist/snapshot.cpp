#include "netlist/snapshot.h"

#include <utility>

#include "base/error.h"
#include "base/store/serial.h"

namespace fstg {

namespace {

constexpr std::uint8_t kMaxGateType = static_cast<std::uint8_t>(GateType::kXnor);

std::vector<int> to_int_vec(const std::vector<std::int32_t>& v) {
  return std::vector<int>(v.begin(), v.end());
}

std::vector<std::int32_t> to_i32_vec(const std::vector<int>& v) {
  return std::vector<std::int32_t>(v.begin(), v.end());
}

}  // namespace

void serialize_netlist(const Netlist& nl, store::BlobWriter& w) {
  w.u64(static_cast<std::uint64_t>(nl.num_gates()));
  for (int g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(g);
    w.u8(static_cast<std::uint8_t>(gate.type));
    w.str(gate.name);
    w.vec_i32(to_i32_vec(gate.fanins));
  }
  w.vec_i32(to_i32_vec(nl.inputs()));
  w.vec_i32(to_i32_vec(nl.outputs()));
}

bool deserialize_netlist(store::BlobReader& r, Netlist* out) {
  const std::uint64_t num_gates = r.u64();
  // Each gate record is at least type(1) + two 8-byte length prefixes.
  if (!r.ok() || num_gates * 17 > r.remaining()) return false;
  Netlist nl;
  for (std::uint64_t g = 0; g < num_gates; ++g) {
    const std::uint8_t type = r.u8();
    std::string name = r.str();
    const std::vector<std::int32_t> fanins = r.vec_i32();
    if (!r.ok() || type > kMaxGateType) return false;
    // The builder re-enforces topological order and per-type fanin arity;
    // a violation in a decoded payload is corruption, not an error.
    try {
      if (static_cast<GateType>(type) == GateType::kInput) {
        if (!fanins.empty()) return false;
        nl.add_input(std::move(name));
      } else {
        nl.add_gate(static_cast<GateType>(type), to_int_vec(fanins),
                    std::move(name));
      }
    } catch (const Error&) {
      return false;
    }
  }
  const std::vector<std::int32_t> inputs = r.vec_i32();
  const std::vector<std::int32_t> outputs = r.vec_i32();
  if (!r.ok()) return false;
  // Inputs are implied by the gate records; the stored list must agree.
  if (to_int_vec(inputs) != nl.inputs()) return false;
  for (std::int32_t o : outputs) {
    if (o < 0 || o >= nl.num_gates()) return false;
    nl.add_output(o);
  }
  *out = std::move(nl);
  return true;
}

void serialize_scan_circuit(const ScanCircuit& circuit, store::BlobWriter& w) {
  serialize_netlist(circuit.comb, w);
  w.i32(circuit.num_pi);
  w.i32(circuit.num_po);
  w.i32(circuit.num_sv);
  w.str(circuit.name);
}

bool deserialize_scan_circuit(store::BlobReader& r, ScanCircuit* out) {
  ScanCircuit circuit;
  if (!deserialize_netlist(r, &circuit.comb)) return false;
  circuit.num_pi = r.i32();
  circuit.num_po = r.i32();
  circuit.num_sv = r.i32();
  circuit.name = r.str();
  if (!r.ok()) return false;
  if (circuit.num_pi < 0 || circuit.num_po < 0 || circuit.num_sv < 0)
    return false;
  if (circuit.comb.num_inputs() != circuit.comb_inputs() ||
      circuit.comb.num_outputs() != circuit.comb_outputs())
    return false;
  *out = std::move(circuit);
  return true;
}

void serialize_encoding(const Encoding& encoding, store::BlobWriter& w) {
  w.i32(encoding.state_bits);
  w.vec_u32(encoding.code_of_state);
  w.vec_i32(encoding.state_of_code);
}

bool deserialize_encoding(store::BlobReader& r, Encoding* out) {
  Encoding e;
  e.state_bits = r.i32();
  e.code_of_state = r.vec_u32();
  e.state_of_code = to_int_vec(r.vec_i32());
  if (!r.ok() || e.state_bits < 0 || e.state_bits > 24) return false;
  if (e.state_of_code.size() != e.num_codes()) return false;
  if (e.code_of_state.size() > e.num_codes()) return false;
  if (!e.valid()) return false;
  *out = std::move(e);
  return true;
}

void serialize_cover(const Cover& cover, store::BlobWriter& w) {
  w.i32(cover.num_vars());
  w.u64(cover.size());
  for (const Cube& c : cover.cubes()) w.u64(c.raw_bits());
}

bool deserialize_cover(store::BlobReader& r, Cover* out) {
  const std::int32_t num_vars = r.i32();
  const std::uint64_t num_cubes = r.u64();
  if (!r.ok() || num_vars < 0 || num_vars > 32) return false;
  if (num_cubes * 8 > r.remaining()) return false;
  const std::uint64_t var_mask =
      num_vars == 32 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << (2 * num_vars)) - 1;
  Cover cover(num_vars);
  for (std::uint64_t i = 0; i < num_cubes; ++i) {
    const std::uint64_t bits = r.u64();
    if (!r.ok()) return false;
    // No bits outside the variable range, and no 00 (empty) literal pair.
    if ((bits & ~var_mask) != 0) return false;
    Cube c = Cube::full(num_vars);
    for (int v = 0; v < num_vars; ++v) {
      const std::uint64_t lit = (bits >> (2 * v)) & 3u;
      if (lit == 0) return false;
      c.set(v, static_cast<Lit>(lit));
    }
    cover.add(c);
  }
  *out = std::move(cover);
  return true;
}

void serialize_synthesis_result(const SynthesisResult& result,
                                store::BlobWriter& w) {
  serialize_scan_circuit(result.circuit, w);
  serialize_encoding(result.encoding, w);
  w.u64(result.covers.size());
  for (const Cover& c : result.covers) serialize_cover(c, w);
}

bool deserialize_synthesis_result(store::BlobReader& r, SynthesisResult* out) {
  SynthesisResult result;
  if (!deserialize_scan_circuit(r, &result.circuit)) return false;
  if (!deserialize_encoding(r, &result.encoding)) return false;
  if (result.encoding.state_bits != result.circuit.num_sv) return false;
  const std::uint64_t num_covers = r.u64();
  if (!r.ok() || num_covers * 12 > r.remaining()) return false;
  if (num_covers != static_cast<std::uint64_t>(result.circuit.comb_outputs()))
    return false;
  result.covers.reserve(num_covers);
  for (std::uint64_t i = 0; i < num_covers; ++i) {
    Cover c;
    if (!deserialize_cover(r, &c)) return false;
    if (c.num_vars() != result.circuit.comb_inputs()) return false;
    result.covers.push_back(std::move(c));
  }
  *out = std::move(result);
  return true;
}

}  // namespace fstg
