#pragma once

#include "netlist/synth.h"

namespace fstg::store {
class BlobWriter;
class BlobReader;
}  // namespace fstg::store

namespace fstg {

/// --- Artifact-store codecs for synthesized netlists ----------------------
///
/// Binary snapshots of the gate-level derivation chain (base/store/serial.h
/// payloads): the netlist itself, the scan wrapper, the state encoding, the
/// minimized covers and the full SynthesisResult. Every deserializer
/// re-validates the structural invariants the builders enforce (topological
/// fanin order, fanin arity per gate type, encoding bijection, output words
/// inside the declared widths) and returns false — never throws — on any
/// violation, so the cache layer can treat a semantically damaged payload
/// exactly like a checksum failure: a miss that costs a recompute, never a
/// wrong circuit.

void serialize_netlist(const Netlist& nl, store::BlobWriter& w);
bool deserialize_netlist(store::BlobReader& r, Netlist* out);

void serialize_scan_circuit(const ScanCircuit& circuit, store::BlobWriter& w);
bool deserialize_scan_circuit(store::BlobReader& r, ScanCircuit* out);

void serialize_encoding(const Encoding& encoding, store::BlobWriter& w);
bool deserialize_encoding(store::BlobReader& r, Encoding* out);

void serialize_cover(const Cover& cover, store::BlobWriter& w);
bool deserialize_cover(store::BlobReader& r, Cover* out);

void serialize_synthesis_result(const SynthesisResult& result,
                                store::BlobWriter& w);
bool deserialize_synthesis_result(store::BlobReader& r, SynthesisResult* out);

}  // namespace fstg
