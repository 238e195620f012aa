#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/generator.h"
#include "base/store/store.h"
#include "fsm/state_table.h"
#include "kiss/kiss2.h"
#include "netlist/synth.h"
#include "sim/logic_sim.h"

namespace fstg::harness {

/// --- Pipeline artifact cache ---------------------------------------------
///
/// Typed load/save wrappers over the content-addressed store
/// (base/store/store.h) for the pipeline's three hot derivations:
/// synthesized netlists (+ the read-back state table), generation results
/// (tests + UIO tables) and enumerated fault lists. A store written by an
/// earlier build may also hold `*.reach.blob` files (retired type 4, the
/// forward-reachability matrix): nothing reads them, `fstg cache verify`
/// checks them like any blob and `fstg cache gc` evicts them by age.
///
/// Keys hash the *canonical text* of the derivation's input (write_kiss2
/// for FSM stages, to_blif for netlist stages) plus every option that
/// changes the artifact plus the payload schema version — so a warm hit is
/// byte-equivalent to recomputing, and any input, option, or format change
/// is automatically a miss.
///
/// Every loader returns false on a miss OR any damage (the deserializers
/// re-validate structure; damage also counts store.corrupt.* and unlinks
/// the blob). Savers never throw; a full or read-only cache degrades to
/// recompute. Budget-degraded generation results are NOT cached: a blob
/// written under a tight budget must never short-circuit a later unlimited
/// run.

/// Payload type ids (part of every blob header).
inline constexpr std::uint32_t kTypeSynth = 1;
inline constexpr std::uint32_t kTypeGen = 2;
inline constexpr std::uint32_t kTypeFaults = 3;

/// Payload schema versions: bump when the serialized layout of the
/// corresponding artifact changes; old blobs then read as misses
/// (store.corrupt.schema) and are repaired by the next save.
inline constexpr std::uint32_t kSynthSchema = 1;
inline constexpr std::uint32_t kGenSchema = 1;
inline constexpr std::uint32_t kFaultsSchema = 1;

/// Key for the synthesis stage: canonical KISS2 text + synthesis options.
std::uint64_t synth_key(const Kiss2Fsm& fsm, const SynthesisOptions& options);

/// Key for the generation stage: the *table's* serialized content (not the
/// FSM text — generation depends only on the completed table) + generator
/// options. The budget envelope is deliberately excluded: only complete
/// (non-degraded) results are cached, and those are budget-independent.
std::uint64_t gen_key(const StateTable& table, const GeneratorOptions& options);

/// Key for fault enumeration over one netlist: canonical BLIF + the
/// sampling cap.
std::uint64_t faults_key(const std::string& blif_text,
                         std::size_t max_bridging_faults);

/// Synthesis artifact: the result plus the read-back table and the
/// measured synthesis time (reported by warm runs as the cost of the run
/// that produced the blob).
bool load_synth(store::Store* s, std::uint64_t key, SynthesisResult* synth,
                StateTable* table, double* synth_seconds);
void save_synth(store::Store* s, std::uint64_t key,
                const SynthesisResult& synth, const StateTable& table,
                double synth_seconds);

/// Generation artifact (tests, UIO set, per-transition map, timings).
/// save_gen refuses degraded results.
bool load_gen(store::Store* s, std::uint64_t key, GeneratorResult* gen);
void save_gen(store::Store* s, std::uint64_t key, const GeneratorResult& gen);

/// Enumerated (and possibly sampled) fault lists for one netlist.
bool load_faults(store::Store* s, std::uint64_t key, int num_gates,
                 std::vector<FaultSpec>* sa, std::vector<FaultSpec>* br,
                 std::size_t* br_enumerated);
void save_faults(store::Store* s, std::uint64_t key,
                 const std::vector<FaultSpec>& sa,
                 const std::vector<FaultSpec>& br, std::size_t br_enumerated);

/// --- Campaign checkpoints ------------------------------------------------
///
/// Durable per-circuit completion records under
/// <cache>/checkpoints/<campaign>/. A resumed campaign re-runs every
/// circuit, but completed circuits' stages all hit the warm store, so the
/// sweep effectively restarts from the last durable stage; the records
/// make that progress observable (counters harness.checkpoint.*, `fstg
/// cache stats`) and testable. Records are written atomically; a torn
/// record reads as "not done".

/// True iff `circuit` has a completion record for `campaign`.
bool checkpoint_done(store::Store* s, const std::string& campaign,
                     const std::string& circuit);

/// Write `circuit`'s completion record ("ok" or "failed <stage>").
/// Best-effort: failures degrade to "no record" and bump a counter.
void checkpoint_mark(store::Store* s, const std::string& campaign,
                     const std::string& circuit, const std::string& outcome);

}  // namespace fstg::harness
