#include "harness/cache.h"

#include <utility>

#include "atpg/test_io.h"
#include "base/obs/metrics.h"
#include "base/store/fs_util.h"
#include "base/store/hash.h"
#include "base/store/serial.h"
#include "fault/fault_io.h"
#include "kiss/kiss2_writer.h"
#include "netlist/snapshot.h"
#include "seq/uio.h"

namespace fstg::harness {

namespace {

/// Per-stage hit/miss counters, the observable proof that a warm run
/// skipped a derivation (acceptance check for --cache-dir).
void count_stage(const char* stage, bool hit) {
  obs::counter(std::string("cache.") + stage + (hit ? ".hit" : ".miss"))
      .inc();
}

void serialize_generator_result(const GeneratorResult& gen,
                                store::BlobWriter& w) {
  serialize_test_set(gen.tests, w);
  serialize_uio_set(gen.uios, w);
  std::vector<std::int32_t> tested_by(gen.tested_by.begin(),
                                      gen.tested_by.end());
  w.vec_i32(tested_by);
  w.u64(gen.transitions_in_length_one);
  w.f64(gen.uio_seconds);
  w.f64(gen.generation_seconds);
  w.u8(gen.degraded ? 1 : 0);
}

bool deserialize_generator_result(store::BlobReader& r, GeneratorResult* out) {
  GeneratorResult gen;
  if (!deserialize_test_set(r, &gen.tests)) return false;
  if (!deserialize_uio_set(r, &gen.uios)) return false;
  const std::vector<std::int32_t> tested_by = r.vec_i32();
  gen.transitions_in_length_one = r.u64();
  gen.uio_seconds = r.f64();
  gen.generation_seconds = r.f64();
  const std::uint8_t degraded = r.u8();
  if (!r.ok() || degraded > 1) return false;
  gen.degraded = degraded != 0;
  gen.tested_by.assign(tested_by.begin(), tested_by.end());
  const std::int32_t num_tests = static_cast<std::int32_t>(gen.tests.size());
  for (std::int32_t t : gen.tested_by)
    if (t < -1 || t >= num_tests) return false;
  *out = std::move(gen);
  return true;
}

}  // namespace

std::uint64_t synth_key(const Kiss2Fsm& fsm, const SynthesisOptions& options) {
  store::KeyBuilder k;
  k.add("synth");
  k.add_u64(kSynthSchema);
  k.add(write_kiss2(fsm));
  k.add_i64(options.minimize.passes);
  k.add_i64(static_cast<std::int64_t>(options.encoding));
  k.add_bool(options.multilevel);
  k.add_i64(options.max_fanin);
  return k.digest();
}

std::uint64_t gen_key(const StateTable& table,
                      const GeneratorOptions& options) {
  store::BlobWriter canon;
  serialize_state_table(table, canon);
  store::KeyBuilder k;
  k.add("gen");
  k.add_u64(kGenSchema);
  k.add(canon.bytes());
  k.add_i64(options.uio_max_length);
  k.add_i64(options.transfer_max_length);
  k.add_bool(options.postpone_no_uio_starts);
  k.add_u64(options.uio_eval_budget);
  return k.digest();
}

std::uint64_t faults_key(const std::string& blif_text,
                         std::size_t max_bridging_faults) {
  store::KeyBuilder k;
  k.add("faults");
  k.add_u64(kFaultsSchema);
  k.add(blif_text);
  k.add_u64(max_bridging_faults);
  return k.digest();
}

bool load_synth(store::Store* s, std::uint64_t key, SynthesisResult* synth,
                StateTable* table, double* synth_seconds) {
  if (!s) return false;
  std::string payload;
  if (!s->get(key, kTypeSynth, kSynthSchema, "synth", &payload)) {
    count_stage("synth", false);
    return false;
  }
  store::BlobReader r(payload);
  SynthesisResult sr;
  StateTable st;
  const double seconds = r.f64();
  if (!deserialize_synthesis_result(r, &sr) ||
      !deserialize_state_table(r, &st) || !r.done() || seconds < 0) {
    count_stage("synth", false);
    return false;
  }
  count_stage("synth", true);
  *synth = std::move(sr);
  *table = std::move(st);
  *synth_seconds = seconds;
  return true;
}

void save_synth(store::Store* s, std::uint64_t key,
                const SynthesisResult& synth, const StateTable& table,
                double synth_seconds) {
  if (!s) return;
  store::BlobWriter w;
  w.f64(synth_seconds);
  serialize_synthesis_result(synth, w);
  serialize_state_table(table, w);
  s->put(key, kTypeSynth, kSynthSchema, "synth", w.bytes());
}

bool load_gen(store::Store* s, std::uint64_t key, GeneratorResult* gen) {
  if (!s) return false;
  std::string payload;
  if (!s->get(key, kTypeGen, kGenSchema, "gen", &payload)) {
    count_stage("gen", false);
    return false;
  }
  store::BlobReader r(payload);
  GeneratorResult g;
  // A degraded blob should never have been written; treat one as damage.
  if (!deserialize_generator_result(r, &g) || !r.done() || g.degraded) {
    count_stage("gen", false);
    return false;
  }
  count_stage("gen", true);
  *gen = std::move(g);
  return true;
}

void save_gen(store::Store* s, std::uint64_t key, const GeneratorResult& gen) {
  if (!s || gen.degraded) return;
  store::BlobWriter w;
  serialize_generator_result(gen, w);
  s->put(key, kTypeGen, kGenSchema, "gen", w.bytes());
}

bool load_faults(store::Store* s, std::uint64_t key, int num_gates,
                 std::vector<FaultSpec>* sa, std::vector<FaultSpec>* br,
                 std::size_t* br_enumerated) {
  if (!s) return false;
  std::string payload;
  if (!s->get(key, kTypeFaults, kFaultsSchema, "faults", &payload)) {
    count_stage("faults", false);
    return false;
  }
  store::BlobReader r(payload);
  std::vector<FaultSpec> sa_list, br_list;
  const std::uint64_t enumerated = r.u64();
  if (!deserialize_fault_specs(r, num_gates, &sa_list) ||
      !deserialize_fault_specs(r, num_gates, &br_list) || !r.done() ||
      enumerated < br_list.size()) {
    count_stage("faults", false);
    return false;
  }
  count_stage("faults", true);
  *sa = std::move(sa_list);
  *br = std::move(br_list);
  *br_enumerated = enumerated;
  return true;
}

void save_faults(store::Store* s, std::uint64_t key,
                 const std::vector<FaultSpec>& sa,
                 const std::vector<FaultSpec>& br,
                 std::size_t br_enumerated) {
  if (!s) return;
  store::BlobWriter w;
  w.u64(br_enumerated);
  serialize_fault_specs(sa, w);
  serialize_fault_specs(br, w);
  s->put(key, kTypeFaults, kFaultsSchema, "faults", w.bytes());
}

bool checkpoint_done(store::Store* s, const std::string& campaign,
                     const std::string& circuit) {
  if (!s || campaign.empty()) return false;
  const std::string dir = s->checkpoint_dir(campaign);
  if (dir.empty()) return false;
  return store::file_exists(dir + "/" + circuit + ".done");
}

void checkpoint_mark(store::Store* s, const std::string& campaign,
                     const std::string& circuit, const std::string& outcome) {
  if (!s || campaign.empty()) return;
  static const obs::Counter c_written =
      obs::counter("harness.checkpoint.written");
  static const obs::Counter c_failed =
      obs::counter("harness.checkpoint.write_failed");
  const std::string dir = s->checkpoint_dir(campaign);
  if (dir.empty()) {
    c_failed.inc();
    return;
  }
  std::string error;
  if (store::atomic_write_file(dir + "/" + circuit + ".done", outcome + "\n",
                               &error))
    c_written.inc();
  else
    c_failed.inc();
}

}  // namespace fstg::harness
