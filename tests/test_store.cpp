// Store lane (`ctest -L store`): the crash-safe artifact store and the
// harness cache built on it.
//
// Matrix: key/hash properties, atomic file replacement, blob integrity
// under every corruption class (truncation, magic/header smash,
// container-version skew, type/schema skew, key mismatch, payload
// bit-flip), torn-rename leftovers, verify/gc repair, concurrent
// reader-during-writer, unusable cache directories (degrade to recompute,
// counter incremented, pipeline result unchanged), payload codec round
// trips, warm starts byte-identical to cold runs, degraded-result refusal,
// and campaign checkpoint/resume.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "atpg/test_io.h"
#include "base/obs/metrics.h"
#include "base/obs/schema.h"
#include "base/store/fs_util.h"
#include "base/store/hash.h"
#include "base/store/serial.h"
#include "base/store/store.h"
#include "fault/fault_io.h"
#include "fsm/state_table.h"
#include "harness/cache.h"
#include "harness/experiment.h"
#include "kiss/benchmarks.h"
#include "netlist/snapshot.h"
#include "seq/uio.h"

namespace fstg {
namespace {

using store::Store;

/// A path no store can ever create: /dev/null is a file, so any path
/// below it fails mkdir with ENOTDIR. Works even when running as root
/// (where chmod-based "read-only directory" tricks are ineffective).
constexpr const char* kUnusableDir = "/dev/null/fstg-cache";

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "fstg_store_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::uint64_t counter_now(const char* name) {
  return obs::snapshot_metrics().counter_value(name);
}

/// Object path for `key`, replicating the documented store layout
/// (store.h): <dir>/objects/<2hex>/<16hex>.<tag>.blob.
std::string blob_path(const Store& s, std::uint64_t key, const char* tag) {
  const std::string hex = store::hash_hex(key);
  return s.dir() + "/objects/" + hex.substr(0, 2) + "/" + hex + "." + tag +
         ".blob";
}

std::string read_all(const std::string& path) {
  std::string data, error;
  EXPECT_TRUE(store::read_file(path, &data, &error)) << error;
  return data;
}

void write_raw(const std::string& path, const std::string& data) {
  std::string error;
  ASSERT_TRUE(store::atomic_write_file(path, data, &error)) << error;
}

/// The pipeline artifacts several tests share (computed once; the cold run
/// uses no cache because no global store is open during tests).
const CircuitExperiment& small_exp() {
  static const CircuitExperiment* exp = new CircuitExperiment(
      run_fsm(make_synthetic_fsm("store-test", 2, 5, 3)));
  return *exp;
}

std::string table_bytes(const StateTable& t) {
  store::BlobWriter w;
  serialize_state_table(t, w);
  return w.take();
}

std::string synth_bytes(const SynthesisResult& s) {
  store::BlobWriter w;
  serialize_synthesis_result(s, w);
  return w.take();
}

std::string tests_bytes(const TestSet& t) {
  store::BlobWriter w;
  serialize_test_set(t, w);
  return w.take();
}

std::string uios_bytes(const UioSet& u) {
  store::BlobWriter w;
  serialize_uio_set(u, w);
  return w.take();
}

std::string faults_bytes(const std::vector<FaultSpec>& f) {
  store::BlobWriter w;
  serialize_fault_specs(f, w);
  return w.take();
}

// --- hashing and keys -----------------------------------------------------

TEST(StoreHash, Xxh64DeterministicAndSeedSensitive) {
  const std::string data = "the quick brown fox";
  EXPECT_EQ(store::xxh64(data), store::xxh64(data));
  EXPECT_NE(store::xxh64(data, 1), store::xxh64(data, 2));
  EXPECT_NE(store::xxh64("a"), store::xxh64("b"));
}

TEST(StoreHash, HashHexIsSixteenLowercaseDigits) {
  const std::string hex = store::hash_hex(0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(hex.size(), 16u);
  for (char c : hex)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
  EXPECT_EQ(store::hash_hex(0), std::string(16, '0'));
}

TEST(StoreHash, KeyBuilderLengthPrefixingPreventsConcatCollisions) {
  // ("ab","c") and ("a","bc") concatenate identically; the length prefix
  // must keep them apart.
  const std::uint64_t k1 = store::KeyBuilder().add("ab").add("c").digest();
  const std::uint64_t k2 = store::KeyBuilder().add("a").add("bc").digest();
  EXPECT_NE(k1, k2);
}

TEST(StoreHash, KeyBuilderDeterministicOrderAndFieldSensitive) {
  auto key = [](std::string_view a, std::uint64_t v, bool b) {
    return store::KeyBuilder().add(a).add_u64(v).add_bool(b).digest();
  };
  EXPECT_EQ(key("x", 7, true), key("x", 7, true));
  EXPECT_NE(key("x", 7, true), key("x", 8, true));
  EXPECT_NE(key("x", 7, true), key("x", 7, false));
  EXPECT_NE(store::KeyBuilder().add("x").add("y").digest(),
            store::KeyBuilder().add("y").add("x").digest());
}

// --- atomic writes --------------------------------------------------------

TEST(AtomicWrite, WritesAndReplacesExactly) {
  const std::string dir = fresh_dir("atomic");
  std::string error;
  ASSERT_TRUE(store::make_dirs(dir, &error)) << error;
  const std::string path = dir + "/out.txt";

  write_raw(path, "first\n");
  EXPECT_EQ(read_all(path), "first\n");
  write_raw(path, "second, longer than the first\n");
  EXPECT_EQ(read_all(path), "second, longer than the first\n");
  // No temporary may remain after a successful write.
  for (const std::string& name : store::list_dir(dir))
    EXPECT_EQ(name, "out.txt");
}

TEST(AtomicWrite, FailureLeavesPreviousFileUntouched) {
  // Target whose parent is a *file*: the temp cannot even be created.
  std::string error;
  EXPECT_FALSE(store::atomic_write_file(kUnusableDir, "x", &error));
  EXPECT_FALSE(error.empty());

  // A failing rewrite of an existing file must keep the old bytes.
  const std::string dir = fresh_dir("atomic_fail");
  ASSERT_TRUE(store::make_dirs(dir, &error)) << error;
  const std::string path = dir + "/keep.txt";
  write_raw(path, "keep me\n");
  EXPECT_FALSE(
      store::atomic_write_file(path + "/impossible", "x", &error));
  EXPECT_EQ(read_all(path), "keep me\n");
}

// --- store basics ---------------------------------------------------------

TEST(StoreBasic, PutGetRoundTripAndCounters) {
  Store s(fresh_dir("roundtrip"));
  ASSERT_TRUE(s.usable());
  const std::string payload = "payload bytes \x00\x01\x02 with binary";
  const std::uint64_t hits0 = counter_now("store.hit");
  const std::uint64_t miss0 = counter_now("store.miss");

  std::string out;
  EXPECT_FALSE(s.get(42, 1, 1, "synth", &out));  // cold miss
  EXPECT_TRUE(s.put(42, 1, 1, "synth", payload));
  EXPECT_TRUE(store::file_exists(blob_path(s, 42, "synth")));
  EXPECT_TRUE(s.get(42, 1, 1, "synth", &out));
  EXPECT_EQ(out, payload);

  EXPECT_EQ(counter_now("store.hit"), hits0 + 1);
  EXPECT_EQ(counter_now("store.miss"), miss0 + 1);
}

TEST(StoreBasic, EmptyPayloadRoundTrips) {
  Store s(fresh_dir("empty_payload"));
  ASSERT_TRUE(s.usable());
  EXPECT_TRUE(s.put(7, 1, 1, "gen", ""));
  std::string out = "sentinel";
  EXPECT_TRUE(s.get(7, 1, 1, "gen", &out));
  EXPECT_TRUE(out.empty());
}

TEST(StoreBasic, TypeAndSchemaSkewReadAsMiss) {
  Store s(fresh_dir("skew"));
  ASSERT_TRUE(s.usable());
  ASSERT_TRUE(s.put(9, /*type=*/1, /*schema=*/1, "synth", "abc"));

  const std::uint64_t skew0 = counter_now("store.corrupt.schema");
  std::string out;
  EXPECT_FALSE(s.get(9, /*type=*/2, /*schema=*/1, "synth", &out));
  EXPECT_EQ(counter_now("store.corrupt.schema"), skew0 + 1);
  // Self-repair: the stale blob is gone, ready to be rewritten.
  EXPECT_FALSE(store::file_exists(blob_path(s, 9, "synth")));

  ASSERT_TRUE(s.put(9, 1, /*schema=*/1, "synth", "abc"));
  EXPECT_FALSE(s.get(9, 1, /*schema=*/2, "synth", &out));
  EXPECT_EQ(counter_now("store.corrupt.schema"), skew0 + 2);
}

TEST(StoreBasic, UnusableDirectoryDegradesEverything) {
  const std::uint64_t open_failed0 = counter_now("store.open_failed");
  Store s(kUnusableDir);
  EXPECT_FALSE(s.usable());
  EXPECT_EQ(counter_now("store.open_failed"), open_failed0 + 1);

  std::string out;
  EXPECT_FALSE(s.get(1, 1, 1, "synth", &out));   // miss, not an error
  EXPECT_FALSE(s.put(1, 1, 1, "synth", "abc"));  // counted no-op
  EXPECT_EQ(s.checkpoint_dir("campaign"), "");
  EXPECT_EQ(s.stats().blobs, 0u);
  EXPECT_EQ(s.verify().total, 0u);
  EXPECT_EQ(s.gc().bytes_freed, 0u);
}

// --- corruption classes ---------------------------------------------------

/// Fixture helpers: one store, one valid blob, then targeted damage.
class StoreCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test, not per fixture: ctest runs each test as its
    // own process, and parallel tests sharing a directory would remove_all
    // each other's blobs mid-flight.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    store_ = std::make_unique<Store>(
        fresh_dir(std::string("corruption_") + info->name()));
    ASSERT_TRUE(store_->usable());
    ASSERT_TRUE(store_->put(kKey, 1, 1, "synth", payload_));
    path_ = blob_path(*store_, kKey, "synth");
    ASSERT_TRUE(store::file_exists(path_));
  }

  /// Damage the blob file with `mutate`, then expect the next get to be a
  /// miss counted under store.corrupt.<reason> with the file unlinked.
  void expect_corrupt_miss(const char* reason,
                           void (*mutate)(std::string&)) {
    std::string file = read_all(path_);
    mutate(file);
    write_raw(path_, file);

    const std::string counter = std::string("store.corrupt.") + reason;
    const std::uint64_t before = counter_now(counter.c_str());
    const std::uint64_t unlinked0 = counter_now("store.repair_unlinked");
    std::string out;
    EXPECT_FALSE(store_->get(kKey, 1, 1, "synth", &out));
    EXPECT_EQ(counter_now(counter.c_str()), before + 1) << counter;
    EXPECT_EQ(counter_now("store.repair_unlinked"), unlinked0 + 1);
    EXPECT_FALSE(store::file_exists(path_));

    // The recompute's put restores service.
    EXPECT_TRUE(store_->put(kKey, 1, 1, "synth", payload_));
    EXPECT_TRUE(store_->get(kKey, 1, 1, "synth", &out));
    EXPECT_EQ(out, payload_);
  }

  static constexpr std::uint64_t kKey = 0xABCDEF0123456789ull;
  std::string payload_ = std::string(4096, 'p') + "tail";
  std::unique_ptr<Store> store_;
  std::string path_;
};

TEST_F(StoreCorruption, PayloadBitFlipIsHashMiss) {
  expect_corrupt_miss("hash", [](std::string& f) { f[100] ^= 0x20; });
}

TEST_F(StoreCorruption, TruncatedBelowHeaderIsTruncatedMiss) {
  expect_corrupt_miss("truncated", [](std::string& f) { f.resize(40); });
}

TEST_F(StoreCorruption, TruncatedPayloadIsTruncatedMiss) {
  expect_corrupt_miss("truncated",
                      [](std::string& f) { f.resize(f.size() - 1); });
}

TEST_F(StoreCorruption, SmashedMagicIsMagicMiss) {
  expect_corrupt_miss("magic",
                      [](std::string& f) { std::memset(f.data(), 'X', 8); });
}

TEST_F(StoreCorruption, HeaderBitFlipIsHeaderMiss) {
  // Flip a bit inside the hashed header region without fixing the header
  // checksum: detected before any field is trusted.
  expect_corrupt_miss("header", [](std::string& f) { f[20] ^= 0x01; });
}

TEST_F(StoreCorruption, ContainerVersionSkewIsVersionMiss) {
  // Forge a structurally valid blob from a future container version:
  // patch the version field and recompute the header checksum over the
  // first 48 bytes, exactly as a newer writer would.
  expect_corrupt_miss("version", [](std::string& f) {
    const std::uint32_t future = store::kStoreFormatVersion + 1;
    std::memcpy(f.data() + 8, &future, 4);
    const std::uint64_t hhash = store::xxh64(f.data(), 48);
    std::memcpy(f.data() + 48, &hhash, 8);
  });
}

TEST_F(StoreCorruption, KeyMismatchIsKeyMiss) {
  // A blob copied to another key's path (header intact) must not serve
  // that key: content addressing would silently break.
  const std::uint64_t other = kKey + 1;
  const std::string other_path = blob_path(*store_, other, "synth");
  std::string error;
  ASSERT_TRUE(store::make_dirs(
      other_path.substr(0, other_path.find_last_of('/')), &error))
      << error;
  write_raw(other_path, read_all(path_));

  const std::uint64_t before = counter_now("store.corrupt.key");
  std::string out;
  EXPECT_FALSE(store_->get(other, 1, 1, "synth", &out));
  EXPECT_EQ(counter_now("store.corrupt.key"), before + 1);
  EXPECT_FALSE(store::file_exists(other_path));
  // The original blob is untouched.
  EXPECT_TRUE(store_->get(kKey, 1, 1, "synth", &out));
}

TEST_F(StoreCorruption, OrphanTempIsCountedAndCollected) {
  // A crash between temp write and rename leaves a ".tmp." file; it must
  // never be served, shows up in stats, and gc sweeps it.
  const std::string objdir = path_.substr(0, path_.find_last_of('/'));
  write_raw(objdir + "/deadbeef.tmp.999.1", "torn write leftovers");

  EXPECT_EQ(store_->stats().tmp_files, 1u);
  std::string out;
  EXPECT_TRUE(store_->get(kKey, 1, 1, "synth", &out));  // blob unaffected

  const store::GcOutcome gc = store_->gc();
  EXPECT_EQ(gc.removed_tmp, 1u);
  EXPECT_GT(gc.bytes_freed, 0u);
  EXPECT_EQ(store_->stats().tmp_files, 0u);
}

TEST_F(StoreCorruption, VerifyReportsGcRepairs) {
  ASSERT_TRUE(store_->put(kKey + 7, 1, 1, "gen", "second blob"));
  std::string file = read_all(path_);
  file[file.size() - 1] ^= 0x40;  // payload damage
  write_raw(path_, file);

  const store::VerifyOutcome v = store_->verify();
  EXPECT_EQ(v.total, 2u);
  EXPECT_EQ(v.valid, 1u);
  EXPECT_EQ(v.corrupt, 1u);
  ASSERT_EQ(v.corrupt_files.size(), 1u);
  EXPECT_NE(v.corrupt_files[0].find("(hash)"), std::string::npos)
      << v.corrupt_files[0];

  const store::GcOutcome gc = store_->gc();
  EXPECT_EQ(gc.removed_corrupt, 1u);
  const store::VerifyOutcome after = store_->verify();
  EXPECT_EQ(after.total, 1u);
  EXPECT_EQ(after.corrupt, 0u);
}

TEST_F(StoreCorruption, GcEvictsToByteBudget) {
  ASSERT_TRUE(store_->put(kKey + 1, 1, 1, "gen", std::string(1000, 'a')));
  ASSERT_TRUE(store_->put(kKey + 2, 1, 1, "gen", std::string(1000, 'b')));
  ASSERT_EQ(store_->stats().blobs, 3u);

  const store::GcOutcome gc = store_->gc(/*max_bytes=*/0);
  EXPECT_EQ(gc.evicted, 3u);
  EXPECT_GT(gc.bytes_freed, 0u);
  EXPECT_EQ(store_->stats().blobs, 0u);
}

TEST(StoreMeta, CacheMetaJsonValidatesAgainstSchemaMirror) {
  Store s(fresh_dir("meta"));
  ASSERT_TRUE(s.usable());
  ASSERT_TRUE(s.put(1, 1, 1, "synth", "abc"));
  ASSERT_TRUE(s.put(2, 2, 1, "gen", "defgh"));

  std::string error;
  EXPECT_TRUE(obs::check_json("fstg_cache_meta", cache_meta_json(s.stats()),
                              nullptr, &error))
      << error;
  // The informational meta record written at open validates too.
  EXPECT_TRUE(obs::check_json("fstg_cache_meta",
                              read_all(s.dir() + "/cache_meta.json"), nullptr,
                              &error))
      << error;

  const store::StoreStats stats = s.stats();
  EXPECT_EQ(stats.blobs, 2u);
  ASSERT_EQ(stats.types.size(), 2u);  // tag-sorted: gen, synth
  EXPECT_EQ(stats.types[0].tag, "gen");
  EXPECT_EQ(stats.types[1].tag, "synth");
}

// --- concurrency ----------------------------------------------------------

TEST(StoreConcurrency, ReaderSeesWholeBlobOrMissDuringRewrites) {
  Store s(fresh_dir("concurrent"));
  ASSERT_TRUE(s.usable());
  // Two large, distinguishable payloads rewritten under one key: rename
  // atomicity means a reader must get one of them complete, never a blend
  // (a torn view would also fail the payload hash and read as a miss).
  const std::string a(1 << 16, 'a');
  const std::string b(1 << 16, 'b');
  ASSERT_TRUE(s.put(5, 1, 1, "gen", a));

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 200; ++i)
      ASSERT_TRUE(s.put(5, 1, 1, "gen", (i & 1) ? b : a));
    done.store(true);
  });

  std::size_t reads = 0;
  while (!done.load()) {
    std::string out;
    if (s.get(5, 1, 1, "gen", &out)) {
      ++reads;
      EXPECT_TRUE(out == a || out == b) << "torn read of " << out.size()
                                        << " bytes";
    }
  }
  writer.join();
  EXPECT_GT(reads, 0u);
  std::string out;
  EXPECT_TRUE(s.get(5, 1, 1, "gen", &out));
}

// --- payload codecs -------------------------------------------------------

TEST(StoreCodec, StateTableRoundTripIsByteStable) {
  const StateTable& table = small_exp().table;
  const std::string bytes = table_bytes(table);
  store::BlobReader r(bytes);
  StateTable back;
  ASSERT_TRUE(deserialize_state_table(r, &back));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(table_bytes(back), bytes);
  EXPECT_EQ(back.num_states(), table.num_states());
}

TEST(StoreCodec, SynthesisResultRoundTripIsByteStable) {
  const SynthesisResult& synth = small_exp().synth;
  const std::string bytes = synth_bytes(synth);
  store::BlobReader r(bytes);
  SynthesisResult back;
  ASSERT_TRUE(deserialize_synthesis_result(r, &back));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(synth_bytes(back), bytes);
  EXPECT_EQ(back.circuit.num_sv, synth.circuit.num_sv);
  EXPECT_EQ(back.circuit.comb.num_gates(), synth.circuit.comb.num_gates());

  // The restored circuit must behave identically, not just compare equal.
  for (int st = 0; st < small_exp().table.num_states(); ++st) {
    for (std::uint32_t ic = 0; ic < small_exp().table.num_input_combos();
         ++ic) {
      std::uint32_t po1 = 0, ns1 = 0, po2 = 0, ns2 = 0;
      synth.circuit.step(static_cast<std::uint32_t>(st), ic, po1, ns1);
      back.circuit.step(static_cast<std::uint32_t>(st), ic, po2, ns2);
      EXPECT_EQ(po1, po2);
      EXPECT_EQ(ns1, ns2);
    }
  }
}

TEST(StoreCodec, TestSetAndUioSetRoundTrip) {
  const GeneratorResult& gen = small_exp().gen;
  {
    const std::string bytes = tests_bytes(gen.tests);
    store::BlobReader r(bytes);
    TestSet back;
    ASSERT_TRUE(deserialize_test_set(r, &back));
    EXPECT_TRUE(r.done());
    EXPECT_EQ(tests_bytes(back), bytes);
    back.validate(small_exp().table);  // semantically intact, not just equal
  }
  {
    const std::string bytes = uios_bytes(gen.uios);
    store::BlobReader r(bytes);
    UioSet back;
    ASSERT_TRUE(deserialize_uio_set(r, &back));
    EXPECT_TRUE(r.done());
    EXPECT_EQ(uios_bytes(back), bytes);
  }
}

TEST(StoreCodec, FaultSpecsRoundTrip) {
  GateLevelOptions options;
  options.classify_redundancy = false;
  const GateLevelResult gate = run_gate_level(small_exp(), options);
  ASSERT_FALSE(gate.sa_faults.empty());

  const int num_gates = small_exp().synth.circuit.comb.num_gates();
  for (const std::vector<FaultSpec>* list :
       {&gate.sa_faults, &gate.br_faults}) {
    const std::string bytes = faults_bytes(*list);
    store::BlobReader r(bytes);
    std::vector<FaultSpec> back;
    ASSERT_TRUE(deserialize_fault_specs(r, num_gates, &back));
    EXPECT_TRUE(r.done());
    EXPECT_EQ(faults_bytes(back), bytes);
    EXPECT_EQ(back.size(), list->size());
  }

  // The same bytes against a smaller netlist are out-of-range damage.
  const std::string bytes = faults_bytes(gate.sa_faults);
  store::BlobReader r(bytes);
  std::vector<FaultSpec> back;
  EXPECT_FALSE(deserialize_fault_specs(r, /*num_gates=*/1, &back));
}

TEST(StoreCodec, BitVecMatrixRoundTrip) {
  std::vector<BitVec> rows(5, BitVec(67));
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t j = i; j < rows[i].size(); j += i + 1) rows[i].set(j);

  store::BlobWriter w;
  serialize_bitvec_matrix(rows, w);
  store::BlobReader r(w.bytes());
  std::vector<BitVec> back;
  ASSERT_TRUE(deserialize_bitvec_matrix(r, &back));
  EXPECT_TRUE(r.done());
  ASSERT_EQ(back.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_TRUE(back[i] == rows[i]) << "row " << i;
}

TEST(StoreCodec, TruncatedOrPaddedPayloadFailsCleanly) {
  const std::string bytes = table_bytes(small_exp().table);
  // Every proper prefix must fail (never throw, never half-fill): sample a
  // few cut points including the pathological empty payload.
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, bytes.size() / 2,
                          bytes.size() - 1}) {
    store::BlobReader r(std::string_view(bytes).substr(0, cut));
    StateTable out;
    EXPECT_FALSE(deserialize_state_table(r, &out) && r.done())
        << "cut at " << cut;
  }
  // Trailing garbage is damage too: done() must reject leftovers.
  const std::string padded = bytes + "x";
  store::BlobReader r(padded);
  StateTable out;
  ASSERT_TRUE(deserialize_state_table(r, &out));
  EXPECT_FALSE(r.done());
}

// --- harness cache: warm starts, degradation, checkpoints -----------------

TEST(HarnessCache, WarmStartIsByteIdenticalAndSkipsStages) {
  Store s(fresh_dir("warm"));
  ASSERT_TRUE(s.usable());
  ExperimentOptions options;
  options.cache = &s;
  const Kiss2Fsm fsm = make_synthetic_fsm("warm-start", 2, 5, 3);

  const std::uint64_t smiss0 = counter_now("cache.synth.miss");
  const std::uint64_t shit0 = counter_now("cache.synth.hit");
  const std::uint64_t gmiss0 = counter_now("cache.gen.miss");
  const std::uint64_t ghit0 = counter_now("cache.gen.hit");
  const CircuitExperiment cold = run_fsm(fsm, options);
  EXPECT_EQ(counter_now("cache.synth.miss"), smiss0 + 1);
  EXPECT_EQ(counter_now("cache.gen.miss"), gmiss0 + 1);

  const CircuitExperiment warm = run_fsm(fsm, options);
  EXPECT_EQ(counter_now("cache.synth.hit"), shit0 + 1);
  EXPECT_EQ(counter_now("cache.gen.hit"), ghit0 + 1);

  // Byte-identical artifacts: the warm run must be indistinguishable from
  // the cold one (the ISSUE's acceptance bar for --cache-dir).
  EXPECT_EQ(table_bytes(warm.table), table_bytes(cold.table));
  EXPECT_EQ(synth_bytes(warm.synth), synth_bytes(cold.synth));
  EXPECT_EQ(tests_bytes(warm.gen.tests), tests_bytes(cold.gen.tests));
  EXPECT_EQ(uios_bytes(warm.gen.uios), uios_bytes(cold.gen.uios));
  EXPECT_EQ(warm.gen.tested_by, cold.gen.tested_by);
  EXPECT_EQ(warm.gen.transitions_in_length_one,
            cold.gen.transitions_in_length_one);
  EXPECT_EQ(warm.synth_seconds, cold.synth_seconds);  // restored, not re-timed
}

TEST(HarnessCache, CorruptionDegradesToRecomputeNeverChangesResults) {
  Store s(fresh_dir("corrupt_warm"));
  ASSERT_TRUE(s.usable());
  ExperimentOptions options;
  options.cache = &s;
  const Kiss2Fsm fsm = make_synthetic_fsm("corrupt-warm", 2, 5, 3);
  const CircuitExperiment cold = run_fsm(fsm, options);

  // Bit-flip every blob in the store.
  std::size_t flipped = 0;
  for (const std::string& sub : store::list_dir(s.dir() + "/objects")) {
    const std::string subdir = s.dir() + "/objects/" + sub;
    for (const std::string& name : store::list_dir(subdir)) {
      std::string file = read_all(subdir + "/" + name);
      file[file.size() / 2] ^= 0x08;
      write_raw(subdir + "/" + name, file);
      ++flipped;
    }
  }
  ASSERT_GE(flipped, 2u);  // synth + gen

  const std::uint64_t corrupt0 = counter_now("store.corrupt.hash");
  const CircuitExperiment warm = run_fsm(fsm, options);
  EXPECT_GE(counter_now("store.corrupt.hash"), corrupt0 + 2);
  EXPECT_EQ(table_bytes(warm.table), table_bytes(cold.table));
  EXPECT_EQ(tests_bytes(warm.gen.tests), tests_bytes(cold.gen.tests));
  // Self-repair: the recompute rewrote clean blobs.
  EXPECT_EQ(s.verify().corrupt, 0u);
}

TEST(HarnessCache, UnusableCacheMatchesNoCachePipeline) {
  Store broken(kUnusableDir);
  ASSERT_FALSE(broken.usable());
  ExperimentOptions with_broken;
  with_broken.cache = &broken;
  const Kiss2Fsm fsm = make_synthetic_fsm("no-cache", 2, 5, 3);

  const CircuitExperiment a = run_fsm(fsm, with_broken);
  const CircuitExperiment b = run_fsm(fsm);  // no cache at all
  EXPECT_EQ(table_bytes(a.table), table_bytes(b.table));
  EXPECT_EQ(tests_bytes(a.gen.tests), tests_bytes(b.gen.tests));
}

TEST(HarnessCache, DegradedGenerationResultsAreNeverCached) {
  Store s(fresh_dir("degraded"));
  ASSERT_TRUE(s.usable());
  GeneratorResult degraded = small_exp().gen;
  degraded.degraded = true;
  const std::uint64_t key = 0x1234;

  harness::save_gen(&s, key, degraded);  // refused
  EXPECT_EQ(s.stats().blobs, 0u);
  GeneratorResult out;
  EXPECT_FALSE(harness::load_gen(&s, key, &out));

  // A degraded blob that somehow lands on disk is treated as damage on
  // load (e.g. written by a buggy or older writer).
  store::BlobWriter w;
  serialize_test_set(degraded.tests, w);
  serialize_uio_set(degraded.uios, w);
  w.vec_i32(std::vector<std::int32_t>(degraded.tested_by.begin(),
                                      degraded.tested_by.end()));
  w.u64(degraded.transitions_in_length_one);
  w.f64(degraded.uio_seconds);
  w.f64(degraded.generation_seconds);
  w.u8(1);  // degraded flag set
  ASSERT_TRUE(s.put(key, harness::kTypeGen, harness::kGenSchema, "gen",
                    w.bytes()));
  EXPECT_FALSE(harness::load_gen(&s, key, &out));
}

TEST(HarnessCache, FaultAndReachArtifactsRoundTripThroughStore) {
  Store s(fresh_dir("faults_reach"));
  ASSERT_TRUE(s.usable());
  GateLevelOptions options;
  options.classify_redundancy = false;
  const GateLevelResult gate = run_gate_level(small_exp(), options);
  const int num_gates = small_exp().synth.circuit.comb.num_gates();

  harness::save_faults(&s, 11, gate.sa_faults, gate.br_faults,
                       gate.br_enumerated);
  std::vector<FaultSpec> sa, br;
  std::size_t enumerated = 0;
  ASSERT_TRUE(harness::load_faults(&s, 11, num_gates, &sa, &br, &enumerated));
  EXPECT_EQ(faults_bytes(sa), faults_bytes(gate.sa_faults));
  EXPECT_EQ(faults_bytes(br), faults_bytes(gate.br_faults));
  EXPECT_EQ(enumerated, gate.br_enumerated);
  // The same blob against a tiny netlist is damage, not a wrong answer.
  EXPECT_FALSE(harness::load_faults(&s, 11, 1, &sa, &br, &enumerated));

  std::vector<BitVec> reach(static_cast<std::size_t>(num_gates),
                            BitVec(static_cast<std::size_t>(num_gates)));
  for (std::size_t i = 0; i < reach.size(); ++i) reach[i].set(i);
  harness::save_reach(&s, 12, reach);
  std::vector<BitVec> back;
  ASSERT_TRUE(harness::load_reach(
      &s, 12, static_cast<std::size_t>(num_gates), &back));
  ASSERT_EQ(back.size(), reach.size());
  for (std::size_t i = 0; i < reach.size(); ++i)
    EXPECT_TRUE(back[i] == reach[i]);
  // Size skew (a different netlist's matrix) is a miss.
  EXPECT_FALSE(harness::load_reach(
      &s, 12, static_cast<std::size_t>(num_gates) + 1, &back));
}

TEST(HarnessCache, CheckpointMarkAndDone) {
  Store s(fresh_dir("checkpoint"));
  ASSERT_TRUE(s.usable());
  const std::uint64_t written0 = counter_now("harness.checkpoint.written");

  EXPECT_FALSE(harness::checkpoint_done(&s, "sweep", "lion"));
  harness::checkpoint_mark(&s, "sweep", "lion", "ok");
  EXPECT_TRUE(harness::checkpoint_done(&s, "sweep", "lion"));
  EXPECT_EQ(counter_now("harness.checkpoint.written"), written0 + 1);
  // Records are campaign-scoped and per-circuit.
  EXPECT_FALSE(harness::checkpoint_done(&s, "other", "lion"));
  EXPECT_FALSE(harness::checkpoint_done(&s, "sweep", "dk27"));
  EXPECT_EQ(read_all(s.dir() + "/checkpoints/sweep/lion.done"), "ok\n");
  // Two campaign dirs: "sweep" plus the one the "other" probe created.
  EXPECT_EQ(s.stats().checkpoints, 2u);

  // Unusable store / empty campaign: quiet no-ops, "not done".
  Store broken(kUnusableDir);
  harness::checkpoint_mark(&broken, "sweep", "lion", "ok");
  EXPECT_FALSE(harness::checkpoint_done(&broken, "sweep", "lion"));
  harness::checkpoint_mark(&s, "", "lion", "ok");
  EXPECT_FALSE(harness::checkpoint_done(&s, "", "lion"));
  EXPECT_FALSE(harness::checkpoint_done(nullptr, "sweep", "lion"));
}

TEST(HarnessCache, SuiteResumesFromCheckpointRecords) {
  Store s(fresh_dir("suite_resume"));
  ASSERT_TRUE(s.usable());
  SuiteOptions options;
  options.experiment.cache = &s;
  options.checkpoint = "resume-test";

  const std::uint64_t fresh0 = counter_now("harness.checkpoint.fresh");
  const std::uint64_t resumed0 = counter_now("harness.checkpoint.resumed");
  const SuiteResult first = run_circuit_suite({"lion", "dk27"}, options);
  EXPECT_EQ(first.failures(), 0u);
  EXPECT_EQ(counter_now("harness.checkpoint.fresh"), fresh0 + 2);
  EXPECT_EQ(counter_now("harness.checkpoint.resumed"), resumed0);

  // The re-run resumes every circuit and restarts from the warm store.
  const std::uint64_t synth_hit0 = counter_now("cache.synth.hit");
  const SuiteResult second = run_circuit_suite({"lion", "dk27"}, options);
  EXPECT_EQ(second.failures(), 0u);
  EXPECT_EQ(counter_now("harness.checkpoint.resumed"), resumed0 + 2);
  EXPECT_EQ(counter_now("cache.synth.hit"), synth_hit0 + 2);
  for (std::size_t i = 0; i < first.runs.size(); ++i) {
    EXPECT_EQ(tests_bytes(second.runs[i].exp.gen.tests),
              tests_bytes(first.runs[i].exp.gen.tests));
  }
}

// --- global store resolution ----------------------------------------------

TEST(GlobalStore, ResolveExplicitThenGlobalThenNull) {
  store::close_global_store();
  EXPECT_EQ(store::resolve(nullptr), nullptr);

  const std::string dir = fresh_dir("global");
  std::string error;
  ASSERT_TRUE(store::open_global_store(dir, &error)) << error;
  Store* global = store::global_store();
  ASSERT_NE(global, nullptr);
  EXPECT_EQ(store::resolve(nullptr), global);

  Store explicit_store(fresh_dir("explicit"));
  EXPECT_EQ(store::resolve(&explicit_store), &explicit_store);

  // Opening an unusable directory fails and keeps the previous global.
  EXPECT_FALSE(store::open_global_store(kUnusableDir, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(store::global_store(), global);

  store::close_global_store();
  EXPECT_EQ(store::resolve(nullptr), nullptr);
}

}  // namespace
}  // namespace fstg
