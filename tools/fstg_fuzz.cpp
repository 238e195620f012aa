// fstg_fuzz — deterministic fault-injection and input-fuzz harness.
//
// Two properties are checked, matching the robustness contract in
// docs/ROBUSTNESS.md:
//
//   parsers: for any mutation of a valid KISS2 / BLIF / test-file text, the
//     parser either accepts it or throws a typed Error (usually ParseError).
//     It never crashes, hangs, or lets a foreign exception type escape.
//
//   budget: for every RunGuard site in the pipeline, injecting synthetic
//     budget exhaustion at that site (at several tick offsets) yields a
//     valid result, a typed partial result, or a structured error. The
//     pipeline always terminates and never misreports a cut run as
//     complete.
//
//   lint: the static analyzer and the strict parsers must agree on what a
//     malformed input is. For any mutated BLIF text whose declaration
//     structure parses, `lint_blif_model` reports an error finding iff
//     `parse_blif` rejects the model; for any mutated KISS2 text that
//     parses, lint reports fsm-nondeterministic iff `expand_fsm` rejects
//     the machine. An input that crashes the pipeline but lints clean — or
//     that lint rejects while the pipeline accepts — is a bug in one of
//     the two.
//
//   serve: the daemon's wire boundary. For any byte stream — torn,
//     truncated, oversized, or arbitrarily mutated frames — the frame
//     decoder and request parser terminate with typed refusals (kError
//     outcomes, false returns), never a crash, foreign exception, or
//     unbounded buffer; every accepted request re-serializes cleanly.
//     Scenarios are one feed chunk per line (`hex`/`raw`/`frame`); the
//     checked-in corpus under tests/serve_corpus replays as a regression
//     gate, and failing random iterations print their chunks in corpus
//     form.
//
//   analysis: the static implication engine's two contracts on arbitrary
//     generated circuits. Never-throw: StaticAnalyzer construction and
//     analyze() must complete on any well-formed netlist (random synthesis
//     + observer enrichment + mixed fault lists). Soundness: no fault the
//     analyzer proves untestable may be detected by simulating the
//     workload's tests — pruning on static verdicts must never drop a
//     detected fault. (The exhaustive cross-check lives in fstg_difftest's
//     static-redundancy mode; this one is cheap enough to run wide.)
//
//   store: for any corruption of an artifact-store cache directory
//     (payload bit-flips, truncation, smashed magic/header bytes, forged
//     container versions, deleted blobs, foreign garbage, orphaned write
//     temporaries), a warm pipeline run produces byte-identical results to
//     the cold run, never throws, counts the damage under store.corrupt.*
//     or store.miss, and self-repairs the store (a post-run verify is
//     clean). Scenarios are one op per line (`<tag> <op> [arg]`); the
//     checked-in corpus under tests/store_corpus replays as a regression
//     gate, and failing random iterations print their ops in corpus form.
//
// Everything is seeded (xoshiro256**), so a failing iteration is
// reproducible from the printed seed.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/static_faults.h"
#include "atpg/generator.h"
#include "atpg/test_io.h"
#include "base/error.h"
#include "base/log.h"
#include "base/obs/metrics.h"
#include "base/obs/trace.h"
#include "base/robust/budget.h"
#include "base/rng.h"
#include "base/store/fs_util.h"
#include "base/store/hash.h"
#include "base/store/serial.h"
#include "base/store/store.h"
#include "difftest/workload.h"
#include "fault/fault_sim.h"
#include "fsm/state_table.h"
#include "harness/experiment.h"
#include "kiss/benchmarks.h"
#include "kiss/kiss2_parser.h"
#include "kiss/kiss2_writer.h"
#include "lint/fsm_lint.h"
#include "lint/netlist_lint.h"
#include "netlist/blif_reader.h"
#include "netlist/export.h"
#include "netlist/snapshot.h"
#include "seq/uio.h"
#include "serve/protocol.h"

namespace fstg {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fstg_fuzz <parsers|lint|budget|analysis|store|serve"
               "|all> "
               "[--iters N] [--seed S]\n"
               "                 [--corpus-dir DIR] [--dir DIR]\n"
               "                 [--metrics-out FILE] [--trace-out FILE]\n"
               "                 [--log-level debug|info|warn|error]\n"
               "  parsers  mutate KISS2/BLIF/test-file corpora; only typed\n"
               "           Errors may escape the parsers\n"
               "  lint     two-way oracle: the static analyzer must report\n"
               "           an error exactly when the strict parser/expander\n"
               "           rejects the same input\n"
               "  budget   inject budget exhaustion at every guard site;\n"
               "           the pipeline must return a valid or typed-partial\n"
               "           result, or a structured error\n"
               "  analysis the static implication engine must never throw\n"
               "           on generated circuits, and must never prove a\n"
               "           fault untestable that simulation detects\n"
               "  serve    feed torn/truncated/mutated frames to the `fstg\n"
               "           serve` wire boundary; the decoder and request\n"
               "           parser must refuse with typed outcomes, never\n"
               "           crash. --corpus-dir replays checked-in scenarios\n"
               "           (tests/serve_corpus)\n"
               "  store    corrupt a --cache-dir artifact store every way a\n"
               "           disk can (bit-flips, truncation, version skew,\n"
               "           deletion, garbage, torn temps); warm runs must be\n"
               "           byte-identical to cold, count the damage, and\n"
               "           self-repair. --corpus-dir replays checked-in\n"
               "           scenarios (tests/store_corpus); --dir sets the\n"
               "           scratch cache directory\n");
  return 1;
}

/// Apply one seeded mutation to `text`. The menu targets the failure
/// classes the robustness work hardened: bit/byte corruption, truncation,
/// CRLF conversion, token duplication, and huge-number substitution.
std::string mutate(const std::string& text, Rng& rng) {
  std::string out = text;
  switch (rng.below(6)) {
    case 0: {  // flip one byte
      if (out.empty()) break;
      out[rng.below(out.size())] ^= static_cast<char>(1 + rng.below(255));
      break;
    }
    case 1: {  // truncate
      out.resize(rng.below(out.size() + 1));
      break;
    }
    case 2: {  // convert to CRLF line endings
      std::string crlf;
      for (char c : out) {
        if (c == '\n') crlf += '\r';
        crlf += c;
      }
      out = crlf;
      break;
    }
    case 3: {  // duplicate a random chunk
      if (out.empty()) break;
      const std::size_t at = rng.below(out.size());
      const std::size_t len = rng.below(out.size() - at) + 1;
      out.insert(at, out.substr(at, len));
      break;
    }
    case 4: {  // replace the first integer token with a huge number
      const std::size_t digit = out.find_first_of("0123456789");
      if (digit == std::string::npos) break;
      std::size_t end = digit;
      while (end < out.size() && std::isdigit(static_cast<unsigned char>(out[end])))
        ++end;
      out.replace(digit, end - digit, "99999999999999999999");
      break;
    }
    case 5: {  // inject a stray directive line
      out.insert(0, ".bogus 1\n");
      break;
    }
  }
  return out;
}

/// One parser run: accept, or throw a typed fstg::Error. Anything else —
/// std::out_of_range from an unchecked stoi, std::bad_alloc from an
/// unvalidated size, a crash — fails the fuzz run.
template <typename Fn>
bool survives(const char* parser, const std::string& input, Fn&& parse,
              std::uint64_t iter) {
  try {
    parse(input);
  } catch (const Error&) {
    // Typed rejection: exactly the contract.
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "FUZZ FAILURE iter %llu: %s let %s escape "
                 "(only fstg::Error is allowed)\n",
                 static_cast<unsigned long long>(iter), parser, e.what());
    return false;
  }
  return true;
}

int run_parsers(std::uint64_t iters, std::uint64_t seed) {
  // Seed corpora from the embedded benchmarks: real KISS2 text, real BLIF
  // (via synthesis + export), and real test files (via generation).
  std::vector<std::string> kiss_corpus, blif_corpus, test_corpus;
  for (const std::string& name : {std::string("lion"), std::string("dk27"),
                                  std::string("shiftreg")}) {
    CircuitExperiment exp = run_circuit(name);
    kiss_corpus.push_back(write_kiss2(exp.fsm));
    blif_corpus.push_back(to_blif(exp.synth.circuit, name));
    test_corpus.push_back(write_test_file(test_file_for(exp)));
  }

  Rng rng(seed);
  for (std::uint64_t i = 0; i < iters; ++i) {
    // Stack 1-3 mutations so corruption can compound.
    const std::uint64_t depth = 1 + rng.below(3);
    auto corrupted = [&](const std::vector<std::string>& corpus) {
      std::string text = corpus[rng.below(corpus.size())];
      for (std::uint64_t d = 0; d < depth; ++d) text = mutate(text, rng);
      return text;
    };
    if (!survives("parse_kiss2", corrupted(kiss_corpus),
                  [](const std::string& s) { parse_kiss2(s, "fuzz"); }, i))
      return 1;
    if (!survives("parse_blif", corrupted(blif_corpus),
                  [](const std::string& s) { parse_blif(s); }, i))
      return 1;
    if (!survives("parse_test_file", corrupted(test_corpus),
                  [](const std::string& s) { parse_test_file(s); }, i))
      return 1;
  }
  std::printf("fuzz parsers: %llu iterations, seed %llu: ok\n",
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(seed));
  return 0;
}

/// BLIF side of the lint oracle. Returns false on a contract violation.
bool check_blif_lint_oracle(const std::string& text, std::uint64_t iter) {
  BlifModel model;
  try {
    model = parse_blif_model(text);
  } catch (const Error&) {
    return true;  // locally malformed: neither side gets to judge the graph
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "FUZZ FAILURE iter %llu: parse_blif_model let %s escape\n",
                 static_cast<unsigned long long>(iter), e.what());
    return false;
  }

  lint::LintReport report;
  report.source = "fuzz";
  {
    robust::RunGuard guard(robust::Budget{}, "fuzz.lint");
    lint::lint_blif_model(model, guard, report);
  }

  bool parser_accepts = false;
  std::string parser_error;
  try {
    parse_blif(model);
    parser_accepts = true;
  } catch (const Error& e) {
    parser_error = e.what();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FUZZ FAILURE iter %llu: parse_blif let %s escape\n",
                 static_cast<unsigned long long>(iter), e.what());
    return false;
  }

  const bool lint_clean = !report.has_errors();
  if (lint_clean == parser_accepts) return true;
  std::string first_error;
  for (const lint::Finding& f : report.findings())
    if (f.severity == lint::Severity::kError && first_error.empty())
      first_error = "[" + f.rule + "] " + f.message;
  std::fprintf(stderr,
               "FUZZ FAILURE iter %llu: lint/parser divergence on BLIF: "
               "lint %s but parse_blif %s\n  lint: %s\n  parser: %s\n",
               static_cast<unsigned long long>(iter),
               lint_clean ? "is clean" : "reports an error",
               parser_accepts ? "accepts" : "rejects",
               first_error.empty() ? "(no error finding)" : first_error.c_str(),
               parser_error.empty() ? "(accepted)" : parser_error.c_str());
  return false;
}

/// KISS2 side of the lint oracle: lint's nondeterminism rule mirrors the
/// determinism gate every expansion/synthesis runs through.
bool check_kiss_lint_oracle(const std::string& text, std::uint64_t iter) {
  Kiss2Fsm fsm;
  try {
    fsm = parse_kiss2(text, "fuzz");
  } catch (const Error&) {
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FUZZ FAILURE iter %llu: parse_kiss2 let %s escape\n",
                 static_cast<unsigned long long>(iter), e.what());
    return false;
  }
  // Expansion is exponential in inputs and linear in states; mutations can
  // legitimately produce machines too big to expand, and those are outside
  // the oracle (expand_fsm would also refuse >32 outputs structurally).
  if (fsm.num_inputs > 16 || fsm.num_outputs > 32 ||
      fsm.rows.size() > 4096 || fsm.num_states() > 4096)
    return true;

  lint::LintReport report;
  report.source = "fuzz";
  {
    robust::RunGuard guard(robust::Budget{}, "fuzz.lint");
    lint::lint_fsm_symbolic(fsm, guard, report);
  }
  const bool lint_nondet = report.count_rule("fsm-nondeterministic") > 0;

  bool expand_ok = false;
  std::string expand_error;
  try {
    expand_fsm(fsm, FillPolicy::kSelfLoop);
    expand_ok = true;
  } catch (const Error& e) {
    expand_error = e.what();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FUZZ FAILURE iter %llu: expand_fsm let %s escape\n",
                 static_cast<unsigned long long>(iter), e.what());
    return false;
  }

  // Agreement: lint flags nondeterminism exactly when expansion rejects.
  if (lint_nondet != expand_ok) return true;
  std::fprintf(stderr,
               "FUZZ FAILURE iter %llu: lint/expansion divergence on KISS2: "
               "lint %s fsm-nondeterministic but expand_fsm %s (%s)\n",
               static_cast<unsigned long long>(iter),
               lint_nondet ? "reports" : "does not report",
               expand_ok ? "accepts" : "rejects",
               expand_error.empty() ? "accepted" : expand_error.c_str());
  return false;
}

int run_lint_oracle(std::uint64_t iters, std::uint64_t seed) {
  std::vector<std::string> kiss_corpus, blif_corpus;
  for (const std::string& name : {std::string("lion"), std::string("dk27"),
                                  std::string("shiftreg")}) {
    CircuitExperiment exp = run_circuit(name);
    kiss_corpus.push_back(write_kiss2(exp.fsm));
    blif_corpus.push_back(to_blif(exp.synth.circuit, name));
  }

  Rng rng(seed);
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t depth = 1 + rng.below(3);
    auto corrupted = [&](const std::vector<std::string>& corpus) {
      std::string text = corpus[rng.below(corpus.size())];
      for (std::uint64_t d = 0; d < depth; ++d) text = mutate(text, rng);
      return text;
    };
    if (!check_kiss_lint_oracle(corrupted(kiss_corpus), i)) return 1;
    if (!check_blif_lint_oracle(corrupted(blif_corpus), i)) return 1;
  }
  std::printf("fuzz lint: %llu iterations, seed %llu: ok\n",
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(seed));
  return 0;
}

int run_budget(std::uint64_t iters) {
  using robust::clear_budget_injections;
  using robust::clear_guard_site_log;
  using robust::guard_sites_seen;
  using robust::inject_budget_exhaustion;

  // Discovery pass: run the full pipeline once (functional + gate level)
  // to record every guard site that exists.
  clear_budget_injections();
  clear_guard_site_log();
  {
    SuiteOptions options;
    options.gate_level = true;
    run_circuit_suite({"lion"}, options);
  }
  const std::vector<std::string> sites = guard_sites_seen();
  if (sites.empty()) {
    std::fprintf(stderr, "FUZZ FAILURE: discovery run saw no guard sites\n");
    return 1;
  }

  // Replay: inject exhaustion at each site at several offsets. The suite
  // runner must terminate with either a successful (possibly degraded)
  // run or a structured per-stage failure — nothing may escape it.
  std::uint64_t checked = 0;
  for (std::uint64_t round = 0; round < iters; ++round) {
    // 0 trips the first tick; the others cut mid-run at growing depths.
    const std::uint64_t after = round == 0 ? 0 : (1ull << (3 * round));
    for (const std::string& site : sites) {
      clear_budget_injections();
      inject_budget_exhaustion(site, after);
      SuiteOptions options;
      options.gate_level = true;
      try {
        SuiteResult suite = run_circuit_suite({"lion"}, options);
        for (const CircuitRun& run : suite.runs) {
          if (run.status.is_ok()) continue;
          if (run.status.code() != robust::Code::kBudgetExhausted) {
            std::fprintf(stderr,
                         "FUZZ FAILURE: injection at %s after %llu became "
                         "%s, not budget-exhausted\n",
                         site.c_str(), static_cast<unsigned long long>(after),
                         run.status.to_string().c_str());
            clear_budget_injections();
            return 1;
          }
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "FUZZ FAILURE: injection at %s after %llu escaped the "
                     "suite boundary: %s\n",
                     site.c_str(), static_cast<unsigned long long>(after),
                     e.what());
        clear_budget_injections();
        return 1;
      }
      ++checked;
    }
  }
  clear_budget_injections();
  std::printf("fuzz budget: %llu injections across %zu sites: ok\n",
              static_cast<unsigned long long>(checked), sites.size());
  return 0;
}

/// --- analysis mode --------------------------------------------------------

/// Static implication engine over seeded random workloads (the same
/// generator the difftest oracle uses: random synthesized FSMs, observer
/// enrichment, mixed stuck-at/bridging fault lists). Two contracts:
/// analyze() never throws on a well-formed netlist, and no statically
/// "proved" fault may be detected by simulating the workload's own tests —
/// a prune on these verdicts must never drop a detected fault.
int run_analysis(std::uint64_t iters, std::uint64_t seed) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t s = seed + i;
    const difftest::Workload w = difftest::generate_workload(s);
    analysis::FaultAnalysis fa;
    try {
      const analysis::StaticAnalyzer analyzer(w.circuit.comb);
      fa = analyzer.analyze(w.faults);
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "FUZZ FAILURE seed %llu: StaticAnalyzer threw on a "
                   "well-formed netlist: %s\n",
                   static_cast<unsigned long long>(s), e.what());
      return 1;
    }
    const FaultSimResult sim = simulate_faults(w.circuit, w.tests, w.faults);
    for (std::size_t f = 0; f < w.faults.size(); ++f) {
      if (fa.verdict[f] == analysis::FaultVerdict::kUnknown) continue;
      if (f < sim.detected_by.size() && sim.detected_by[f] >= 0) {
        std::fprintf(stderr,
                     "FUZZ FAILURE seed %llu: fault %zu statically %s but "
                     "detected by test %d — pruning would drop a detected "
                     "fault\n",
                     static_cast<unsigned long long>(s), f,
                     analysis::fault_verdict_name(fa.verdict[f]),
                     sim.detected_by[f]);
        return 1;
      }
    }
  }
  std::printf("fuzz analysis: %llu workload(s), seed %llu: ok\n",
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(seed));
  return 0;
}

/// --- store mode -----------------------------------------------------------

/// Canonical bytes of everything a pipeline run derives: any corruption
/// that changed a result changes these bytes.
std::string artifact_bytes(const CircuitExperiment& exp) {
  store::BlobWriter w;
  serialize_state_table(exp.table, w);
  serialize_synthesis_result(exp.synth, w);
  serialize_test_set(exp.gen.tests, w);
  serialize_uio_set(exp.gen.uios, w);
  w.vec_i32(std::vector<std::int32_t>(exp.gen.tested_by.begin(),
                                      exp.gen.tested_by.end()));
  w.u64(exp.gen.transitions_in_length_one);
  return w.take();
}

/// Sum of every damage-visibility counter: any corruption op the load path
/// encounters must move this.
std::uint64_t damage_counters() {
  std::uint64_t total = 0;
  for (const auto& [name, value] : obs::snapshot_metrics().counters)
    if (name.rfind("store.corrupt.", 0) == 0 || name == "store.miss")
      total += value;
  return total;
}

std::vector<std::string> store_blob_paths(const std::string& dir) {
  std::vector<std::string> paths;
  const std::string objects = dir + "/objects";
  for (const std::string& sub : store::list_dir(objects))
    for (const std::string& name : store::list_dir(objects + "/" + sub))
      if (name.size() > 5 && name.rfind(".blob") == name.size() - 5 &&
          name.find(".tmp.") == std::string::npos)
        paths.push_back(objects + "/" + sub + "/" + name);
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// Apply one corruption op (`<tag> <op> [arg]`, corpus-file line format) to
/// the store at `dir`. Ops: flip N (payload/any byte), truncate N,
/// magic (smash the magic), header N (flip a hashed header byte),
/// version (forge a future container version, checksum fixed), delete,
/// garbage N (replace the file with N foreign bytes), tmp (orphan a write
/// temporary, as a crash between write and rename would).
bool apply_store_op(const std::string& dir, const std::string& line,
                    std::string* error) {
  std::istringstream is(line);
  std::string tag, op;
  std::uint64_t arg = 0;
  is >> tag >> op >> arg;
  if (tag.empty() || op.empty()) {
    *error = "malformed op line: " + line;
    return false;
  }

  if (op == "tmp") {
    std::string mkerr;
    if (!store::make_dirs(dir + "/objects/zz", &mkerr) ||
        !store::atomic_write_file(dir + "/objects/zz/orphan.tmp.1.1",
                                  "torn rename leftovers", &mkerr)) {
      *error = mkerr;
      return false;
    }
    return true;
  }

  if (tag != "synth" && tag != "gen" && tag != "faults" && tag != "reach") {
    *error = "unknown stage tag: " + tag;
    return false;
  }
  std::string target;
  for (const std::string& path : store_blob_paths(dir))
    if (path.find("." + tag + ".blob") != std::string::npos) {
      target = path;
      break;
    }
  // An earlier op in the same scenario may have deleted this tag's blob;
  // that is a valid store state (maximal damage already), so the op is a
  // no-op rather than a scenario error.
  if (target.empty()) return true;
  if (op == "delete") {
    if (!store::remove_file(target)) {
      *error = "cannot delete " + target;
      return false;
    }
    return true;
  }

  std::string data;
  if (!store::read_file(target, &data, error)) return false;
  if (op == "flip") {
    data[arg % data.size()] ^= 0x40;
  } else if (op == "truncate") {
    data.resize(arg % data.size());
  } else if (op == "magic") {
    std::memset(data.data(), 'X', std::min<std::size_t>(8, data.size()));
  } else if (op == "header") {
    if (data.size() < store::kBlobHeaderSize) {
      *error = "blob too small for header op";
      return false;
    }
    data[8 + (arg % 48)] ^= 0x01;
  } else if (op == "version") {
    if (data.size() < store::kBlobHeaderSize) {
      *error = "blob too small for version op";
      return false;
    }
    const std::uint32_t future = store::kStoreFormatVersion + 1;
    std::memcpy(data.data() + 8, &future, 4);
    const std::uint64_t hhash = store::xxh64(data.data(), 48);
    std::memcpy(data.data() + 48, &hhash, 8);
  } else if (op == "garbage") {
    const std::size_t n = arg ? arg : 64;
    data.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      data[i] = static_cast<char>((i * 131 + 7) & 0xFF);
  } else {
    *error = "unknown op: " + op;
    return false;
  }
  return store::atomic_write_file(target, data, error);
}

/// One scenario: warm the store (checking the warm run against the cold
/// baseline on the way), apply the ops, then require the next run to be
/// byte-identical, exception-free, damage-counted, and self-repairing.
bool store_fuzz_case(const std::string& dir, const Kiss2Fsm& fsm,
                     const std::string& baseline,
                     const std::vector<std::string>& ops, const char* label) {
  {
    store::Store s(dir);
    ExperimentOptions options;
    options.cache = &s;
    if (artifact_bytes(run_fsm(fsm, options)) != baseline) {
      std::fprintf(stderr, "FUZZ FAILURE %s: warm run diverged from the cold "
                           "baseline before any corruption\n", label);
      return false;
    }
  }

  bool damaging = false;
  for (const std::string& op : ops) {
    std::string error;
    if (!apply_store_op(dir, op, &error)) {
      std::fprintf(stderr, "FUZZ FAILURE %s: cannot apply op \"%s\": %s\n",
                   label, op.c_str(), error.c_str());
      return false;
    }
    if (op.find(" tmp") == std::string::npos) damaging = true;
  }

  const std::uint64_t damaged0 = damage_counters();
  store::Store s(dir);
  ExperimentOptions options;
  options.cache = &s;
  CircuitExperiment exp;
  try {
    exp = run_fsm(fsm, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "FUZZ FAILURE %s: cache corruption escaped the pipeline as "
                 "an exception: %s\n", label, e.what());
    return false;
  }
  if (artifact_bytes(exp) != baseline) {
    std::fprintf(stderr,
                 "FUZZ FAILURE %s: cache corruption CHANGED pipeline "
                 "results\n", label);
    return false;
  }
  if (damaging && damage_counters() == damaged0) {
    std::fprintf(stderr,
                 "FUZZ FAILURE %s: damage was consumed without a "
                 "store.corrupt.*/store.miss count\n", label);
    return false;
  }
  const store::VerifyOutcome v = s.verify();
  if (v.corrupt != 0) {
    std::fprintf(stderr,
                 "FUZZ FAILURE %s: store not self-repaired (%llu corrupt "
                 "blob(s) after the warm run)\n", label,
                 static_cast<unsigned long long>(v.corrupt));
    return false;
  }
  return true;
}

std::string random_store_op(Rng& rng) {
  const std::string tag = rng.below(2) ? "synth" : "gen";
  switch (rng.below(8)) {
    case 0: return tag + " flip " + std::to_string(rng.below(1 << 20));
    case 1: return tag + " truncate " + std::to_string(rng.below(1 << 20));
    case 2: return tag + " magic";
    case 3: return tag + " header " + std::to_string(rng.below(48));
    case 4: return tag + " version";
    case 5: return tag + " delete";
    case 6: return tag + " garbage " + std::to_string(rng.below(8192));
    default: return tag + " tmp";
  }
}

int run_store(std::uint64_t iters, std::uint64_t seed,
              const std::string& corpus_dir, const std::string& cache_dir) {
  const std::string dir =
      cache_dir.empty() ? std::string("fuzz_store_cache") : cache_dir;
  std::filesystem::remove_all(dir);
  const Kiss2Fsm fsm = make_synthetic_fsm("store-fuzz", 2, 6, 3);

  std::string baseline;
  {
    store::Store s(dir);
    if (!s.usable()) {
      std::fprintf(stderr, "error: cannot create cache directory %s\n",
                   dir.c_str());
      return 1;
    }
    ExperimentOptions options;
    options.cache = &s;
    baseline = artifact_bytes(run_fsm(fsm, options));
  }

  std::size_t cases = 0;
  if (!corpus_dir.empty()) {
    std::vector<std::string> files;
    for (const std::string& name : store::list_dir(corpus_dir))
      if (name.size() > 5 && name.rfind(".case") == name.size() - 5)
        files.push_back(corpus_dir + "/" + name);
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      std::fprintf(stderr, "error: no .case files in %s\n",
                   corpus_dir.c_str());
      return 1;
    }
    for (const std::string& path : files) {
      std::string text, error;
      if (!store::read_file(path, &text, &error)) {
        std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
        return 1;
      }
      std::vector<std::string> ops;
      std::istringstream lines(text);
      for (std::string line; std::getline(lines, line);)
        if (!line.empty() && line[0] != '#') ops.push_back(line);
      if (!store_fuzz_case(dir, fsm, baseline, ops, path.c_str())) return 1;
      ++cases;
    }
  }

  Rng rng(seed);
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::string label = "seed " + std::to_string(seed) + " iter " +
                              std::to_string(i);
    std::vector<std::string> ops;
    const std::uint64_t depth = 1 + rng.below(3);
    for (std::uint64_t d = 0; d < depth; ++d)
      ops.push_back(random_store_op(rng));
    if (!store_fuzz_case(dir, fsm, baseline, ops, label.c_str())) {
      // Print the scenario in corpus form so it can be checked in.
      std::fprintf(stderr, "failing scenario (save as a .case file):\n");
      for (const std::string& op : ops)
        std::fprintf(stderr, "%s\n", op.c_str());
      return 1;
    }
    ++cases;
  }
  std::printf("fuzz store: %zu case(s) (%s%llu random, seed %llu): ok\n",
              cases, corpus_dir.empty() ? "" : "corpus + ",
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(seed));
  return 0;
}

/// --- serve mode -----------------------------------------------------------

std::string hex_encode(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out += digits[c >> 4];
    out += digits[c & 0xF];
  }
  return out;
}

bool hex_decode(const std::string& hex, std::string* out) {
  if (hex.size() % 2 != 0) return false;
  out->clear();
  out->reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    int v = 0;
    for (int k = 0; k < 2; ++k) {
      const char c = hex[i + k];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= c - '0';
      else if (c >= 'a' && c <= 'f') v |= c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') v |= c - 'A' + 10;
      else return false;
    }
    out->push_back(static_cast<char>(v));
  }
  return true;
}

/// One corpus line -> one feed chunk. `hex <bytes>` is raw bytes, `raw
/// <text>` is the rest of the line verbatim, `frame <json>` wraps the rest
/// of the line in a correct length prefix (so cases can express
/// "well-framed but malformed payload" readably).
bool parse_serve_case_line(const std::string& line, std::string* chunk,
                           std::string* error) {
  const std::size_t sp = line.find(' ');
  const std::string op = line.substr(0, sp);
  const std::string rest =
      sp == std::string::npos ? std::string() : line.substr(sp + 1);
  if (op == "hex") {
    if (!hex_decode(rest, chunk)) {
      *error = "bad hex: " + rest;
      return false;
    }
    return true;
  }
  if (op == "raw") {
    *chunk = rest;
    return true;
  }
  if (op == "frame") {
    *chunk = serve::encode_frame(rest);
    return true;
  }
  *error = "unknown op: " + op;
  return false;
}

/// Feed the chunks through a fresh decoder exactly as the daemon's reader
/// loop would. Contract: no exception of any kind escapes (the boundary
/// speaks in return values), the decoder's sticky error survives further
/// feeding, buffering never exceeds the frame cap plus one read, and any
/// accepted request re-serializes through the self-validating writer.
bool serve_fuzz_case(const std::vector<std::string>& chunks,
                     const char* label) {
  constexpr std::size_t kCap = 1 << 20;
  serve::FrameDecoder decoder(kCap);
  try {
    for (const std::string& chunk : chunks) {
      decoder.feed(chunk.data(), chunk.size());
      for (;;) {
        std::string payload, err;
        const serve::FrameDecoder::Outcome out = decoder.next(&payload, &err);
        if (out == serve::FrameDecoder::Outcome::kNeedMore) break;
        if (out == serve::FrameDecoder::Outcome::kError) break;
        serve::ServeRequest req;
        std::string perr;
        if (serve::parse_serve_request(payload, &req, &perr)) {
          // Writer/parser agreement: an accepted request must render and
          // re-parse; the writer self-validates against its schema.
          serve::ServeRequest back;
          if (!serve::parse_serve_request(serve::serve_request_to_json(req),
                                          &back, &perr)) {
            std::fprintf(stderr,
                         "FUZZ FAILURE %s: accepted request did not "
                         "round-trip: %s\n",
                         label, perr.c_str());
            return false;
          }
        }
      }
      if (decoder.buffered_bytes() > kCap + serve::kFramePrefixBytes) {
        std::fprintf(stderr,
                     "FUZZ FAILURE %s: decoder buffered %zu bytes past the "
                     "%zu cap\n",
                     label, decoder.buffered_bytes(), kCap);
        return false;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "FUZZ FAILURE %s: serve wire boundary let %s escape (it "
                 "must speak in return values, not exceptions)\n",
                 label, e.what());
    return false;
  }
  return true;
}

int run_serve(std::uint64_t iters, std::uint64_t seed,
              const std::string& corpus_dir) {
  std::size_t cases = 0;
  if (!corpus_dir.empty()) {
    std::vector<std::string> files;
    for (const std::string& name : store::list_dir(corpus_dir))
      if (name.size() > 5 && name.rfind(".case") == name.size() - 5)
        files.push_back(corpus_dir + "/" + name);
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      std::fprintf(stderr, "error: no .case files in %s\n",
                   corpus_dir.c_str());
      return 1;
    }
    for (const std::string& path : files) {
      std::string text, error;
      if (!store::read_file(path, &text, &error)) {
        std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
        return 1;
      }
      std::vector<std::string> chunks;
      std::istringstream lines(text);
      for (std::string line; std::getline(lines, line);) {
        if (line.empty() || line[0] == '#') continue;
        std::string chunk;
        if (!parse_serve_case_line(line, &chunk, &error)) {
          std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
          return 1;
        }
        chunks.push_back(std::move(chunk));
      }
      if (!serve_fuzz_case(chunks, path.c_str())) return 1;
      ++cases;
    }
  }

  // Seed payloads: one valid request of every type, so mutations explore
  // the neighborhood of real traffic rather than only uniform noise.
  std::vector<std::string> payloads;
  {
    serve::ServeRequest req;
    req.type = "ping";
    payloads.push_back(serve::serve_request_to_json(req));
    req = serve::ServeRequest();
    req.type = "metrics";
    req.id = "m-1";
    payloads.push_back(serve::serve_request_to_json(req));
    req = serve::ServeRequest();
    req.type = "gen";
    req.circuit = "lion";
    req.uio = 2;
    req.budget.time_budget_ms = 100;
    payloads.push_back(serve::serve_request_to_json(req));
    req = serve::ServeRequest();
    req.type = "sim";
    req.circuit = "lion";
    req.tests = ".circuit lion\n.inputs 2\n.states 2\n";
    req.budget.max_expansions = 1000;
    payloads.push_back(serve::serve_request_to_json(req));
    req = serve::ServeRequest();
    req.type = "lint";
    req.kiss2 = write_kiss2(make_synthetic_fsm("serve-fuzz", 2, 4, 1));
    payloads.push_back(serve::serve_request_to_json(req));
  }

  Rng rng(seed);
  for (std::uint64_t i = 0; i < iters; ++i) {
    // 1-3 frames per stream, mutated at the payload level (well-framed
    // garbage JSON) or the wire level (corrupted length prefixes and torn
    // framing), then split into random read-sized chunks.
    std::string stream;
    const std::uint64_t frames = 1 + rng.below(3);
    for (std::uint64_t f = 0; f < frames; ++f) {
      std::string payload = payloads[rng.below(payloads.size())];
      const std::uint64_t depth = rng.below(3);
      if (rng.below(2)) {
        for (std::uint64_t d = 0; d < depth; ++d) payload = mutate(payload, rng);
        stream += serve::encode_frame(payload);
      } else {
        std::string wire = serve::encode_frame(payload);
        for (std::uint64_t d = 0; d < depth; ++d) wire = mutate(wire, rng);
        stream += wire;
      }
    }
    std::vector<std::string> chunks;
    std::size_t at = 0;
    while (at < stream.size()) {
      const std::size_t len = 1 + rng.below(stream.size() - at);
      chunks.push_back(stream.substr(at, len));
      at += len;
    }
    const std::string label =
        "seed " + std::to_string(seed) + " iter " + std::to_string(i);
    if (!serve_fuzz_case(chunks, label.c_str())) {
      std::fprintf(stderr, "failing scenario (save as a .case file):\n");
      for (const std::string& chunk : chunks)
        std::fprintf(stderr, "hex %s\n", hex_encode(chunk).c_str());
      return 1;
    }
    ++cases;
  }
  std::printf("fuzz serve: %zu case(s) (%s%llu random, seed %llu): ok\n",
              cases, corpus_dir.empty() ? "" : "corpus + ",
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(seed));
  return 0;
}

int dispatch_mode(const std::string& mode, std::uint64_t iters,
                  std::uint64_t seed, const std::string& corpus_dir,
                  const std::string& cache_dir) {
  if (mode == "parsers") return run_parsers(iters, seed);
  if (mode == "lint") return run_lint_oracle(iters, seed);
  if (mode == "budget") return run_budget(iters);
  if (mode == "analysis") return run_analysis(iters, seed);
  if (mode == "store") return run_store(iters, seed, corpus_dir, cache_dir);
  if (mode == "serve") return run_serve(iters, seed, corpus_dir);
  if (mode == "all") {
    const int p = run_parsers(iters == 3 ? 200 : iters, seed);
    if (p != 0) return p;
    const int l = run_lint_oracle(iters == 3 ? 200 : iters, seed);
    if (l != 0) return l;
    const int a = run_analysis(iters == 3 ? 100 : iters, seed);
    if (a != 0) return a;
    const int v = run_serve(iters == 3 ? 200 : iters, seed, "");
    if (v != 0) return v;
    const int b = run_budget(3);
    if (b != 0) return b;
    return run_store(10, seed, corpus_dir, cache_dir);
  }
  return usage();
}

int fuzz_main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::uint64_t iters = mode == "budget" || mode == "all" ? 3
                        : mode == "store"                 ? 20
                                                          : 200;
  std::uint64_t seed = 1;
  std::string corpus_dir, cache_dir, metrics_out, trace_out;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--iters" || arg == "--seed") && i + 1 < argc) {
      char* endp = nullptr;
      const unsigned long long v = std::strtoull(argv[i + 1], &endp, 10);
      if (endp == argv[i + 1] || *endp != '\0') return usage();
      (arg == "--iters" ? iters : seed) = v;
      ++i;
    } else if ((arg == "--corpus-dir" || arg == "--dir") && i + 1 < argc) {
      (arg == "--corpus-dir" ? corpus_dir : cache_dir) = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg == "--log-level" && i + 1 < argc) {
      const std::string level = argv[++i];
      if (level == "debug") set_log_level(LogLevel::kDebug);
      else if (level == "info") set_log_level(LogLevel::kInfo);
      else if (level == "warn") set_log_level(LogLevel::kWarn);
      else if (level == "error") set_log_level(LogLevel::kError);
      else return usage();
    } else {
      return usage();
    }
  }

  if (!trace_out.empty()) obs::start_tracing();

  int rc = dispatch_mode(mode, iters, seed, corpus_dir, cache_dir);

  // Same contract as the fstg/fstg_difftest front ends: the observability
  // outputs are written whatever the campaign's outcome — a failing fuzz
  // run's metrics are exactly the ones worth keeping.
  std::string error;
  if (!metrics_out.empty() && !obs::write_metrics_json(metrics_out, &error)) {
    std::fprintf(stderr, "error: --metrics-out: %s\n", error.c_str());
    if (rc == 0) rc = 1;
  }
  if (!trace_out.empty() && !obs::write_trace_json(trace_out, &error)) {
    std::fprintf(stderr, "error: --trace-out: %s\n", error.c_str());
    if (rc == 0) rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace fstg

int main(int argc, char** argv) { return fstg::fuzz_main(argc, argv); }
