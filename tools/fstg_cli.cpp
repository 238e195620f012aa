// fstg — command-line front end to the functional scan test generation
// library (Pomeranz & Reddy, DATE 2000 reproduction).
//
//   fstg list                         list the built-in benchmark circuits
//   fstg info <circuit|file.kiss>     machine + implementation summary
//   fstg gen  <circuit|file.kiss> [-o tests.txt] [--uio L] [--xfer L]
//                                     generate functional tests
//   fstg sim  <circuit|file.kiss> <tests.txt>
//                                     gate-level fault simulation of a
//                                     test file (stuck-at + bridging)
//   fstg verilog <circuit|file.kiss> [-o out.v] [--tb tb.v]
//                                     emit Verilog netlist (and testbench)
//   fstg serve <--socket P|--tcp N>   persistent ATPG daemon (docs/SERVING.md)
//
// Exit codes (stable, scriptable):
//   0  success
//   1  usage error (bad command line)
//   2  input error (parse failure, unreadable/unwritable file)
//   3  budget exhausted without a usable result (see --time-budget-ms)
//   4  internal error (invariant violation in the library)

#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "analysis/static_faults.h"
#include "atpg/cycles.h"
#include "atpg/test_io.h"
#include "base/error.h"
#include "base/log.h"
#include "base/obs/metrics.h"
#include "base/obs/schema.h"
#include "base/obs/telemetry.h"
#include "base/obs/trace.h"
#include "base/parallel/thread_pool.h"
#include "base/robust/budget.h"
#include "base/store/fs_util.h"
#include "base/store/hash.h"
#include "base/store/ledger.h"
#include "base/store/store.h"
#include "base/timer.h"
#include "fault/fault_io.h"
#include "fault/sim_width.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "kiss/kiss2_parser.h"
#include "lint/lint.h"
#include "netlist/blif_reader.h"
#include "netlist/export.h"
#include "netlist/verilog.h"
#include "serve/server.h"

namespace {

using namespace fstg;

enum ExitCode : int {
  kExitOk = 0,
  kExitUsage = 1,
  kExitParse = 2,
  kExitBudget = 3,
  kExitInternal = 4,
};

/// Raised by flag parsing for malformed values; mapped to kExitUsage.
struct UsageError {};

/// Full-width integer flag (byte counts, frame sizes). Every malformed
/// value goes through the same UsageError path, so the exit-code contract
/// (1 = usage) holds for every flag uniformly.
long long parse_i64_flag(const char* flag, const char* text, long long lo,
                         long long hi) {
  long long v = 0;
  const char* end = text + std::strlen(text);
  auto [p, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || p != end || v < lo || v > hi) {
    std::fprintf(stderr, "error: %s expects an integer in [%lld, %lld]\n",
                 flag, lo, hi);
    throw UsageError{};
  }
  return v;
}

int parse_int_flag(const char* flag, const char* text, long long lo,
                   long long hi) {
  return static_cast<int>(parse_i64_flag(flag, text, lo, hi));
}

/// --time-budget-ms / --max-expansions, shared by gen and sim.
struct BudgetFlags {
  robust::Budget budget;

  /// Consume the flag at argv[i] if it is one of ours (advancing i past the
  /// value); returns false if the flag is not budget-related.
  bool consume(int argc, char** argv, int& i) {
    if (!std::strcmp(argv[i], "--time-budget-ms") && i + 1 < argc) {
      budget.time_budget_ms =
          parse_int_flag("--time-budget-ms", argv[++i], 1, 86'400'000);
      return true;
    }
    if (!std::strcmp(argv[i], "--max-expansions") && i + 1 < argc) {
      budget.max_expansions = static_cast<std::uint64_t>(
          parse_int_flag("--max-expansions", argv[++i], 1, 2'000'000'000));
      return true;
    }
    return false;
  }
};

double parse_double_flag(const char* flag, const char* text, double lo,
                         double hi) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || v < lo || v > hi) {
    std::fprintf(stderr, "error: %s expects a number in [%g, %g]\n", flag, lo,
                 hi);
    throw UsageError{};
  }
  return v;
}

/// The global --ledger flag (main strips it; report and the end-of-run
/// append both consult it through store::resolve_ledger_path).
std::string g_ledger_flag;

LogLevel parse_log_level(const char* text) {
  if (!std::strcmp(text, "debug")) return LogLevel::kDebug;
  if (!std::strcmp(text, "info")) return LogLevel::kInfo;
  if (!std::strcmp(text, "warn")) return LogLevel::kWarn;
  if (!std::strcmp(text, "error")) return LogLevel::kError;
  std::fprintf(stderr,
               "error: --log-level expects debug|info|warn|error, got %s\n",
               text);
  throw UsageError{};
}

Kiss2Fsm load_machine(const std::string& arg) {
  try {
    return load_benchmark(arg);
  } catch (const Error&) {
    return parse_kiss2_file(arg);
  }
}

/// Write `text` to `path` atomically (temp + rename), or to stdout when
/// `path` is empty. A short write (ENOSPC) or rename failure is reported as
/// an input/output error — never a torn file.
void write_output(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::cout << text;
    return;
  }
  std::string error;
  require(store::atomic_write_file(path, text, &error),
          "cannot write " + path + ": " + error);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

int cmd_list() {
  std::printf("%-10s %3s %3s %7s %8s  %s\n", "circuit", "pi", "sv", "states",
              "outputs", "source");
  for (const BenchmarkSpec& spec : benchmark_specs()) {
    const char* source = spec.source == BenchmarkSource::kExactEmbedded
                             ? "exact (paper Table 1)"
                         : spec.source == BenchmarkSource::kDerived
                             ? "derived from definition"
                             : "synthetic stand-in";
    std::printf("%-10s %3d %3d %7d %8d  %s\n", spec.name.c_str(), spec.pi,
                spec.sv, spec.specified_states, spec.outputs, source);
  }
  return kExitOk;
}

int cmd_info(const std::string& target) {
  CircuitExperiment exp = run_fsm(load_machine(target));
  std::printf("machine      : %s\n", exp.fsm.name.c_str());
  std::printf("inputs       : %d (%u combinations)\n", exp.fsm.num_inputs,
              exp.table.num_input_combos());
  std::printf("outputs      : %d\n", exp.fsm.num_outputs);
  std::printf("states       : %d specified, %d after completion\n",
              exp.fsm.num_states(), exp.table.num_states());
  std::printf("implementation: %d gates, depth %d, %d state variables\n",
              exp.synth.circuit.comb.num_gates(),
              exp.synth.circuit.comb.depth(), exp.synth.circuit.num_sv);
  std::printf("UIO sequences: %d of %d states (max length %d)\n",
              exp.gen.uios.count(), exp.table.num_states(),
              exp.gen.uios.max_length());
  std::printf("functional tests: %zu (total length %zu) for %zu transitions\n",
              exp.gen.tests.size(), exp.gen.tests.total_length(),
              exp.table.num_transitions());
  return kExitOk;
}

int cmd_gen(const std::string& target, const std::string& out,
            int uio_bound, int xfer_bound, const robust::Budget& budget) {
  ExperimentOptions options;
  options.gen.uio_max_length = uio_bound;
  options.gen.transfer_max_length = xfer_bound;
  options.gen.budget = budget;
  const CircuitExperiment exp = run_fsm(load_machine(target), options);
  const TestFile file = test_file_for(exp);

  const int sv = exp.synth.circuit.num_sv;
  const std::size_t cycles = test_application_cycles(sv, file.tests);
  std::fprintf(stderr,
               "%zu tests, total length %zu, %zu application cycles "
               "(%.2f%% of per-transition)\n",
               file.tests.size(), file.tests.total_length(), cycles,
               100.0 * static_cast<double>(cycles) /
                   static_cast<double>(per_transition_cycles(
                       sv, exp.table.num_transitions())));
  if (out.empty()) {
    std::cout << write_test_file(file);
  } else {
    save_test_file(file, out);
    std::fprintf(stderr, "wrote %s\n", out.c_str());
  }
  return kExitOk;
}

int cmd_sim(const std::string& target, const std::string& tests_path,
            bool static_prune, const robust::Budget& budget) {
  const CircuitExperiment exp = run_fsm(load_machine(target));
  // The budget covers the two fault simulations (the dominant cost).
  // A partial simulation would under-report coverage, so exhaustion here
  // is a hard budget failure (exit 3), not a degraded success.
  GateLevelOptions options;
  options.static_prune = static_prune;
  options.budget = budget;
  const GateLevelResult gate =
      simulate_test_file(exp, load_test_file(tests_path), options);
  if (gate.static_pruned)
    std::printf(
        "static   : %zu stuck-at + %zu bridging faults pruned "
        "(%zu unexcitable, %zu unpropagatable), %zu equivalence classes "
        "(%zu merged)\n",
        gate.sa_pruned, gate.br_pruned, gate.static_unexcitable,
        gate.static_unpropagatable, gate.static_equiv_classes,
        gate.static_equiv_merged);
  std::printf("stuck-at : %zu/%zu detected (%.2f%%), detectable coverage "
              "%.2f%%, %zu effective tests\n",
              gate.sa.sim.detected_faults, gate.sa.sim.total_faults,
              gate.sa.sim.coverage_percent(),
              gate.sa_redundancy.detectable_coverage_percent(),
              gate.sa.effective_tests.size());
  std::printf("bridging : %zu/%zu detected (%.2f%%), detectable coverage "
              "%.2f%%, %zu effective tests\n",
              gate.br.sim.detected_faults, gate.br.sim.total_faults,
              gate.br.sim.coverage_percent(),
              gate.br_redundancy.detectable_coverage_percent(),
              gate.br.effective_tests.size());
  return kExitOk;
}

int cmd_verilog(const std::string& target, const std::string& out,
                const std::string& tb_out) {
  CircuitExperiment exp = run_fsm(load_machine(target));
  write_output(out, to_verilog(exp.synth.circuit));
  if (!tb_out.empty()) {
    std::vector<std::vector<std::uint32_t>> expected;
    for (const FunctionalTest& t : exp.gen.tests.tests)
      expected.push_back(exp.table.trace(t.init_state, t.inputs));
    write_output(tb_out,
                 to_verilog_testbench(exp.synth.circuit, exp.gen.tests,
                                      expected));
  }
  return kExitOk;
}

int cmd_export(const std::string& target, const std::string& format,
               const std::string& out) {
  CircuitExperiment exp = run_fsm(load_machine(target));
  std::string text;
  if (format == "blif")
    text = to_blif(exp.synth.circuit);
  else if (format == "bench")
    text = to_bench(exp.synth.circuit);
  else
    throw Error("unknown export format (use blif or bench): " + format);
  write_output(out, text);
  return kExitOk;
}

int cmd_cache(const std::string& action, bool json, long long max_bytes) {
  store::Store* s = store::global_store();
  if (!s) {
    std::fprintf(stderr, "error: fstg cache requires --cache-dir DIR\n");
    return kExitUsage;
  }
  if (action == "stats") {
    const store::StoreStats stats = s->stats();
    if (json) {
      // Self-checking writer: the document is checked against
      // schemas/fstg_cache_meta.schema.json before it is emitted.
      const std::string text = store::cache_meta_json(stats);
      std::string error;
      require(obs::check_json("fstg_cache_meta", text, nullptr, &error),
              "cache meta JSON failed self-validation: " + error);
      std::cout << text;
    } else {
      std::printf("cache directory : %s\n", s->dir().c_str());
      std::printf("blobs           : %llu (%llu bytes)\n",
                  static_cast<unsigned long long>(stats.blobs),
                  static_cast<unsigned long long>(stats.bytes));
      std::printf("corrupt         : %llu\n",
                  static_cast<unsigned long long>(stats.corrupt));
      std::printf("orphaned temps  : %llu\n",
                  static_cast<unsigned long long>(stats.tmp_files));
      std::printf("checkpoints     : %llu\n",
                  static_cast<unsigned long long>(stats.checkpoints));
      for (const auto& t : stats.types)
        std::printf("  %-8s %llu blobs, %llu bytes\n", t.tag.c_str(),
                    static_cast<unsigned long long>(t.blobs),
                    static_cast<unsigned long long>(t.bytes));
    }
    return kExitOk;
  }
  if (action == "verify") {
    const store::VerifyOutcome v = s->verify();
    std::printf("verified %llu blobs: %llu valid, %llu corrupt\n",
                static_cast<unsigned long long>(v.total),
                static_cast<unsigned long long>(v.valid),
                static_cast<unsigned long long>(v.corrupt));
    for (const std::string& f : v.corrupt_files)
      std::printf("corrupt: %s\n", f.c_str());
    // Corruption is an input problem with the cache directory (exit 2);
    // pipeline commands would degrade to recompute instead.
    return v.corrupt == 0 ? kExitOk : kExitParse;
  }
  if (action == "gc") {
    const store::GcOutcome g = s->gc(max_bytes);
    std::printf(
        "gc: removed %llu corrupt, %llu temps; evicted %llu blobs; "
        "%llu bytes freed\n",
        static_cast<unsigned long long>(g.removed_corrupt),
        static_cast<unsigned long long>(g.removed_tmp),
        static_cast<unsigned long long>(g.evicted),
        static_cast<unsigned long long>(g.bytes_freed));
    return kExitOk;
  }
  std::fprintf(stderr, "error: fstg cache expects stats|verify|gc\n");
  return kExitUsage;
}

int cmd_lint(const std::string& target, const std::string& faults_path,
             bool json, const std::string& out, int uio_bound, bool no_table,
             const robust::Budget& budget) {
  lint::LintOptions options;
  options.budget = budget;
  options.uio_max_length = uio_bound;
  options.check_table = !no_table;

  FaultListFile faults;
  const FaultListFile* faults_ptr = nullptr;
  if (!faults_path.empty()) {
    faults = parse_fault_list_file(faults_path);
    faults_ptr = &faults;
  }

  lint::LintReport report;
  if (target.ends_with(".blif")) {
    std::ifstream in(target);
    require(in.good(), "cannot open BLIF file: " + target);
    std::ostringstream ss;
    ss << in.rdbuf();
    report =
        lint::run_lint_blif(parse_blif_model(ss.str()), target, faults_ptr,
                            options);
  } else {
    report = lint::run_lint_kiss2(load_machine(target), faults_ptr, options);
  }

  // The JSON view is checked against schemas/fstg_lint.schema.json before
  // it is emitted, like the metrics/trace writers: an invalid document must
  // never reach a consumer.
  const std::string text =
      json ? lint::report_to_json(report) : lint::report_to_text(report);
  if (json) {
    std::string error;
    require(obs::check_json("fstg_lint", text, nullptr, &error),
            "lint JSON failed self-validation: " + error);
  }
  write_output(out, text);

  if (report.has_errors()) return kExitParse;
  if (report.truncated) return kExitBudget;
  return kExitOk;
}

int usage();

/// SIGINT/SIGTERM → graceful drain: the handler only flags and wakes (the
/// one async-signal-safe operation the server exposes); main's wait/stop
/// pair does the actual teardown.
serve::Server* g_serve_instance = nullptr;

extern "C" void serve_signal_handler(int) {
  if (g_serve_instance) g_serve_instance->signal_stop_async();
}

/// `fstg serve --client`: send newline-delimited JSON requests (file or
/// stdin) over one connection, pipelined, and print one response JSON line
/// each. Exit: 0 all ok, 3 any budget-tripped response, 2 any failed
/// response or transport error — same categories as the offline commands.
int cmd_serve_client(const std::string& socket_path, int tcp_port,
                     const std::string& requests_path, int connect_timeout_ms,
                     int recv_timeout_ms) {
  std::vector<std::string> lines;
  {
    std::istream* in = &std::cin;
    std::ifstream file;
    if (!requests_path.empty() && requests_path != "-") {
      file.open(requests_path);
      require(file.good(), "cannot open request file: " + requests_path);
      in = &file;
    }
    std::string line;
    while (std::getline(*in, line))
      if (!line.empty() && line[0] != '#') lines.push_back(line);
  }

  serve::Client client;
  std::string error;
  const bool connected =
      socket_path.empty()
          ? client.connect_tcp(tcp_port, connect_timeout_ms, &error)
          : client.connect_unix(socket_path, connect_timeout_ms, &error);
  if (!connected) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitParse;
  }
  for (const std::string& line : lines)
    require(client.send(line, &error), "send failed: " + error);

  bool any_budget = false, any_failed = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string payload;
    if (!client.recv(&payload, recv_timeout_ms, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return kExitParse;
    }
    std::printf("%s\n", payload.c_str());
    serve::ServeResponse resp;
    if (!serve::parse_serve_response(payload, &resp, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return kExitParse;
    }
    if (resp.status == "budget") any_budget = true;
    else if (resp.status != "ok") any_failed = true;
  }
  if (any_failed) return kExitParse;
  if (any_budget) return kExitBudget;
  return kExitOk;
}

int cmd_serve(int argc, char** argv) {
  serve::ServeOptions so;
  BudgetFlags budget;
  bool client_mode = false;
  std::string requests_path;
  int connect_timeout_ms = 10'000;
  int recv_timeout_ms = 120'000;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--socket") && i + 1 < argc)
      so.socket_path = argv[++i];
    else if (!std::strcmp(argv[i], "--tcp") && i + 1 < argc)
      so.tcp_port = parse_int_flag("--tcp", argv[++i], 0, 65535);
    else if (!std::strcmp(argv[i], "--workers") && i + 1 < argc)
      so.workers = parse_int_flag("--workers", argv[++i], 1, 256);
    else if (!std::strcmp(argv[i], "--queue-capacity") && i + 1 < argc)
      so.queue_capacity =
          parse_int_flag("--queue-capacity", argv[++i], 1, 65536);
    else if (!std::strcmp(argv[i], "--max-frame-bytes") && i + 1 < argc)
      so.max_frame_bytes = static_cast<std::size_t>(parse_i64_flag(
          "--max-frame-bytes", argv[++i], 64, 1'073'741'824));
    else if (!std::strcmp(argv[i], "--max-circuits") && i + 1 < argc)
      so.max_circuits = static_cast<std::size_t>(
          parse_int_flag("--max-circuits", argv[++i], 1, 4096));
    else if (!std::strcmp(argv[i], "--once"))
      so.once = true;
    else if (!std::strcmp(argv[i], "--client"))
      client_mode = true;
    else if (!std::strcmp(argv[i], "--requests") && i + 1 < argc)
      requests_path = argv[++i];
    else if (!std::strcmp(argv[i], "--connect-timeout-ms") && i + 1 < argc)
      connect_timeout_ms =
          parse_int_flag("--connect-timeout-ms", argv[++i], 1, 3'600'000);
    else if (!std::strcmp(argv[i], "--recv-timeout-ms") && i + 1 < argc)
      recv_timeout_ms =
          parse_int_flag("--recv-timeout-ms", argv[++i], 1, 86'400'000);
    else if (budget.consume(argc, argv, i)) continue;
    else return usage();
  }
  if (so.socket_path.empty() && so.tcp_port < 0) {
    std::fprintf(stderr, "error: fstg serve needs --socket PATH or --tcp "
                         "PORT\n");
    return kExitUsage;
  }
  if (client_mode)
    return cmd_serve_client(so.socket_path, so.tcp_port, requests_path,
                            connect_timeout_ms, recv_timeout_ms);

  so.default_budget = budget.budget;
  so.ledger_path = store::resolve_ledger_path(g_ledger_flag);
  serve::Server server(so);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitParse;
  }
  if (!so.socket_path.empty())
    std::printf("listening on %s\n", so.socket_path.c_str());
  else
    std::printf("listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);  // scripts read the resolved (ephemeral) port here

  g_serve_instance = &server;
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  server.wait();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_serve_instance = nullptr;
  server.stop();
  return kExitOk;
}

int cmd_report(int argc, char** argv) {
  bool json = false, check_regression = false;
  std::string out;
  ReportOptions options;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json")) json = true;
    else if (!std::strcmp(argv[i], "--check-regression")) check_regression = true;
    else if (!std::strcmp(argv[i], "-o") && i + 1 < argc) out = argv[++i];
    else if (!std::strcmp(argv[i], "--baseline") && i + 1 < argc)
      options.baseline_run =
          parse_int_flag("--baseline", argv[++i], 0, 2'000'000'000);
    else if (!std::strcmp(argv[i], "--watch") && i + 1 < argc)
      options.watch.push_back(argv[++i]);
    else if (!std::strcmp(argv[i], "--threshold-pct") && i + 1 < argc)
      options.threshold_pct =
          parse_double_flag("--threshold-pct", argv[++i], 0.0, 10000.0);
    else if (!std::strcmp(argv[i], "--slack-ms") && i + 1 < argc)
      options.slack_ms =
          parse_double_flag("--slack-ms", argv[++i], 0.0, 1e9);
    else return usage();
  }
  const std::string path = store::resolve_ledger_path(g_ledger_flag);
  if (path.empty()) {
    std::fprintf(stderr,
                 "error: fstg report requires --ledger FILE or --cache-dir "
                 "DIR (the ledger lives at DIR/runs.jsonl)\n");
    return kExitUsage;
  }
  const store::Ledger ledger(path);
  const Report report = build_report(ledger.read(), options, path);

  if (json) {
    // Self-checking writer, like metrics/lint: checked against
    // schemas/fstg_report.schema.json before anything is emitted.
    const std::string text = report_to_json(report);
    std::string error;
    require(obs::check_json("fstg_report", text, nullptr, &error),
            "report JSON failed self-validation: " + error);
    write_output(out, text);
  } else {
    write_output(out, report_to_text(report));
  }
  if (check_regression && report.regressed()) {
    std::fprintf(stderr,
                 "regression: %llu watched stage(s) degraded more than "
                 "%.1f%% vs baseline\n",
                 static_cast<unsigned long long>(report.regressions),
                 report.threshold_pct);
    return kExitParse;
  }
  return kExitOk;
}

int usage() {
  std::fprintf(stderr,
               "usage: fstg <list|info|gen|sim|lint|verilog|export|cache|"
               "report|serve> [args]\n"
               "  fstg list\n"
               "  fstg info <circuit|file.kiss>\n"
               "  fstg lint <circuit|file.kiss|file.blif> [--faults f.flt]\n"
               "           [--json] [-o out] [--uio L] [--no-table]\n"
               "           [--time-budget-ms N] [--max-expansions N]\n"
               "           static analysis (docs/LINTING.md): exit 2 if any\n"
               "           error-severity finding, 3 if the budget cut the\n"
               "           run short, 0 otherwise (warnings don't fail)\n"
               "  fstg gen <circuit|file.kiss> [-o tests.txt] [--uio L] "
               "[--xfer L]\n"
               "           [--time-budget-ms N] [--max-expansions N]\n"
               "  fstg sim <circuit|file.kiss> <tests.txt> [--static-prune]\n"
               "           [--time-budget-ms N] [--max-expansions N]\n"
               "           --static-prune runs the fault-independent\n"
               "           implication engine first and drops faults it\n"
               "           proves untestable before any simulation\n"
               "  fstg verilog <circuit|file.kiss> [-o out.v] [--tb tb.v]\n"
               "  fstg export <circuit|file.kiss> <blif|bench> [-o out]\n"
               "  fstg cache <stats|verify|gc> --cache-dir DIR [--json]\n"
               "           [--max-bytes N]\n"
               "           inspect/repair the artifact store: stats prints\n"
               "           totals (--json: fstg.cache_meta.v1), verify\n"
               "           re-hashes every blob (exit 2 if any corrupt), gc\n"
               "           removes damage and evicts to --max-bytes\n"
               "  fstg report [--json] [-o out] [--baseline N]\n"
               "           [--watch STAGE]... [--threshold-pct X]\n"
               "           [--slack-ms X] [--check-regression]\n"
               "           aggregate the run ledger (--ledger or\n"
               "           --cache-dir/runs.jsonl) into per-circuit timing\n"
               "           trends vs baseline (--json: fstg.report.v1);\n"
               "           --check-regression exits 2 when a watched stage\n"
               "           degrades past the threshold\n"
               "  fstg serve <--socket PATH|--tcp PORT> [--workers N]\n"
               "           [--queue-capacity N] [--max-frame-bytes N]\n"
               "           [--max-circuits N] [--once]\n"
               "           [--time-budget-ms N] [--max-expansions N]\n"
               "           persistent daemon: concurrent gen/sim/lint over\n"
               "           length-prefixed JSON frames, compiled circuits\n"
               "           held hot in an LRU cache, bounded-queue admission\n"
               "           with typed overload shedding (docs/SERVING.md);\n"
               "           budget flags set the per-request default\n"
               "  fstg serve --client <--socket PATH|--tcp PORT>\n"
               "           [--requests FILE] [--connect-timeout-ms N]\n"
               "           [--recv-timeout-ms N]\n"
               "           send JSONL requests (FILE, or - / stdin), print\n"
               "           one response line each; exit 3 if any response\n"
               "           was budget-tripped, 2 if any failed\n"
               "\n"
               "global flags (any command):\n"
               "  --threads N          worker threads for fault simulation\n"
               "                       and suite runs (default: hardware\n"
               "                       concurrency; 0 = serial). Results\n"
               "                       are identical for every value\n"
               "  --lane-bits B        SIMD lane width for fault simulation:\n"
               "                       64|256|512 (0 = auto; wider than the\n"
               "                       CPU supports clamps down). Results\n"
               "                       are identical for every value\n"
               "  --log-level LEVEL    stderr log threshold:\n"
               "                       debug|info|warn|error (default info)\n"
               "  --cache-dir DIR      persistent artifact cache: synthesis,\n"
               "                       generation, fault lists, and\n"
               "                       reachability warm-start from DIR;\n"
               "                       corruption degrades to recompute\n"
               "                       (docs/ROBUSTNESS.md). An unusable DIR\n"
               "                       warns and runs uncached\n"
               "  --metrics-out FILE   write the merged metrics registry as\n"
               "                       schema-validated JSON (fstg.metrics.v1)\n"
               "  --trace-out FILE     capture pipeline spans as Chrome\n"
               "                       trace_event JSON — load in Perfetto\n"
               "                       (see docs/OBSERVABILITY.md)\n"
               "  --telemetry-out FILE publish a live fstg.telemetry.v1\n"
               "                       snapshot (progress, ETA, counters)\n"
               "                       atomically every interval; watch with\n"
               "                       `watch -n1 cat FILE`\n"
               "  --telemetry-interval-ms N\n"
               "                       publish period (default 250)\n"
               "  --telemetry-stall-ms N\n"
               "                       no-progress window before the stall\n"
               "                       watchdog warns (default 5000)\n"
               "  --ledger FILE        append one fstg.run.v1 record per run\n"
               "                       (default: runs.jsonl under --cache-dir\n"
               "                       when one is set); `fstg report` reads\n"
               "                       this history\n"
               "\n"
               "budget flags (gen, sim):\n"
               "  --time-budget-ms N   wall-clock deadline for the expensive\n"
               "                       search kernels; on exhaustion gen\n"
               "                       degrades to scan-out fallback (still\n"
               "                       exit 0), sim stops and exits 3\n"
               "  --max-expansions N   same, as a deterministic step count\n"
               "\n"
               "exit codes: 0 ok, 1 usage, 2 parse/input error,\n"
               "            3 budget exhausted, 4 internal error\n");
  return kExitUsage;
}

/// Command dispatch after global flags are stripped. Factored out of main
/// so the observability outputs (--metrics-out / --trace-out) are written
/// on every exit path, including errors — a failed run's metrics are
/// exactly the ones worth looking at.
int run_command(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "list") return cmd_list();
    if (cmd == "report") return cmd_report(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "info" && argc >= 3) return cmd_info(argv[2]);
    if (cmd == "gen" && argc >= 3) {
      std::string out;
      int uio = 0, xfer = 1;
      BudgetFlags budget;
      for (int i = 3; i < argc; ++i) {
        if (!std::strcmp(argv[i], "-o") && i + 1 < argc) out = argv[++i];
        else if (!std::strcmp(argv[i], "--uio") && i + 1 < argc)
          uio = parse_int_flag("--uio", argv[++i], 0, 64);
        else if (!std::strcmp(argv[i], "--xfer") && i + 1 < argc)
          xfer = parse_int_flag("--xfer", argv[++i], 0, 64);
        else if (budget.consume(argc, argv, i)) continue;
        else return usage();
      }
      return cmd_gen(argv[2], out, uio, xfer, budget.budget);
    }
    if (cmd == "lint" && argc >= 3) {
      std::string faults_path, out;
      bool json = false, no_table = false;
      int uio = 0;
      BudgetFlags budget;
      for (int i = 3; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--faults") && i + 1 < argc)
          faults_path = argv[++i];
        else if (!std::strcmp(argv[i], "--json")) json = true;
        else if (!std::strcmp(argv[i], "--no-table")) no_table = true;
        else if (!std::strcmp(argv[i], "-o") && i + 1 < argc) out = argv[++i];
        else if (!std::strcmp(argv[i], "--uio") && i + 1 < argc)
          uio = parse_int_flag("--uio", argv[++i], 0, 64);
        else if (budget.consume(argc, argv, i)) continue;
        else return usage();
      }
      return cmd_lint(argv[2], faults_path, json, out, uio, no_table,
                      budget.budget);
    }
    if (cmd == "sim" && argc >= 4) {
      BudgetFlags budget;
      bool static_prune = false;
      for (int i = 4; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--static-prune")) static_prune = true;
        else if (budget.consume(argc, argv, i)) continue;
        else return usage();
      }
      return cmd_sim(argv[2], argv[3], static_prune, budget.budget);
    }
    if (cmd == "export" && argc >= 4) {
      std::string out;
      for (int i = 4; i < argc; ++i) {
        if (!std::strcmp(argv[i], "-o") && i + 1 < argc) out = argv[++i];
        else return usage();
      }
      return cmd_export(argv[2], argv[3], out);
    }
    if (cmd == "verilog" && argc >= 3) {
      std::string out, tb;
      for (int i = 3; i < argc; ++i) {
        if (!std::strcmp(argv[i], "-o") && i + 1 < argc) out = argv[++i];
        else if (!std::strcmp(argv[i], "--tb") && i + 1 < argc) tb = argv[++i];
        else return usage();
      }
      return cmd_verilog(argv[2], out, tb);
    }
    if (cmd == "cache" && argc >= 3) {
      bool json = false;
      long long max_bytes = -1;
      for (int i = 3; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--json")) json = true;
        else if (!std::strcmp(argv[i], "--max-bytes") && i + 1 < argc)
          max_bytes = parse_i64_flag("--max-bytes", argv[++i], 0,
                                     std::numeric_limits<long long>::max());
        else return usage();
      }
      return cmd_cache(argv[2], json, max_bytes);
    }
  } catch (const UsageError&) {
    return kExitUsage;
  } catch (const fstg::BudgetError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitBudget;
  } catch (const fstg::ParseError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitParse;
  } catch (const fstg::Error& e) {
    // Library Error outside a parser: unreadable files and mismatched
    // inputs land here — an input problem, not an internal bug.
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitParse;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return kExitInternal;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Eager counter registration: every analysis.* and lint.* counter shows
  // up (at zero) in --metrics-out / telemetry scrapes even for runs that
  // never touch those subsystems, so dashboards see a stable catalog.
  fstg::analysis::register_analysis_counters();
  fstg::lint::register_lint_counters();

  // Global flags are stripped (with their values) before command dispatch
  // so every command accepts them in any position.
  std::string metrics_out, trace_out, telemetry_out;
  int telemetry_interval_ms = 250;
  int telemetry_stall_ms = 5000;
  int threads_flag = -1;
  int lane_bits_flag = 0;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  try {
    for (int i = 0; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
        threads_flag = parse_int_flag("--threads", argv[++i], 0,
                                      fstg::parallel::kMaxThreads);
        fstg::parallel::set_default_threads(threads_flag);
      } else if (!std::strcmp(argv[i], "--lane-bits") && i + 1 < argc) {
        const int bits = parse_int_flag("--lane-bits", argv[++i], 0, 512);
        if (bits != 0 && bits != 64 && bits != 256 && bits != 512) {
          std::fprintf(stderr,
                       "error: --lane-bits must be 0 (auto), 64, 256 or "
                       "512\n");
          return kExitUsage;
        }
        lane_bits_flag = bits;
        fstg::set_default_lane_bits(bits);
      } else if (!std::strcmp(argv[i], "--log-level") && i + 1 < argc) {
        fstg::set_log_level(parse_log_level(argv[++i]));
      } else if (!std::strcmp(argv[i], "--metrics-out") && i + 1 < argc) {
        metrics_out = argv[++i];
      } else if (!std::strcmp(argv[i], "--trace-out") && i + 1 < argc) {
        trace_out = argv[++i];
      } else if (!std::strcmp(argv[i], "--telemetry-out") && i + 1 < argc) {
        telemetry_out = argv[++i];
      } else if (!std::strcmp(argv[i], "--telemetry-interval-ms") &&
                 i + 1 < argc) {
        telemetry_interval_ms =
            parse_int_flag("--telemetry-interval-ms", argv[++i], 1, 3'600'000);
      } else if (!std::strcmp(argv[i], "--telemetry-stall-ms") &&
                 i + 1 < argc) {
        telemetry_stall_ms =
            parse_int_flag("--telemetry-stall-ms", argv[++i], 1, 86'400'000);
      } else if (!std::strcmp(argv[i], "--ledger") && i + 1 < argc) {
        g_ledger_flag = argv[++i];
      } else if (!std::strcmp(argv[i], "--cache-dir") && i + 1 < argc) {
        // Graceful degrade: an unusable cache directory costs the warm
        // start, never the run.
        std::string error;
        if (!fstg::store::open_global_store(argv[++i], &error))
          std::fprintf(stderr,
                       "warning: --cache-dir: %s; continuing without cache\n",
                       error.c_str());
      } else {
        args.push_back(argv[i]);
      }
    }
  } catch (const UsageError&) {
    return kExitUsage;
  }

  if (!trace_out.empty()) fstg::obs::start_tracing();
  if (!telemetry_out.empty()) {
    fstg::obs::TelemetryOptions topt;
    topt.path = telemetry_out;
    topt.interval_ms = telemetry_interval_ms;
    topt.stall_window_ms = telemetry_stall_ms;
    std::string telemetry_error;
    // A bad destination fails up front (the exporter writes its first
    // snapshot in start), like an unwritable --metrics-out would at exit.
    if (!fstg::obs::start_global_telemetry(topt, &telemetry_error)) {
      std::fprintf(stderr, "error: --telemetry-out: %s\n",
                   telemetry_error.c_str());
      return kExitParse;
    }
  }

  const fstg::Timer wall;
  int rc = run_command(static_cast<int>(args.size()), args.data());

  // Stop before the ledger append so the final telemetry snapshot and the
  // telemetry.* counters both reflect the finished run.
  fstg::obs::stop_global_telemetry();

  // One fstg.run.v1 ledger record per pipeline run (not for list/cache/
  // report/usage invocations): what ran, how long each stage took, the key
  // counters, and how it exited. `fstg report` aggregates this history.
  const std::string ledger_path =
      fstg::store::resolve_ledger_path(g_ledger_flag);
  if (!ledger_path.empty() && args.size() >= 2) {
    const std::string cmd = args[1];
    const bool ledgered = cmd == "info" || cmd == "gen" || cmd == "sim" ||
                          cmd == "lint" || cmd == "verilog" || cmd == "export";
    if (ledgered) {
      fstg::store::RunRecord record;
      record.tool = "fstg";
      record.command = cmd;
      if (args.size() >= 3 && args[2][0] != '-') record.circuit = args[2];
      // Config hash: the post-strip command line (obs destinations vary per
      // invocation and don't change the work) plus the perf-shaping globals.
      fstg::store::KeyBuilder kb;
      for (std::size_t i = 1; i < args.size(); ++i) kb.add(args[i]);
      kb.add_i64(threads_flag);
      kb.add_i64(lane_bits_flag);
      record.config_hash = fstg::store::hash_hex(kb.digest());
      record.exit_code = rc;
      record.wall_ms = wall.seconds() * 1000.0;
      for (const fstg::obs::StageTiming& t : fstg::obs::stage_timings())
        record.stages.push_back({t.stage, t.ms});
      const fstg::obs::MetricsSnapshot snap = fstg::obs::snapshot_metrics();
      for (const auto& [name, value] : snap.counters) {
        if (name.rfind("budget.trips.", 0) == 0) record.budget_trips += value;
        for (const char* prefix : {"fault_sim.", "scan.", "cache.", "suite.",
                                   "budget.", "telemetry.", "analysis.",
                                   "lint."}) {
          if (name.rfind(prefix, 0) == 0) {
            record.counters.emplace_back(name, value);
            break;
          }
        }
      }
      std::string ledger_error;
      if (!fstg::store::Ledger(ledger_path).append(std::move(record),
                                                   &ledger_error)) {
        std::fprintf(stderr, "error: --ledger: %s\n", ledger_error.c_str());
        if (rc == kExitOk) rc = kExitParse;
      }
    }
  }

  // Observability outputs are written whatever the command's outcome. Each
  // writer re-reads and schema-validates its own file; a validation failure
  // on an otherwise successful run is an input/output error (exit 2).
  std::string error;
  if (!metrics_out.empty() &&
      !fstg::obs::write_metrics_json(metrics_out, &error)) {
    std::fprintf(stderr, "error: --metrics-out: %s\n", error.c_str());
    if (rc == kExitOk) rc = kExitParse;
  }
  if (!trace_out.empty() &&
      !fstg::obs::write_trace_json(trace_out, &error)) {
    std::fprintf(stderr, "error: --trace-out: %s\n", error.c_str());
    if (rc == kExitOk) rc = kExitParse;
  }
  return rc;
}
