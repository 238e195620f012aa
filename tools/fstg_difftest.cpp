// fstg_difftest — differential-testing oracle: the fault-simulation engine
// at 1 thread against an independent scalar reference simulator, and at 2
// and 8 threads against its own 1-thread run.
//
//   fstg_difftest run [--seed S] [--iters N] [--shrink] [--corpus-dir DIR]
//       generate N seeded random workloads (random synthesized FSMs,
//       mixed stuck-at/bridging fault lists, X-bearing and degenerate test
//       sets) and run the oracle on each. A divergence prints the full
//       report; with --shrink it is also delta-debugged to a minimal repro
//       and written to DIR as a self-contained .case file.
//
//   fstg_difftest replay <file.case ...>
//   fstg_difftest replay --corpus-dir DIR
//       re-run saved corpus cases (DIR: every *.case in it, sorted). Each
//       case replays the exact netlist, fault list, and tests that exposed
//       a fixed engine bug; any divergence is a regression.
//
// Accepts the same global flags as fstg: --threads N, --log-level L,
// --metrics-out FILE, --trace-out FILE, --cache-dir DIR, and the budget
// flags --time-budget-ms / --max-expansions (charged once per workload).
//
// Exit codes (stable, scriptable, same contract as fstg):
//   0  success — no divergence
//   1  usage error
//   2  input error (unreadable or malformed case file)
//   3  budget exhausted before the run completed
//   4  divergence found (an engine disagreement IS an internal error)

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "base/error.h"
#include "base/log.h"
#include "base/obs/metrics.h"
#include "base/obs/trace.h"
#include "base/parallel/thread_pool.h"
#include "base/robust/budget.h"
#include "base/store/store.h"
#include "difftest/case_io.h"
#include "difftest/oracle.h"
#include "difftest/shrink.h"
#include "difftest/workload.h"

namespace {

using namespace fstg;
using namespace fstg::difftest;

enum ExitCode : int {
  kExitOk = 0,
  kExitUsage = 1,
  kExitParse = 2,
  kExitBudget = 3,
  kExitDivergence = 4,
};

struct UsageError {};

long long parse_int_flag(const char* flag, const char* text, long long lo,
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

int usage() {
  std::fprintf(
      stderr,
      "usage: fstg_difftest <run|replay> [options]\n"
      "  run     [--seed S] [--iters N] [--shrink] [--corpus-dir DIR]\n"
      "          [--static-redundancy]\n"
      "          cross-check the fault-sim engine against the scalar\n"
      "          reference on N seeded random workloads (seeds\n"
      "          S..S+N-1); --shrink writes minimal\n"
      "          repros of any divergence into DIR; --static-redundancy\n"
      "          forces the static-vs-exhaustive redundancy check on\n"
      "          every workload\n"
      "  replay  <file.case ...> | --corpus-dir DIR\n"
      "          re-run saved divergence cases (regression gate)\n"
      "global flags: --threads N, --log-level L, --metrics-out FILE,\n"
      "              --trace-out FILE, --cache-dir DIR, --time-budget-ms MS,\n"
      "              --max-expansions N\n"
      "exit codes: 0 ok, 1 usage, 2 input error, 3 budget exhausted,\n"
      "            4 divergence found\n");
  return kExitUsage;
}

int cmd_run(std::uint64_t seed, std::uint64_t iters, bool shrink,
            const std::string& corpus_dir, bool force_static,
            const robust::Budget& budget) {
  robust::RunGuard guard(budget, "difftest.run");
  std::uint64_t diverged = 0;
  std::uint64_t checked = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    if (!guard.tick()) {
      std::fprintf(stderr,
                   "difftest: budget exhausted after %llu/%llu workloads "
                   "(%s); partial result, %llu divergence(s) so far\n",
                   static_cast<unsigned long long>(checked),
                   static_cast<unsigned long long>(iters),
                   guard.status().to_string().c_str(),
                   static_cast<unsigned long long>(diverged));
      return kExitBudget;
    }
    const std::uint64_t s = seed + i;
    Workload w = generate_workload(s);
    if (force_static) w.check = CheckKind::kStaticRedundancy;
    const OracleReport report = run_oracle(w);
    ++checked;
    if (report.ok()) continue;

    ++diverged;
    std::printf("DIVERGENCE seed %llu (%s)\n%s",
                static_cast<unsigned long long>(s), w.name.c_str(),
                report.to_string().c_str());
    if (shrink) {
      ShrinkStats stats;
      Workload small = shrink_workload(
          w, [](const Workload& c) { return !run_oracle(c).ok(); }, &stats);
      small.name = "div_seed" + std::to_string(s);
      std::filesystem::create_directories(corpus_dir);
      const std::string path = corpus_dir + "/" + small.name + ".case";
      save_case(small, path);
      std::printf(
          "  shrunk to %d gates, %zu fault(s), %zu test(s) "
          "(%zu predicate calls) -> %s\n",
          small.circuit.comb.num_gates(), small.faults.size(),
          small.tests.tests.size(), stats.predicate_calls, path.c_str());
    }
  }
  std::printf("difftest run: %llu workload(s) from seed %llu: %llu "
              "divergence(s)\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(diverged));
  return diverged == 0 ? kExitOk : kExitDivergence;
}

int cmd_replay(const std::vector<std::string>& paths) {
  if (paths.empty()) {
    std::fprintf(stderr, "error: replay: no case files\n");
    return kExitUsage;
  }
  std::uint64_t failed = 0;
  for (const std::string& path : paths) {
    const Workload w = load_case(path);
    const OracleReport report = run_oracle(w);
    if (report.ok()) {
      std::printf("replay %-40s ok\n", (w.name + ":").c_str());
    } else {
      ++failed;
      std::printf("replay %-40s FAILED\n%s", (w.name + ":").c_str(),
                  report.to_string().c_str());
    }
  }
  std::printf("difftest replay: %zu case(s), %llu failure(s)\n", paths.size(),
              static_cast<unsigned long long>(failed));
  return failed == 0 ? kExitOk : kExitDivergence;
}

/// `--time-budget-ms` / `--max-expansions`, same shape as fstg's.
struct BudgetFlags {
  robust::Budget budget;

  bool consume(int argc, char** argv, int& i) {
    if (!std::strcmp(argv[i], "--time-budget-ms") && i + 1 < argc) {
      budget.time_budget_ms = static_cast<double>(
          parse_int_flag("--time-budget-ms", argv[++i], 1, 86'400'000));
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

std::vector<std::string> corpus_cases(const std::string& dir) {
  std::vector<std::string> paths;
  require(std::filesystem::is_directory(dir),
          "not a corpus directory: " + dir);
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file() && entry.path().extension() == ".case")
      paths.push_back(entry.path().string());
  std::sort(paths.begin(), paths.end());
  return paths;
}

int run_command(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "run") {
      std::uint64_t seed = 1, iters = 100;
      bool shrink = false;
      bool force_static = false;
      std::string corpus_dir = "difftest_corpus";
      BudgetFlags budget;
      for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--seed") && i + 1 < argc)
          seed = static_cast<std::uint64_t>(
              parse_int_flag("--seed", argv[++i], 0, 1'000'000'000'000));
        else if (!std::strcmp(argv[i], "--iters") && i + 1 < argc)
          iters = static_cast<std::uint64_t>(
              parse_int_flag("--iters", argv[++i], 1, 100'000'000));
        else if (!std::strcmp(argv[i], "--shrink"))
          shrink = true;
        else if (!std::strcmp(argv[i], "--static-redundancy"))
          force_static = true;
        else if (!std::strcmp(argv[i], "--corpus-dir") && i + 1 < argc)
          corpus_dir = argv[++i];
        else if (budget.consume(argc, argv, i))
          continue;
        else
          return usage();
      }
      return cmd_run(seed, iters, shrink, corpus_dir, force_static,
                     budget.budget);
    }
    if (cmd == "replay") {
      std::vector<std::string> paths;
      for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--corpus-dir") && i + 1 < argc) {
          for (std::string& p : corpus_cases(argv[++i]))
            paths.push_back(std::move(p));
        } else if (argv[i][0] == '-') {
          return usage();
        } else {
          paths.push_back(argv[i]);
        }
      }
      return cmd_replay(paths);
    }
  } catch (const UsageError&) {
    return kExitUsage;
  } catch (const fstg::ParseError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitParse;
  } catch (const fstg::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitParse;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return kExitDivergence;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Global flags are stripped (with their values) before command dispatch,
  // matching fstg: every command accepts them in any position.
  std::string metrics_out, trace_out;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  try {
    for (int i = 0; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
        fstg::parallel::set_default_threads(static_cast<int>(parse_int_flag(
            "--threads", argv[++i], 0, fstg::parallel::kMaxThreads)));
      } else if (!std::strcmp(argv[i], "--log-level") && i + 1 < argc) {
        fstg::set_log_level(parse_log_level(argv[++i]));
      } else if (!std::strcmp(argv[i], "--metrics-out") && i + 1 < argc) {
        metrics_out = argv[++i];
      } else if (!std::strcmp(argv[i], "--trace-out") && i + 1 < argc) {
        trace_out = argv[++i];
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

  int rc = run_command(static_cast<int>(args.size()), args.data());

  std::string error;
  if (!metrics_out.empty() &&
      !fstg::obs::write_metrics_json(metrics_out, &error)) {
    std::fprintf(stderr, "error: --metrics-out: %s\n", error.c_str());
    if (rc == kExitOk) rc = kExitParse;
  }
  if (!trace_out.empty() && !fstg::obs::write_trace_json(trace_out, &error)) {
    std::fprintf(stderr, "error: --trace-out: %s\n", error.c_str());
    if (rc == kExitOk) rc = kExitParse;
  }
  return rc;
}
