// fstg_bench — reproducible timing harness for the fault-simulation engine.
//
// For each benchmark circuit it times, on the same stuck-at + bridging
// fault list and functional test set:
//
//   good        fault-free reference simulation (all 64-lane batches)
//   serial_seed the seed configuration: full-cone faulty evaluation,
//               single-threaded (FaultyEval::kFullCone, threads = 0)
//   serial_evt  event-driven faulty evaluation, single-threaded
//   parallel    event-driven, N worker threads (default 8)
//   end_to_end  run_gate_level (compaction + redundancy) at N threads
//
// and emits BENCH_faultsim.json: one record per circuit with fault/cycle
// counts, wall-clock milliseconds, and the headline speedup
// (serial_seed / parallel). The file is re-read and schema-validated
// before the process exits 0, so CI can gate on the exit code alone.
//
//   fstg_bench [--smoke] [--circuit NAME] [--threads N] [--lane-bits B]
//              [--repeat R] [-o out.json]
//
// --smoke runs one small circuit with one repetition (the ctest `perf`
// label); the default runs the full circuit list with best-of-R timing.
// --threads defaults to the machine's usable CPU count (affinity-aware) —
// oversubscribing a pinned process is exactly the anti-pattern the old
// fixed default of 8 baked in. --lane-bits pins the SIMD lane width
// (64/256/512) for the event/parallel configurations; the default is the
// widest width this build supports on this CPU. The emitted JSON records
// lane_bits, cpu_features and git_rev so perf numbers stay comparable
// across machines and PRs.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/cycles.h"
#include "base/obs/metrics.h"
#include "base/obs/schema.h"
#include "base/obs/telemetry.h"
#include "base/obs/trace.h"
#include "base/store/fs_util.h"
#include "base/store/hash.h"
#include "base/store/ledger.h"
#include "base/timer.h"
#include "base/parallel/thread_pool.h"
#include "fault/bridging.h"
#include "fault/fault.h"
#include "fault/sim_width.h"
#include "harness/experiment.h"

// Short git revision baked in by bench/CMakeLists.txt at configure time.
#ifndef FSTG_GIT_REV
#define FSTG_GIT_REV "unknown"
#endif

namespace {

using namespace fstg;

struct BenchRecord {
  std::string circuit;
  std::size_t faults = 0;
  std::size_t tests = 0;
  std::size_t cycles = 0;
  double good_ms = 0.0;
  double serial_seed_ms = 0.0;
  double serial_event_ms = 0.0;
  double parallel_ms = 0.0;
  double end_to_end_ms = 0.0;
  double speedup = 0.0;
};

/// Best-of-R wall time of one configuration, in milliseconds.
template <typename Fn>
double time_best_ms(int repeat, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    Timer timer;
    fn();
    const double ms = timer.seconds() * 1000.0;
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

BenchRecord bench_circuit(const std::string& name, int threads, int repeat) {
  const CircuitExperiment exp = run_circuit(name);
  const ScanCircuit& circuit = exp.synth.circuit;
  std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
  const std::vector<FaultSpec> bridges =
      sample_bridging(enumerate_bridging(circuit.comb), /*cap=*/4096);
  faults.insert(faults.end(), bridges.begin(), bridges.end());

  BenchRecord rec;
  rec.circuit = name;
  rec.faults = faults.size();
  rec.tests = exp.gen.tests.size();
  rec.cycles = test_application_cycles(circuit.num_sv, exp.gen.tests);

  const std::vector<ScanPattern> patterns = to_scan_patterns(exp.gen.tests);
  rec.good_ms = time_best_ms(repeat, [&] {
    ScanBatchSim sim(circuit);
    for (std::size_t base = 0; base < patterns.size(); base += kWordBits) {
      const std::size_t count =
          std::min<std::size_t>(kWordBits, patterns.size() - base);
      (void)sim.run_good(std::span(patterns.data() + base, count));
    }
  });

  FaultSimOptions serial_seed;  // the pre-optimization configuration
  serial_seed.threads = 0;
  serial_seed.event_driven = false;
  serial_seed.lane_bits = 64;  // pinned: the historic baseline was 64-lane
  rec.serial_seed_ms = time_best_ms(repeat, [&] {
    (void)simulate_faults(circuit, exp.gen.tests, faults, serial_seed);
  });

  FaultSimOptions serial_event;
  serial_event.threads = 0;
  rec.serial_event_ms = time_best_ms(repeat, [&] {
    (void)simulate_faults(circuit, exp.gen.tests, faults, serial_event);
  });

  FaultSimOptions parallel;
  parallel.threads = threads;
  rec.parallel_ms = time_best_ms(repeat, [&] {
    (void)simulate_faults(circuit, exp.gen.tests, faults, parallel);
  });

  // End-to-end = enumeration + compaction on both fault models. Redundancy
  // classification is exhaustive in 2^(pi+sv) and would dwarf the quantity
  // under test, so the timed pipeline skips it.
  GateLevelOptions gate;
  gate.threads = threads;
  gate.classify_redundancy = false;
  rec.end_to_end_ms =
      time_best_ms(repeat, [&] { (void)run_gate_level(exp, gate); });

  rec.speedup = rec.parallel_ms > 0.0 ? rec.serial_seed_ms / rec.parallel_ms
                                      : 0.0;
  return rec;
}

std::string to_json(const std::vector<BenchRecord>& records, int threads) {
  using obs::json_quote;
  std::ostringstream os;
  os.precision(3);
  os << std::fixed;
  os << "{\n  \"bench\": \"faultsim\",\n  \"threads\": " << threads
     << ",\n  \"lane_bits\": " << default_lane_bits()
     << ",\n  \"cpu_features\": " << json_quote(cpu_features())
     << ",\n  \"git_rev\": " << json_quote(FSTG_GIT_REV)
     << ",\n  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    os << "    {\"circuit\": " << json_quote(r.circuit)
       << ", \"faults\": " << r.faults << ", \"tests\": " << r.tests
       << ", \"cycles\": " << r.cycles << ", \"good_ms\": " << r.good_ms
       << ", \"serial_seed_ms\": " << r.serial_seed_ms
       << ", \"serial_event_ms\": " << r.serial_event_ms
       << ", \"parallel_ms\": " << r.parallel_ms
       << ", \"end_to_end_ms\": " << r.end_to_end_ms
       << ", \"speedup\": " << r.speedup << "}"
       << (i + 1 < records.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

/// --check-overhead: the instrumentation must stay in the noise. Times the
/// serial event-driven configuration on a small circuit with metrics
/// enabled vs. disabled (same binary, obs::set_metrics_enabled) and fails
/// if the enabled median exceeds the disabled median by more than 3% plus
/// a 1 ms absolute slack (the slack keeps sub-millisecond smoke timings
/// from tripping on jitter).
///
/// The two configurations are measured as *interleaved* off/on pairs and
/// compared by median (at least 5 rounds), not as two sequential
/// best-of-N blocks: a frequency-scaling ramp, a thermal step, or another
/// process landing during the second block used to skew whichever
/// configuration ran later and made the check flaky in both directions.
/// Interleaving exposes both configurations to the same drift and the
/// median discards the outlier rounds entirely.
///
/// The "on" configuration also runs the live telemetry exporter (short
/// interval, scratch destination), so the gate covers the whole continuous
/// observability stack — registry increments, periodic snapshot merges,
/// and the exporter thread's atomic publishes — not just the counters.
int check_overhead(int repeat) {
  const CircuitExperiment exp = run_circuit("dk17");
  const ScanCircuit& circuit = exp.synth.circuit;
  std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
  const std::vector<FaultSpec> bridges =
      sample_bridging(enumerate_bridging(circuit.comb), /*cap=*/4096);
  faults.insert(faults.end(), bridges.begin(), bridges.end());

  FaultSimOptions serial_event;
  serial_event.threads = 0;
  const auto run_once = [&] {
    (void)simulate_faults(circuit, exp.gen.tests, faults, serial_event);
  };
  const auto timed = [&] {
    Timer timer;
    run_once();
    return timer.seconds() * 1000.0;
  };

  const int rounds = std::max(repeat, 5);
  std::vector<double> off_samples, on_samples;
  off_samples.reserve(static_cast<std::size_t>(rounds));
  on_samples.reserve(static_cast<std::size_t>(rounds));
  const std::string telemetry_path = "fstg_overhead_telemetry.json";
  obs::TelemetryOptions topt;
  topt.path = telemetry_path;
  topt.interval_ms = 25;  // several publishes per sample

  run_once();  // warm-up outside the measurement (caches, allocator)
  for (int r = 0; r < rounds; ++r) {
    obs::set_metrics_enabled(false);
    off_samples.push_back(timed());
    obs::set_metrics_enabled(true);
    obs::TelemetryExporter exporter(topt);
    std::string telemetry_error;
    if (!exporter.start(&telemetry_error)) {
      std::fprintf(stderr, "error: telemetry exporter: %s\n",
                   telemetry_error.c_str());
      return 1;
    }
    on_samples.push_back(timed());
    exporter.stop();
  }
  store::remove_file(telemetry_path);

  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  };
  const double off_ms = median(std::move(off_samples));
  const double on_ms = median(std::move(on_samples));

  const double limit_ms = off_ms * 1.03 + 1.0;
  const double ratio = off_ms > 0.0 ? on_ms / off_ms : 1.0;
  std::fprintf(stderr,
               "bench: overhead check: metrics off %.3fms, on %.3fms "
               "(median of %d interleaved rounds, ratio %.4f, "
               "limit %.3fms) — %s\n",
               off_ms, on_ms, rounds, ratio, limit_ms,
               on_ms <= limit_ms ? "ok" : "FAIL");
  return on_ms <= limit_ms ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: fstg_bench [--smoke] [--circuit NAME] [--threads N] "
               "[--lane-bits B]\n"
               "                  [--repeat R] [-o out.json]\n"
               "                  [--metrics-out m.json] [--trace-out t.json]\n"
               "                  [--ledger runs.jsonl] [--check-overhead]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool overhead = false;
  int threads = -1;  // -1 = affinity-aware hardware count
  int lane_bits = 0;
  int repeat = 3;
  std::string out = "BENCH_faultsim.json";
  std::string circuit_override;
  std::string metrics_out, trace_out, ledger_out;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--smoke")) smoke = true;
    else if (!std::strcmp(argv[i], "--check-overhead")) overhead = true;
    else if (!std::strcmp(argv[i], "--circuit") && i + 1 < argc)
      circuit_override = argv[++i];
    else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc)
      threads = std::atoi(argv[++i]);
    else if (!std::strcmp(argv[i], "--lane-bits") && i + 1 < argc)
      lane_bits = std::atoi(argv[++i]);
    else if (!std::strcmp(argv[i], "--repeat") && i + 1 < argc)
      repeat = std::max(1, std::atoi(argv[++i]));
    else if (!std::strcmp(argv[i], "-o") && i + 1 < argc)
      out = argv[++i];
    else if (!std::strcmp(argv[i], "--metrics-out") && i + 1 < argc)
      metrics_out = argv[++i];
    else if (!std::strcmp(argv[i], "--trace-out") && i + 1 < argc)
      trace_out = argv[++i];
    else if (!std::strcmp(argv[i], "--ledger") && i + 1 < argc)
      ledger_out = argv[++i];
    else
      return usage();
  }
  if (threads > 256) return usage();
  if (threads < 0) threads = parallel::hardware_threads();
  if (lane_bits != 0 &&
      (lane_bits != 64 && lane_bits != 256 && lane_bits != 512))
    return usage();
  if (lane_bits != 0) set_default_lane_bits(lane_bits);

  if (overhead) {
    try {
      return check_overhead(std::max(repeat, 3));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  if (!trace_out.empty()) obs::start_tracing();

  // Largest circuit last: rie (9 inputs, 5 state variables, 29 states) has
  // the biggest test volume of the default Table 6 suite (weight <= 1), so
  // its record carries the headline speedup.
  std::vector<std::string> circuits =
      smoke ? std::vector<std::string>{"dk17"}
            : std::vector<std::string>{"bbara", "keyb", "rie"};
  if (!circuit_override.empty()) circuits = {circuit_override};
  if (smoke) repeat = 1;

  try {
    std::vector<BenchRecord> records;
    for (const std::string& name : circuits) {
      std::fprintf(stderr, "bench: %s ...\n", name.c_str());
      records.push_back(bench_circuit(name, threads, repeat));
      const BenchRecord& r = records.back();
      std::fprintf(stderr,
                   "bench: %-8s %6zu faults %5zu cycles | good %.1fms | "
                   "seed %.1fms | event %.1fms | %dthr %.1fms | speedup "
                   "%.2fx\n",
                   r.circuit.c_str(), r.faults, r.cycles, r.good_ms,
                   r.serial_seed_ms, r.serial_event_ms, threads, r.parallel_ms,
                   r.speedup);
    }

    const std::string json = to_json(records, threads);
    {
      std::ofstream f(out);
      if (!f.good()) {
        std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
        return 1;
      }
      f << json;
    }

    // Re-read and schema-validate what we just wrote.
    std::ifstream f(out);
    std::stringstream buf;
    buf << f.rdbuf();
    std::string error;
    if (!obs::check_json("fstg_bench", buf.str(), nullptr, &error)) {
      std::fprintf(stderr, "error: %s failed schema validation: %s\n",
                   out.c_str(), error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (%zu records, schema ok)\n", out.c_str(),
                 records.size());

    // --ledger: one fstg.run.v1 record per circuit, with the bench's timed
    // configurations as its stages. `fstg report --check-regression` turns
    // this history into a machine-checked bench trajectory.
    if (!ledger_out.empty()) {
      store::Ledger ledger(ledger_out);
      for (const BenchRecord& r : records) {
        store::RunRecord run;
        run.tool = "fstg_bench";
        run.command = "bench";
        run.circuit = r.circuit;
        store::KeyBuilder kb;
        kb.add(r.circuit);
        kb.add_i64(threads);
        kb.add_i64(default_lane_bits());
        kb.add_i64(repeat);
        run.config_hash = store::hash_hex(kb.digest());
        run.exit_code = 0;
        run.wall_ms = r.good_ms + r.serial_seed_ms + r.serial_event_ms +
                      r.parallel_ms + r.end_to_end_ms;
        run.stages = {{"good", r.good_ms},
                      {"serial_seed", r.serial_seed_ms},
                      {"serial_event", r.serial_event_ms},
                      {"parallel", r.parallel_ms},
                      {"end_to_end", r.end_to_end_ms}};
        run.counters = {{"bench.faults", r.faults},
                        {"bench.tests", r.tests},
                        {"bench.cycles", r.cycles}};
        std::string ledger_error;
        if (!ledger.append(std::move(run), &ledger_error)) {
          std::fprintf(stderr, "error: --ledger: %s\n", ledger_error.c_str());
          return 1;
        }
      }
      std::fprintf(stderr, "ledgered %zu run record(s) in %s\n",
                   records.size(), ledger_out.c_str());
    }

    // Observability side channels: both writers self-validate their output
    // against the fstg.metrics.v1 / fstg.trace.v1 schemas.
    if (!metrics_out.empty() &&
        !obs::write_metrics_json(metrics_out, &error)) {
      std::fprintf(stderr, "error: --metrics-out: %s\n", error.c_str());
      return 1;
    }
    if (!trace_out.empty() && !obs::write_trace_json(trace_out, &error)) {
      std::fprintf(stderr, "error: --trace-out: %s\n", error.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
