// fstg_pipeline_probe — the C++ half of the pipeline benchmark (run.py runs
// the workloads; see README.md in this directory).
//
//   fstg_pipeline_probe env
//       threads, lane width and CPU features the program runs with, and the
//       suite workloads' circuits
//   fstg_pipeline_probe digest FILE...
//       XXH64 of each file, one hex digest per line
//   fstg_pipeline_probe exec RUSAGE_JSON PROGRAM ARGS...
//       run PROGRAM, then write its exit code, wall, CPU and peak RSS
//   fstg_pipeline_probe suite [--circuits a,b,...]
//                             [--trace-out FILE] [--metrics-out FILE]
//       the Table 6 loop (run_circuit + run_gate_level with redundancy
//       classification + compute_table6_row) over the suite circuits or the
//       named ones; prints one JSON line with the claim counts and the table
//       digest. --trace-out / --metrics-out write the program's own span
//       trace and counters, as the fstg flags of the same names do.
//   fstg_pipeline_probe ref N
//       time the reference kernel N times; one "seconds checksum" line each

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/cycles.h"
#include "base/error.h"
#include "base/obs/metrics.h"
#include "base/obs/trace.h"
#include "base/parallel/thread_pool.h"
#include "base/store/fs_util.h"
#include "base/store/hash.h"
#include "fault/sim_width.h"
#include "harness/tables.h"

namespace {

using namespace fstg;

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

std::string digest(const std::string& text) {
  return store::hash_hex(store::xxh64(text));
}

/// The suite workloads' circuits: the Table 6 suite (weight <= 1) minus the
/// four with pi + sv = 14, whose 2^14-minterm read-back and fault simulation
/// take most of a full Table 6 run. sim_rie times one of those on its own.
std::vector<std::string> suite_circuits() {
  std::vector<std::string> names;
  for (const std::string& name : benchmark_names(1)) {
    const BenchmarkSpec& spec = benchmark_spec(name);
    if (spec.pi + spec.sv <= 13) names.push_back(name);
  }
  return names;
}

struct SuiteArgs {
  std::vector<std::string> circuits;
  std::string trace_out;
  std::string metrics_out;
};

/// The loop bench/table6_gate_level_faults.cpp runs. Each harness call sits
/// in a benchmark span, so work the program has no span for (benchmark
/// loading, fault lists, reachability) is charged to the harness call that
/// does it.
int cmd_suite(const SuiteArgs& a) {
  ExperimentOptions options;
  GateLevelOptions gate_options;
  gate_options.classify_redundancy = true;

  if (!a.trace_out.empty()) obs::start_tracing();
  std::vector<Table6Row> rows;
  std::size_t complete = 0, cycles = 0;
  for (const std::string& name : a.circuits) {
    CircuitExperiment exp;
    {
      obs::Span span("harness.run_circuit", name);
      exp = run_circuit(name, options);
    }
    GateLevelResult gate;
    {
      obs::Span span("harness.run_gate_level", name);
      gate = run_gate_level(exp, gate_options);
    }
    rows.push_back(compute_table6_row(exp, gate));
    complete += rows.back().sa_complete && rows.back().br_complete ? 1 : 0;
    cycles += test_application_cycles(exp.synth.circuit.num_sv, exp.gen.tests);
  }
  std::ostringstream table;
  print_table6(rows, table);
  std::printf(
      "{\"circuits\": %zu, \"complete\": %zu, \"test_cycles\": %zu, "
      "\"digest\": \"%s\"}\n",
      a.circuits.size(), complete, cycles, digest(table.str()).c_str());

  std::string error;
  if (!a.trace_out.empty() && !obs::write_trace_json(a.trace_out, &error))
    throw Error("--trace-out: " + error);
  if (!a.metrics_out.empty() &&
      !obs::write_metrics_json(a.metrics_out, &error))
    throw Error("--metrics-out: " + error);
  return complete == a.circuits.size() ? 0 : 1;
}

/// Linux counts a child's peak RSS from the address space it was forked
/// from, so an op started straight from run.py would read at least the
/// Python process's own RSS. Started from this small process instead, the
/// floor is this process's few MB.
int cmd_exec(const std::string& rusage_out, char** argv) {
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  require(pid >= 0, "fork failed");
  if (pid == 0) {
    ::execvp(argv[0], argv);
    ::_exit(127);
  }
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid, &status, 0, &usage) < 0)
    require(errno == EINTR, "wait4 failed");
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const int rc = WIFEXITED(status) ? WEXITSTATUS(status)
                                   : 128 + WTERMSIG(status);
  const double cpu = static_cast<double>(usage.ru_utime.tv_sec +
                                         usage.ru_stime.tv_sec) +
                     static_cast<double>(usage.ru_utime.tv_usec +
                                         usage.ru_stime.tv_usec) / 1e6;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"rc\": %d, \"wall_s\": %.6f, \"cpu_s\": %.6f, "
                "\"rss_mb\": %.3f}\n",
                rc, wall, cpu, static_cast<double>(usage.ru_maxrss) / 1024.0);
  std::string error;
  if (!store::atomic_write_file(rusage_out, buf, &error))
    throw Error("cannot write " + rusage_out + ": " + error);
  return 0;
}

/// The host-speed reference: event-driven, 64-lane fault simulation of a
/// fixed pseudo-random netlist, the same kind of work as the program's fault
/// simulator but built from this file alone, so no change to the program
/// moves it. On a busy shared host the program's op times followed this
/// kernel's at log-log slopes of 0.7-1.3 (30-60 s windows over 20 minutes),
/// a tight ALU loop's at 1.5-1.6 and a Python loop's at 0.6-1.0; the same
/// kernel with a 10x larger netlist tracked the suite op worse (1.5-1.7).
class RefKernel {
 public:
  RefKernel() : gates_(kGates), fanout_(kGates) {
    std::uint64_t x = 42;
    for (std::uint32_t i = kInputs; i < kGates; ++i) {
      // Fan-ins from the 2,000 nets before the gate, like a levelized netlist.
      const std::uint32_t lo = i > 2000 ? i - 2000 : 0;
      gates_[i] = {lo + static_cast<std::uint32_t>(next(x) % (i - lo)),
                   lo + static_cast<std::uint32_t>(next(x) % (i - lo)),
                   static_cast<std::uint8_t>(next(x) % 4)};
      fanout_[gates_[i].a].push_back(i);
      fanout_[gates_[i].b].push_back(i);
    }
  }

  /// Good-machine simulation of 64 patterns, then 100 single-net flips
  /// propagated event by event; returns the number of differing lane bits.
  std::uint64_t run() const {
    std::vector<std::uint64_t> value(kGates);
    std::uint64_t x = 7;
    for (std::uint32_t i = 0; i < kInputs; ++i) value[i] = next(x);
    for (std::uint32_t i = kInputs; i < kGates; ++i) value[i] = eval(value, i);
    const std::vector<std::uint64_t> good = value;
    std::vector<std::uint8_t> queued(kGates);
    std::vector<std::uint32_t> queue, touched;
    std::uint64_t diff = 0;
    for (int f = 0; f < 100; ++f) {
      const std::uint32_t site =
          kInputs + static_cast<std::uint32_t>(next(x) % (kGates - kInputs));
      value[site] = ~good[site];
      queue.assign(fanout_[site].begin(), fanout_[site].end());
      touched.assign(1, site);
      for (std::size_t k = 0; k < queue.size(); ++k) {
        const std::uint32_t i = queue[k];
        const std::uint64_t v = eval(value, i);
        if (v == value[i]) continue;
        value[i] = v;
        touched.push_back(i);
        for (std::uint32_t o : fanout_[i]) {
          if (queued[o]) continue;
          queued[o] = 1;
          queue.push_back(o);
        }
      }
      for (std::uint32_t i : queue) queued[i] = 0;
      for (std::uint32_t i : touched) {
        diff += static_cast<std::uint64_t>(
            __builtin_popcountll(value[i] ^ good[i]));
        value[i] = good[i];
      }
    }
    return diff;
  }

 private:
  static constexpr std::uint32_t kGates = 40000, kInputs = 64;
  struct Gate {
    std::uint32_t a, b;
    std::uint8_t op;
  };

  static std::uint64_t next(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  std::uint64_t eval(const std::vector<std::uint64_t>& value,
                     std::uint32_t i) const {
    const std::uint64_t a = value[gates_[i].a], b = value[gates_[i].b];
    switch (gates_[i].op) {
      case 0: return a & b;
      case 1: return a | b;
      case 2: return a ^ b;
      default: return ~(a & b);
    }
  }

  std::vector<Gate> gates_;
  std::vector<std::vector<std::uint32_t>> fanout_;
};

int cmd_ref(int iterations) {
  const RefKernel kernel;
  for (int i = 0; i < iterations; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t diff = kernel.run();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("%.6f %llu\n", s, static_cast<unsigned long long>(diff));
  }
  return 0;
}

int cmd_env() {
  // The event-driven engine runs 64 lanes while the width is on auto
  // (src/fault/fault_sim.cpp).
  std::printf(
      "{\"threads\": %d, \"lane_bits\": %d, \"nproc\": %d, "
      "\"cpu_features\": \"%s\", \"suite_circuits\": [",
      parallel::default_threads(),
      default_lane_bits_is_auto() ? 64 : default_lane_bits(),
      parallel::hardware_threads(), cpu_features().c_str());
  const std::vector<std::string> names = suite_circuits();
  for (std::size_t i = 0; i < names.size(); ++i)
    std::printf("%s\"%s\"", i ? ", " : "", names[i].c_str());
  std::printf("]}\n");
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: fstg_pipeline_probe env\n"
               "       fstg_pipeline_probe digest FILE...\n"
               "       fstg_pipeline_probe exec RUSAGE_JSON PROGRAM ARGS...\n"
               "       fstg_pipeline_probe ref N\n"
               "       fstg_pipeline_probe suite "
               "[--circuits a,b] [--trace-out FILE] [--metrics-out FILE]\n");
  return 1;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "env") return cmd_env();
  if (mode == "ref" && argc == 3) return cmd_ref(std::atoi(argv[2]));
  if (mode == "exec" && argc >= 4) return cmd_exec(argv[2], argv + 3);
  if (mode == "digest") {
    for (int i = 2; i < argc; ++i) {
      std::string data, error;
      if (!store::read_file(argv[i], &data, &error))
        throw Error(std::string("cannot read ") + argv[i] + ": " + error);
      std::printf("%s\n", digest(data).c_str());
    }
    return 0;
  }
  if (mode != "suite") return usage();

  SuiteArgs a;
  for (int i = 2; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (!std::strcmp(argv[i], "--circuits") && has_value)
      a.circuits = split_csv(argv[++i]);
    else if (!std::strcmp(argv[i], "--trace-out") && has_value)
      a.trace_out = argv[++i];
    else if (!std::strcmp(argv[i], "--metrics-out") && has_value)
      a.metrics_out = argv[++i];
    else return usage();
  }
  if (a.circuits.empty()) a.circuits = suite_circuits();
  return cmd_suite(a);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fstg_pipeline_probe: %s\n", e.what());
    return 2;
  }
}
