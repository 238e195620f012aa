// google-benchmark micro kernels for the computational cores.

#include <benchmark/benchmark.h>

#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "harness/experiment.h"
#include "logic/minimize.h"
#include "logic/tautology.h"
#include "seq/uio.h"

namespace {

using namespace fstg;

const CircuitExperiment& dk16_experiment() {
  static const CircuitExperiment exp = run_circuit("dk16");
  return exp;
}
const CircuitExperiment& mark1_experiment() {
  static const CircuitExperiment exp = run_circuit("mark1");
  return exp;
}

void BM_UioDerivation(benchmark::State& state) {
  const StateTable& table = dk16_experiment().table;
  for (auto _ : state) {
    UioSet uios = derive_uio_sequences(table);
    benchmark::DoNotOptimize(uios.count());
  }
}
BENCHMARK(BM_UioDerivation);

void BM_TestGeneration(benchmark::State& state) {
  const CircuitExperiment& exp = dk16_experiment();
  for (auto _ : state) {
    GeneratorResult gen = generate_functional_tests(exp.table, {}, exp.gen.uios);
    benchmark::DoNotOptimize(gen.tests.size());
  }
}
BENCHMARK(BM_TestGeneration);

void BM_LogicSimFullEval(benchmark::State& state) {
  const Netlist& nl = mark1_experiment().synth.circuit.comb;
  LogicSim sim(nl);
  for (int i = 0; i < nl.num_inputs(); ++i)
    sim.set_input(i, 0x5555555555555555ull * static_cast<unsigned>(i + 1));
  for (auto _ : state) {
    sim.run();
    benchmark::DoNotOptimize(sim.output(0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nl.num_gates()) * 64);
}
BENCHMARK(BM_LogicSimFullEval);

/// The fault simulator's kernel: mark1's stuck-at faults as one chunk over
/// one 64-test batch (event-driven overlay of the excited lanes, packed
/// diverged steps, early exit), serial.
void BM_FaultSimCone(benchmark::State& state) {
  const CircuitExperiment& exp = mark1_experiment();
  const ScanCircuit& circuit = exp.synth.circuit;
  const std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
  const std::vector<ScanPattern> patterns = to_scan_patterns(
      exp.gen.tests.sorted_by_decreasing_length());
  ScanBatchSim sim(circuit);
  const std::vector<ScanPattern> batch(
      patterns.begin(),
      patterns.begin() + std::min<std::size_t>(64, patterns.size()));
  const GoodTrace good = sim.run_good(batch);
  std::vector<FaultJob> jobs(faults.size());
  for (std::size_t f = 0; f < faults.size(); ++f)
    jobs[f] = {&faults[f]};
  for (auto _ : state) {
    sim.run_faulty(batch, good, jobs);
    std::size_t detected = 0;
    for (const FaultJob& job : jobs) detected += job.detected != 0;
    benchmark::DoNotOptimize(detected);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(faults.size()));
}
BENCHMARK(BM_FaultSimCone);

void BM_TautologyCheck(benchmark::State& state) {
  // The OR of all function covers of cse, a mixed non-trivial cover.
  const CircuitExperiment& exp = dk16_experiment();
  Cover all(exp.synth.covers.front().num_vars());
  for (const Cover& c : exp.synth.covers)
    for (const Cube& cube : c.cubes()) all.add(cube);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_tautology(all));
  }
}
BENCHMARK(BM_TautologyCheck);

void BM_Synthesis(benchmark::State& state) {
  Kiss2Fsm fsm = load_benchmark("mark1");
  for (auto _ : state) {
    SynthesisResult r = synthesize_scan_circuit(fsm);
    benchmark::DoNotOptimize(r.circuit.comb.num_gates());
  }
}
BENCHMARK(BM_Synthesis);

}  // namespace

BENCHMARK_MAIN();
