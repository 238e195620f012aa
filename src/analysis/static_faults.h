#pragma once

#include <cstdint>
#include <vector>

#include "analysis/implication.h"
#include "base/bitvec.h"
#include "sim/logic_sim.h"

namespace fstg::analysis {

/// Fault-independent static verdict for one fault. Both untestable
/// verdicts are *proofs*: a fault so classified is combinationally
/// redundant under full scan (the difftest static-redundancy mode
/// cross-checks every verdict against the exhaustive engine).
enum class FaultVerdict : std::uint8_t {
  kUnknown,         ///< static analysis proves nothing; simulate it
  kUnexcitable,     ///< the faulty line is statically stuck at the fault
                    ///< value already (constant or conflicting excitation)
  kUnpropagatable,  ///< every output path is statically blocked: the gate
                    ///< is unobservable, or an implied side-input value
                    ///< holds a dominator at its controlling value
};

const char* fault_verdict_name(FaultVerdict verdict);

struct AnalyzerOptions {
  ImplicationEngine::Options engine;
};

/// Outcome of analyzing one fault list.
struct FaultAnalysis {
  std::vector<FaultVerdict> verdict;  ///< one per input fault
  /// equiv_rep[i] = smallest fault index provably equivalent to fault i
  /// (equiv_rep[i] == i for class representatives and faults the rules do
  /// not cover). Equivalence includes the gate-local pin→stem collapses
  /// plus transitive single-fanout chain rules across gates.
  std::vector<std::size_t> equiv_rep;
  std::size_t unexcitable = 0;
  std::size_t unpropagatable = 0;
  std::size_t equiv_classes = 0;  ///< distinct classes over the list
  std::size_t equiv_merged = 0;   ///< faults with equiv_rep != self

  std::size_t untestable() const { return unexcitable + unpropagatable; }
};

/// Reusable static fault analyzer for one netlist: implication engine +
/// output-dominator chain + forward reachability. Immutable after
/// construction; safe to share read-only across threads.
/// `classify`/`analyze` never throw.
class StaticAnalyzer {
 public:
  explicit StaticAnalyzer(const Netlist& nl,
                          const AnalyzerOptions& options = {});

  const ImplicationEngine& engine() const { return engine_; }
  /// output_dominators(nl) chain (netlist/cones.h sentinels).
  const std::vector<int>& dominators() const { return dom_; }
  /// Does any primary output observe this gate?
  bool observable(int gate) const;

  FaultVerdict classify(const FaultSpec& fault) const;
  FaultAnalysis analyze(const std::vector<FaultSpec>& faults) const;

 private:
  bool reaches(int from, int to) const {
    return reach_[static_cast<std::size_t>(from)].test(
        static_cast<std::size_t>(to));
  }
  /// Walk the dominator chain above `from`, testing whether the closure in
  /// `imp` (fault-free implications of the excitation condition) holds a
  /// controlling value on a side input outside the fault cone of `from`.
  bool propagation_blocked(int from, const Implications& imp) const;
  FaultVerdict classify_stem(int gate, bool value) const;
  FaultVerdict classify_pin(int gate, int pin, bool value) const;
  FaultVerdict classify_bridge(int g1, int g2, bool or_type) const;

  const Netlist* nl_;
  ImplicationEngine engine_;
  std::vector<int> dom_;
  std::vector<BitVec> reach_;
};

/// Eagerly register every analysis.* counter so metrics scrapes list a
/// stable catalog even before the first analysis runs (same contract as
/// the serve/cache.hot registration).
void register_analysis_counters();

}  // namespace fstg::analysis
