// Unit tests for the fanout-free cone partition (netlist/cones.h): head
// fixpoint properties, partition invariants, and hand-checked shapes
// (chains, trees, reconvergent fan-out, multi-fanout stems, outputs).

#include "netlist/cones.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "difftest/workload.h"
#include "netlist/netlist.h"

namespace fstg {
namespace {

/// Number of gates in each cone, counted over `cone_id`.
std::vector<int> cone_sizes(const ConePartition& p) {
  std::vector<int> sizes(static_cast<std::size_t>(p.num_cones()), 0);
  for (int c : p.cone_id) ++sizes[static_cast<std::size_t>(c)];
  return sizes;
}

/// Invariants every partition must satisfy, independent of the netlist:
/// heads are fixpoints, members funnel into a valid head, cone ids are
/// dense and ordered by ascending head id, and sizes sum to num_gates.
void check_partition_invariants(const Netlist& nl, const ConePartition& p) {
  const int n = nl.num_gates();
  ASSERT_EQ(p.head.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(p.cone_id.size(), static_cast<std::size_t>(n));
  ASSERT_GE(p.num_cones(), n > 0 ? 1 : 0);
  ASSERT_LE(p.num_cones(), n);

  const std::vector<std::vector<int>> fanouts = nl.fanouts();
  std::vector<bool> is_output(static_cast<std::size_t>(n), false);
  for (int o : nl.outputs()) is_output[static_cast<std::size_t>(o)] = true;

  for (int g = 0; g < n; ++g) {
    const int h = p.head[static_cast<std::size_t>(g)];
    ASSERT_GE(h, 0);
    ASSERT_LT(h, n);
    // Heads are fixpoints; topological ids mean a head never precedes its
    // member.
    EXPECT_EQ(p.head[static_cast<std::size_t>(h)], h) << "gate " << g;
    EXPECT_GE(h, g);
    // A gate is its own head exactly when its value escapes a single
    // consumer: output, or fanout count != 1.
    const bool escapes = is_output[static_cast<std::size_t>(g)] ||
                         fanouts[static_cast<std::size_t>(g)].size() != 1;
    EXPECT_EQ(h == g, escapes) << "gate " << g;
    if (!escapes) {
      // Single-fanout interior gate: funnels into its consumer's head.
      const int consumer = fanouts[static_cast<std::size_t>(g)][0];
      EXPECT_EQ(h, p.head[static_cast<std::size_t>(consumer)]) << "gate " << g;
    }
    // cone_id / cone_head cross-reference consistently.
    const int c = p.cone_id[static_cast<std::size_t>(g)];
    ASSERT_GE(c, 0);
    ASSERT_LT(c, p.num_cones());
    EXPECT_EQ(p.cone_head[static_cast<std::size_t>(c)], h) << "gate " << g;
  }

  // Cone ids are dense and ordered by ascending head id.
  EXPECT_TRUE(std::is_sorted(p.cone_head.begin(), p.cone_head.end()));
  EXPECT_EQ(std::adjacent_find(p.cone_head.begin(), p.cone_head.end()),
            p.cone_head.end());

  // Every cone has a member, and the sizes sum to num_gates.
  const std::vector<int> sizes = cone_sizes(p);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), 0), n);
  for (int s : sizes) EXPECT_GE(s, 1);
}

TEST(Cones, ChainCollapsesToOneCone) {
  // a -> NOT -> NOT -> NOT(out): every interior gate has fanout 1, so the
  // whole chain is one cone headed by the output gate.
  Netlist nl;
  const int a = nl.add_input("a");
  const int n1 = nl.add_gate(GateType::kNot, {a});
  const int n2 = nl.add_gate(GateType::kNot, {n1});
  const int n3 = nl.add_gate(GateType::kNot, {n2});
  nl.add_output(n3);

  const ConePartition p = fanout_free_cones(nl);
  check_partition_invariants(nl, p);
  EXPECT_EQ(p.num_cones(), 1);
  EXPECT_EQ(p.cone_head[0], n3);
  EXPECT_EQ(cone_sizes(p)[0], 4);
  for (int g = 0; g < nl.num_gates(); ++g)
    EXPECT_EQ(p.head[static_cast<std::size_t>(g)], n3);
}

TEST(Cones, TreeIsOneCone) {
  // Balanced AND tree: all interior fan-out is 1, single cone at the root.
  Netlist nl;
  const int a = nl.add_input("a");
  const int b = nl.add_input("b");
  const int c = nl.add_input("c");
  const int d = nl.add_input("d");
  const int ab = nl.add_gate(GateType::kAnd, {a, b});
  const int cd = nl.add_gate(GateType::kAnd, {c, d});
  const int root = nl.add_gate(GateType::kAnd, {ab, cd});
  nl.add_output(root);

  const ConePartition p = fanout_free_cones(nl);
  check_partition_invariants(nl, p);
  EXPECT_EQ(p.num_cones(), 1);
  EXPECT_EQ(p.cone_head[0], root);
  EXPECT_EQ(cone_sizes(p)[0], nl.num_gates());
}

TEST(Cones, FanoutStemStartsNewCone) {
  // s = NOT(a) feeds both AND and OR: the stem's fanout count is 2, so it
  // heads its own cone; each consumer heads another (they drive outputs).
  Netlist nl;
  const int a = nl.add_input("a");
  const int b = nl.add_input("b");
  const int s = nl.add_gate(GateType::kNot, {a});
  const int g1 = nl.add_gate(GateType::kAnd, {s, b});
  const int g2 = nl.add_gate(GateType::kOr, {s, b});
  nl.add_output(g1);
  nl.add_output(g2);

  const ConePartition p = fanout_free_cones(nl);
  check_partition_invariants(nl, p);
  // b also fans out twice -> own cone. Cones: {a,s}, {b}, {g1}, {g2}.
  EXPECT_EQ(p.num_cones(), 4);
  EXPECT_EQ(p.head[static_cast<std::size_t>(a)], s);
  EXPECT_EQ(p.head[static_cast<std::size_t>(s)], s);
  EXPECT_EQ(p.head[static_cast<std::size_t>(b)], b);
  EXPECT_EQ(p.head[static_cast<std::size_t>(g1)], g1);
  EXPECT_EQ(p.head[static_cast<std::size_t>(g2)], g2);
}

TEST(Cones, ReconvergenceKeepsStemSeparate) {
  // Classic reconvergent diamond: stem fans out to two paths that re-merge
  // at an XOR. The stem heads its own cone; the two branch gates funnel
  // into the XOR's cone (each has fanout 1).
  Netlist nl;
  const int a = nl.add_input("a");
  const int stem = nl.add_gate(GateType::kBuf, {a});
  const int p1 = nl.add_gate(GateType::kNot, {stem});
  const int p2 = nl.add_gate(GateType::kBuf, {stem});
  const int merge = nl.add_gate(GateType::kXor, {p1, p2});
  nl.add_output(merge);

  const ConePartition p = fanout_free_cones(nl);
  check_partition_invariants(nl, p);
  EXPECT_EQ(p.num_cones(), 2);
  EXPECT_EQ(p.head[static_cast<std::size_t>(a)], stem);
  EXPECT_EQ(p.head[static_cast<std::size_t>(stem)], stem);
  EXPECT_EQ(p.head[static_cast<std::size_t>(p1)], merge);
  EXPECT_EQ(p.head[static_cast<std::size_t>(p2)], merge);
  EXPECT_EQ(p.head[static_cast<std::size_t>(merge)], merge);
}

TEST(Cones, OutputWithInternalFanoutHeadsItsOwnCone) {
  // A gate that drives a primary output AND feeds another gate must head a
  // cone even though its fanout count is 1 — its value escapes via the
  // output.
  Netlist nl;
  const int a = nl.add_input("a");
  const int g = nl.add_gate(GateType::kNot, {a});
  const int h = nl.add_gate(GateType::kBuf, {g});
  nl.add_output(g);
  nl.add_output(h);

  const ConePartition p = fanout_free_cones(nl);
  check_partition_invariants(nl, p);
  EXPECT_EQ(p.head[static_cast<std::size_t>(g)], g);
  EXPECT_EQ(p.head[static_cast<std::size_t>(h)], h);
  EXPECT_EQ(p.num_cones(), 2);  // {a, g} and {h}: a funnels into g
  EXPECT_EQ(p.head[static_cast<std::size_t>(a)], g);
}

TEST(Cones, GeneratedCircuitsSatisfyInvariants) {
  // Property check over the difftest workload generator's synthesized
  // circuits (reconvergent, observer-enriched, duplicated-fanin shapes).
  for (std::uint64_t seed : {1u, 7u, 23u, 48u, 91u}) {
    const difftest::Workload w = difftest::generate_workload(seed);
    SCOPED_TRACE(w.name);
    const ConePartition p = fanout_free_cones(w.circuit.comb);
    check_partition_invariants(w.circuit.comb, p);
  }
}

}  // namespace
}  // namespace fstg
