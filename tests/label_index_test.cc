// Unit tests for the label-stratified data layer: the snapshot's CSR
// LabelIndex (grouping, ordering, rebuild on Freeze after mutation) and
// the precompiled CompiledDelta transition relation (forward rows with
// after-side epsilon-closure composition, reverse rows, label/source
// masks).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/nfa.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

// The CSR must partition each vertex's out-edges into label groups,
// groups sorted by label id, edges inside a group in insertion order.
void ExpectIndexMatchesAdjacency(Database& db) {
  Snapshot snap = db.Freeze();
  const LabelIndex& ix = snap.label_index();
  for (uint32_t v = 0; v < db.num_vertices(); ++v) {
    std::map<uint32_t, std::vector<uint32_t>> expected;  // label -> edges
    for (uint32_t e : db.OutEdges(v)) expected[db.edge(e).label].push_back(e);

    uint32_t prev_label = 0;
    bool first = true;
    std::map<uint32_t, std::vector<uint32_t>> got;
    for (const LabelIndex::Group& g : ix.GroupsOf(v)) {
      if (!first) {
        EXPECT_LT(prev_label, g.label) << "groups not sorted";
      }
      first = false;
      prev_label = g.label;
      for (const LabelIndex::Target& t : ix.Targets(g)) {
        EXPECT_EQ(db.edge(t.edge).src, v);
        EXPECT_EQ(db.edge(t.edge).label, g.label);
        EXPECT_EQ(db.edge(t.edge).dst, t.dst) << "denormalized dst is stale";
        got[g.label].push_back(t.edge);
      }
    }
    EXPECT_EQ(got, expected) << "vertex " << v;
  }
}

TEST(LabelIndexTest, StratifiesRandomGraphs) {
  LayeredGraphParams params;
  params.layers = 4;
  params.width = 6;
  params.edges_per_vertex = 3;
  params.num_labels = 3;
  params.extra_labels = 2;
  params.multi_label_p = 0.5;
  params.seed = 12345;
  Instance inst = LayeredGraph(params);
  ExpectIndexMatchesAdjacency(inst.db);
}

TEST(LabelIndexTest, ParallelEdgesStayAdjacentInInsertionOrder) {
  Database db;
  uint32_t s = db.AddVertex(), t = db.AddVertex();
  uint32_t a = db.labels().Intern("a"), b = db.labels().Intern("b");
  uint32_t e0 = db.AddEdge(s, b, t);
  uint32_t e1 = db.AddEdge(s, a, t);
  uint32_t e2 = db.AddEdge(s, b, t);  // parallel to e0, same label
  Snapshot snap = db.Freeze();
  const LabelIndex& ix = snap.label_index();
  auto groups = ix.GroupsOf(s);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].label, a);
  EXPECT_EQ(groups[1].label, b);
  ASSERT_EQ(ix.Targets(groups[0]).size(), 1u);
  EXPECT_EQ(ix.Targets(groups[0])[0].edge, e1);
  ASSERT_EQ(ix.Targets(groups[1]).size(), 2u);
  EXPECT_EQ(ix.Targets(groups[1])[0].edge, e0);
  EXPECT_EQ(ix.Targets(groups[1])[1].edge, e2);
}

TEST(LabelIndexTest, FreezeAfterMutationSeesTheNewEdges) {
  Database db;
  uint32_t s = db.AddVertex(), t = db.AddVertex();
  db.AddEdge(s, "a", t);
  EXPECT_EQ(db.Freeze().label_index().GroupsOf(s).size(), 1u);

  // Mutations retire the frozen index; the next Freeze() rebuilds and
  // sees the new edges.
  db.AddEdge(s, "b", t);
  uint32_t u = db.AddVertex();
  db.AddEdge(s, "a", u);
  Snapshot snap = db.Freeze();
  const LabelIndex& ix = snap.label_index();
  ASSERT_EQ(ix.GroupsOf(s).size(), 2u);
  EXPECT_EQ(ix.Targets(ix.GroupsOf(s)[0]).size(), 2u);  // two a-edges
  EXPECT_TRUE(ix.GroupsOf(u).empty());
  ExpectIndexMatchesAdjacency(db);
}

// Brute-force oracle for CompiledDelta on an arbitrary Nfa.
void ExpectDeltaMatchesNfa(const Nfa& nfa) {
  CompiledDelta delta(nfa);
  ASSERT_EQ(delta.num_states(), nfa.num_states());
  std::vector<StateSet> closures;
  if (nfa.has_epsilon()) closures = nfa.EpsilonClosures();

  std::set<uint32_t> used_labels;
  std::map<std::pair<uint32_t, uint32_t>, std::set<uint32_t>> succ;
  std::map<uint32_t, std::set<uint32_t>> sources;
  for (uint32_t q = 0; q < nfa.num_states(); ++q)
    for (const auto& [label, to] : nfa.Transitions(q)) {
      used_labels.insert(label);
      sources[label].insert(q);
      if (closures.empty()) {
        succ[{label, q}].insert(to);
      } else {
        closures[to].ForEach(
            [&](uint32_t r) { succ[{label, q}].insert(r); });
      }
    }

  for (uint32_t l = 0; l < delta.num_labels(); ++l) {
    EXPECT_EQ(delta.HasLabel(l), used_labels.count(l) > 0);
    if (!delta.HasLabel(l)) continue;
    std::set<uint32_t> src_got;
    delta.Sources(l).ForEach([&](uint32_t q) { src_got.insert(q); });
    EXPECT_EQ(src_got, sources[l]);
    for (uint32_t q = 0; q < nfa.num_states(); ++q) {
      std::set<uint32_t> got;
      delta.Successors(l, q).ForEach([&](uint32_t r) { got.insert(r); });
      EXPECT_EQ(got, (succ[{l, q}])) << "label " << l << " state " << q;
      // Reverse rows are the transpose of the forward rows.
      for (uint32_t t = 0; t < nfa.num_states(); ++t)
        EXPECT_EQ(delta.Predecessors(l, t).Test(q),
                  delta.Successors(l, q).Test(t))
            << "rev/fwd mismatch at l=" << l << " q=" << q << " t=" << t;
    }
  }
  EXPECT_FALSE(delta.HasLabel(delta.num_labels()));
  EXPECT_FALSE(delta.HasLabel(UINT32_MAX));
}

TEST(CompiledDeltaTest, MatchesTransitionsEpsilonFree) {
  ExpectDeltaMatchesNfa(StaircaseNfa(3, 2));
  ExpectDeltaMatchesNfa(AnyKDfa(4, 3));
  ExpectDeltaMatchesNfa(CompleteNfa(5, 2));

  std::mt19937_64 rng(7);
  for (int round = 0; round < 5; ++round) {
    Nfa nfa(6);
    nfa.AddInitial(0);
    nfa.AddFinal(5);
    for (int i = 0; i < 20; ++i)
      nfa.AddTransition(rng() % 6, rng() % 4, rng() % 6);
    ExpectDeltaMatchesNfa(nfa);
  }
}

TEST(CompiledDeltaTest, ComposesAfterSideEpsilonClosure) {
  // q0 -a-> q1 -eps-> q2 -eps-> q3: delta[a][q0] must be {q1, q2, q3}.
  Nfa nfa(4);
  nfa.AddInitial(0);
  nfa.AddFinal(3);
  nfa.AddTransition(0, 0u, 1);
  nfa.AddEpsilonTransition(1, 2);
  nfa.AddEpsilonTransition(2, 3);
  CompiledDelta delta(nfa);
  EXPECT_EQ(delta.Successors(0, 0).Count(), 3u);
  EXPECT_TRUE(delta.Successors(0, 0).Test(1));
  EXPECT_TRUE(delta.Successors(0, 0).Test(3));
  // Reverse: every closure member points back at q0.
  EXPECT_TRUE(delta.Predecessors(0, 3).Test(0));
  ExpectDeltaMatchesNfa(nfa);
}

TEST(CompiledDeltaTest, EpsilonCyclesAndRandomEpsilonNfas) {
  std::mt19937_64 rng(11);
  for (int round = 0; round < 5; ++round) {
    Nfa nfa(7);
    nfa.AddInitial(0);
    nfa.AddFinal(6);
    for (int i = 0; i < 14; ++i)
      nfa.AddTransition(rng() % 7, rng() % 3, rng() % 7);
    for (int i = 0; i < 6; ++i)
      nfa.AddEpsilonTransition(rng() % 7, rng() % 7);  // cycles likely
    ExpectDeltaMatchesNfa(nfa);
  }
}

// Vertex ids are external input: a bad one is rejected in every build
// type, and the rejected call changes nothing.
TEST(DatabaseTest, AddEdgeRejectsBadVertexIds) {
  Database db;
  uint32_t v = db.AddVertex();
  uint32_t a = db.labels().Intern("a");
  const uint64_t generation = db.generation();
  EXPECT_EQ(db.AddEdge(v, a, v + 1), kNoEdge);
  EXPECT_EQ(db.AddEdge(v + 7, a, v), kNoEdge);
  EXPECT_EQ(db.AddEdge(UINT32_MAX, a, UINT32_MAX), kNoEdge);
  EXPECT_EQ(db.AddEdge(v, "b", v + 1), kNoEdge);
  EXPECT_EQ(db.num_edges(), 0u);
  EXPECT_TRUE(db.OutEdges(v).empty());
  EXPECT_TRUE(db.InNeighbors(v).empty());
  EXPECT_EQ(db.generation(), generation);
  EXPECT_EQ(db.labels().Find("b"), LabelDictionary::kInvalid);

  // A valid edge right after is unaffected.
  EXPECT_EQ(db.AddEdge(v, a, v), 0u);
  EXPECT_EQ(db.num_edges(), 1u);
  EXPECT_EQ(db.Freeze().num_edges(), 1u);
}

}  // namespace
}  // namespace dsw
