// The shared-prefix oracle for core/annotate.h SourceAnnotation: one
// growable product BFS per (snapshot, automaton, source) must hand every
// target exactly what a from-scratch Annotate builds — same lambda, same
// sorted vertices, same state words — and the enumerated answers must
// match in order, whatever order the targets are requested in.
//
// Orders: shallow-first (each request grows a level or two), deep-first
// (the first request grows everything, the rest only copy), and a
// shuffled mix with unreachable (the BFS runs to exhaustion mid-stream)
// and out-of-range targets (never grow). Automata: hand-built
// staircases, Thompson (epsilon) and Glushkov front-ends, a >64-state
// automaton; both word kernels (force_multi_word).
//
// Repair: after random insert-only batches, the horizon-repaired copy
// of the levels (core/delta_annotate.h DeltaAnnotateHorizon) must again
// serve every target's fresh Annotate, and its changed lists must be
// exactly the per-level differences. Two batches are forced: one that
// shrinks lambda (a source-to-target shortcut) and one that extends an
// exhausted annotation (an edge into a fresh vertex off the deepest
// level).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "automaton/glushkov.h"
#include "automaton/thompson.h"
#include "core/annotate.h"
#include "core/delta_annotate.h"
#include "core/resumable_enumerator.h"
#include "core/resumable_index.h"
#include "regex/regex_parser.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

void ExpectSameAnnotation(const Annotation& got, const Annotation& want) {
  ASSERT_EQ(got.lambda, want.lambda);
  ASSERT_EQ(got.num_states, want.num_states);
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(got.target, want.target);
  ASSERT_EQ(got.levels.size(), want.levels.size());
  const size_t words = want.words_per_set();
  for (size_t i = 0; i < want.levels.size(); ++i) {
    const LevelSets& g = got.levels[i];
    const LevelSets& w = want.levels[i];
    ASSERT_EQ(g.vertices(), w.vertices()) << "level " << i;
    for (size_t vi = 0; vi < w.size(); ++vi)
      ASSERT_EQ(std::memcmp(g.states(vi).words(), w.states(vi).words(),
                            words * sizeof(uint64_t)),
                0)
          << "level " << i << " vertex " << w.vertex(vi);
  }
}

using EdgeSeq = std::vector<std::vector<uint32_t>>;

EdgeSeq Enumerate(const Snapshot& snap, const Annotation& ann) {
  EdgeSeq out;
  if (!ann.reachable()) return out;
  ResumableIndex index(snap, ann);
  for (ResumableEnumerator en(ann, index, ann.source, ann.target);
       en.Valid(); en.Next()) {
    out.push_back(en.walk().edges);
    if (out.size() > 20000) {
      ADD_FAILURE() << "enumeration runaway";
      break;
    }
  }
  return out;
}

// Every vertex, plus two out-of-range ids, in the three request orders.
std::vector<std::vector<uint32_t>> TargetOrders(const Snapshot& snap,
                                                const Nfa& query,
                                                uint32_t source,
                                                uint64_t seed) {
  const uint32_t n = snap.num_vertices();
  std::vector<uint32_t> reachable, unreachable;
  std::vector<int32_t> lambda(n, -1);
  for (uint32_t t = 0; t < n; ++t) {
    lambda[t] = Annotate(snap, query, source, t).lambda;
    (lambda[t] >= 0 ? reachable : unreachable).push_back(t);
  }
  auto by_lambda = [&](uint32_t a, uint32_t b) {
    return lambda[a] < lambda[b];
  };
  std::vector<uint32_t> shallow = reachable;
  std::stable_sort(shallow.begin(), shallow.end(), by_lambda);
  std::vector<uint32_t> deep(shallow.rbegin(), shallow.rend());
  std::vector<uint32_t> mixed = reachable;
  mixed.insert(mixed.end(), unreachable.begin(), unreachable.end());
  mixed.push_back(n);
  mixed.push_back(n + 7);
  std::shuffle(mixed.begin(), mixed.end(), std::mt19937_64(seed));
  return {shallow, deep, mixed};
}

// Prefix(t) == Annotate(t) for every target of every order, on a fresh
// SourceAnnotation per order; answers compared on every third target.
void CheckPrefixes(const Snapshot& snap, const Nfa& query, uint32_t source,
                   bool force_multi_word, uint64_t seed = 1) {
  const AnnotateOptions opts{.force_multi_word = force_multi_word};
  const auto orders = TargetOrders(snap, query, source, seed);
  for (size_t o = 0; o < orders.size(); ++o) {
    SCOPED_TRACE("order " + std::to_string(o));
    SourceAnnotation shared(snap, query, source, opts);
    size_t k = 0;
    for (uint32_t t : orders[o]) {
      SCOPED_TRACE("target " + std::to_string(t));
      Annotation got = shared.Prefix(t);
      Annotation want = Annotate(snap, query, source, t, opts);
      ExpectSameAnnotation(got, want);
      if (k++ % 3 == 0) {
        EXPECT_EQ(Enumerate(snap, got), Enumerate(snap, want));
      }
    }
    // Out-of-range targets never grow: a fresh object stays at level 0.
    SourceAnnotation untouched(snap, query, source, opts);
    bool grew = true;
    EXPECT_FALSE(untouched.Prefix(snap.num_vertices(), &grew).reachable());
    EXPECT_FALSE(grew);
    EXPECT_EQ(untouched.Levels().levels.size(), 1u);
  }
}

Nfa FromRegex(const std::string& pattern, Database* db, bool thompson) {
  RegexParseResult ast = ParseRegex(pattern);
  EXPECT_TRUE(ast.ok()) << pattern;
  return thompson ? ThompsonNfa(*ast.value(), db->mutable_dict())
                  : GlushkovNfa(*ast.value(), db->mutable_dict());
}

TEST(SourceAnnotationTest, PrefixesMatchAnnotateOnBubbleChains) {
  Instance inst = BubbleChain(4, 2);
  Snapshot snap = inst.db.Freeze();
  for (bool force : {false, true})
    CheckPrefixes(snap, StaircaseNfa(2, 2), inst.source, force);
}

TEST(SourceAnnotationTest, PrefixesMatchAnnotateOnGrids) {
  Instance inst = Grid(4, 4);
  Snapshot snap = inst.db.Freeze();
  for (bool force : {false, true}) {
    CheckPrefixes(snap, StaircaseNfa(1, 1), inst.source, force, 2);
    CheckPrefixes(snap, AnyKDfa(4, 1), inst.source, force, 3);
  }
}

TEST(SourceAnnotationTest, PrefixesMatchAnnotateOnLayeredAndStarGraphs) {
  Instance layered = LayeredGraph(LayeredGraphParams{
      .layers = 4, .width = 5, .edges_per_vertex = 2, .seed = 7});
  Snapshot ls = layered.db.Freeze();
  Instance star = StarOfChains(3, 3, 2);
  Snapshot ss = star.db.Freeze();
  for (bool force : {false, true}) {
    CheckPrefixes(ls, StaircaseNfa(2, 2), layered.source, force, 4);
    CheckPrefixes(ss, CompleteNfa(3, 2), star.source, force, 5);
  }
}

TEST(SourceAnnotationTest, PrefixesMatchAnnotateForBothFrontEnds) {
  Instance inst = EmbedInNoise(BubbleChain(3, 2), 12, 30, 11);
  const std::string pattern = ContainsL0Regex(2);
  Nfa thompson = FromRegex(pattern, &inst.db, true);
  Nfa glushkov = FromRegex(pattern, &inst.db, false);
  ASSERT_TRUE(thompson.has_epsilon());
  ASSERT_FALSE(glushkov.has_epsilon());
  Snapshot snap = inst.db.Freeze();
  for (bool force : {false, true}) {
    CheckPrefixes(snap, thompson, inst.source, force, 6);
    CheckPrefixes(snap, glushkov, inst.source, force, 7);
  }
}

TEST(SourceAnnotationTest, PrefixesMatchAnnotateOver64States) {
  Instance inst = BubbleChain(3, 2);
  Nfa big = StaircaseNfa(70, 2);
  ASSERT_GT(big.num_states(), 64u);
  Snapshot snap = inst.db.Freeze();
  CheckPrefixes(snap, big, inst.source, false, 8);
}

TEST(SourceAnnotationTest, OutOfRangeSourceIsExhaustedWithNoLevels) {
  Instance inst = Grid(3, 3);
  Snapshot snap = inst.db.Freeze();
  SourceAnnotation shared(snap, StaircaseNfa(1, 1), snap.num_vertices());
  bool grew = true;
  Annotation ann = shared.Prefix(inst.target, &grew);
  EXPECT_FALSE(ann.reachable());
  EXPECT_TRUE(ann.levels.empty());
  EXPECT_FALSE(grew);
  EXPECT_TRUE(shared.Levels().levels.empty());
}

// ------------------------------------------------------ horizon repair

// The horizon repair of \p shared against \p ns: checks ok, the changed
// lists against the actual level diffs, and returns the repaired object.
std::unique_ptr<SourceAnnotation> RepairAndCheck(const SourceAnnotation& shared,
                                                 const Snapshot& ns,
                                                 const EdgeDelta& delta,
                                                 const AnnotateOptions& opts) {
  const Annotation before = shared.Levels();
  Annotation bfs = before;
  AnnotationRepair rep = DeltaAnnotateHorizon(ns, delta, &bfs);
  EXPECT_TRUE(rep.ok);
  EXPECT_FALSE(rep.lambda_changed);
  EXPECT_EQ(bfs.levels.size(), before.levels.size());  // nothing truncated
  EXPECT_EQ(rep.changed.size(), before.levels.size());
  const size_t words = before.words_per_set();
  for (size_t i = 0; i < rep.changed.size() && i < bfs.levels.size(); ++i) {
    std::vector<uint32_t> diff;
    const LevelSets& o = before.levels[i];
    const LevelSets& n = bfs.levels[i];
    std::vector<uint32_t> all = o.vertices();
    all.insert(all.end(), n.vertices().begin(), n.vertices().end());
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    for (uint32_t v : all) {
      StateSetView a = o.Find(v), b = n.Find(v);
      if (!a || !b ||
          std::memcmp(a.words(), b.words(), words * sizeof(uint64_t)) != 0)
        diff.push_back(v);
    }
    EXPECT_EQ(rep.changed[i], diff) << "changed list of level " << i;
  }
  return std::make_unique<SourceAnnotation>(ns, std::move(bfs), opts);
}

void ExpectServesEveryTarget(SourceAnnotation& shared, const Snapshot& snap,
                             const Nfa& query, uint32_t source,
                             const AnnotateOptions& opts) {
  for (uint32_t t = 0; t < snap.num_vertices(); ++t) {
    SCOPED_TRACE("target " + std::to_string(t));
    ExpectSameAnnotation(shared.Prefix(t),
                         Annotate(snap, query, source, t, opts));
  }
}

// Random insert-only batches on \p inst, each followed by a horizon
// repair of a SourceAnnotation grown to a few random targets (so its
// depth varies between batches) and a full prefix check.
void RunRepairScenario(Instance inst, const Nfa& query, bool force,
                       uint64_t seed) {
  const AnnotateOptions opts{.force_multi_word = force};
  std::mt19937_64 rng(seed);
  const uint32_t num_labels = inst.db.labels().size();
  Snapshot snap = inst.db.Freeze();
  auto shared =
      std::make_unique<SourceAnnotation>(snap, query, inst.source, opts);
  for (int batch = 0; batch < 6; ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    for (int k = 0; k < 3; ++k)
      shared->Prefix(static_cast<uint32_t>(rng() % snap.num_vertices()));
    const uint64_t prev_gen = snap.generation();
    if (rng() % 3 == 0) inst.db.AddVertices(1);
    for (int e = 0; e < 4; ++e) {
      const uint32_t n = inst.db.num_vertices();
      inst.db.AddEdge(static_cast<uint32_t>(rng() % n),
                      static_cast<uint32_t>(rng() % num_labels),
                      static_cast<uint32_t>(rng() % n));
    }
    snap = inst.db.Freeze();
    EdgeDelta delta = snap.DeltaFrom(prev_gen);
    ASSERT_TRUE(delta.known);
    shared = RepairAndCheck(*shared, snap, delta, opts);
    ExpectServesEveryTarget(*shared, snap, query, inst.source, opts);
  }
}

TEST(SourceAnnotationTest, HorizonRepairServesEveryTargetAfterInserts) {
  for (bool force : {false, true}) {
    RunRepairScenario(BubbleChain(4, 2), StaircaseNfa(2, 2), force, 21);
    RunRepairScenario(Grid(4, 4), AnyKDfa(5, 1), force, 22);
  }
  Instance noisy = EmbedInNoise(BubbleChain(3, 2), 10, 25, 5);
  Nfa thompson = FromRegex(ContainsL0Regex(2), &noisy.db, true);
  RunRepairScenario(std::move(noisy), thompson, false, 23);
  RunRepairScenario(BubbleChain(3, 2), StaircaseNfa(70, 2), false, 24);
}

TEST(SourceAnnotationTest, HorizonRepairShrinksLambda) {
  Instance inst = BubbleChain(4, 1);
  Nfa query = StaircaseNfa(1, 1);  // any nonempty l0-walk
  Snapshot snap = inst.db.Freeze();
  SourceAnnotation shared(snap, query, inst.source);
  const int32_t old_lambda = shared.Prefix(inst.target).lambda;
  ASSERT_GT(old_lambda, 1);

  const uint64_t prev_gen = snap.generation();
  inst.db.AddEdge(inst.source, 0, inst.target);  // a one-step shortcut
  snap = inst.db.Freeze();
  auto repaired = RepairAndCheck(shared, snap, snap.DeltaFrom(prev_gen), {});
  Annotation ann = repaired->Prefix(inst.target);
  EXPECT_EQ(ann.lambda, 1);
  ExpectServesEveryTarget(*repaired, snap, query, inst.source, {});
  EXPECT_EQ(Enumerate(snap, ann),
            Enumerate(snap, Annotate(snap, query, inst.source, inst.target)));
}

TEST(SourceAnnotationTest, HorizonRepairExtendsAnExhaustedAnnotation) {
  Instance inst = BubbleChain(3, 1);
  Nfa query = StaircaseNfa(1, 1);
  Snapshot snap = inst.db.Freeze();
  SourceAnnotation shared(snap, query, inst.source);
  // The source itself needs a nonempty walk back to it, which a bubble
  // chain lacks: the BFS runs to exhaustion.
  ASSERT_FALSE(shared.Prefix(inst.source).reachable());
  const size_t depth = shared.Levels().levels.size();

  // A fresh vertex hung off the deepest level's vertex: reachable one
  // level past the exhausted horizon, which only growth can find.
  const uint64_t prev_gen = snap.generation();
  const uint32_t deepest = shared.Levels().levels.back().vertex(0);
  const uint32_t fresh = inst.db.AddVertex();
  inst.db.AddEdge(deepest, 0, fresh);
  snap = inst.db.Freeze();
  auto repaired = RepairAndCheck(shared, snap, snap.DeltaFrom(prev_gen), {});
  bool grew = false;
  Annotation ann = repaired->Prefix(fresh, &grew);
  EXPECT_TRUE(grew);
  EXPECT_EQ(ann.lambda, static_cast<int32_t>(depth));
  ExpectSameAnnotation(ann, Annotate(snap, query, inst.source, fresh));
  ExpectServesEveryTarget(*repaired, snap, query, inst.source, {});
}

}  // namespace
}  // namespace dsw
