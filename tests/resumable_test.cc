// Cross-oracle harness for the enumerator and its memoryless entry point
// (Theorem 18).
//
// The oracle is an order *specification*, independent of every
// enumerator: the naive baseline's answer set sorted lexicographically
// by the target-pool ranks of the walks' edges. On every instance x
// query, ResumableEnumerator's full scan must reproduce it exactly
// (order included), the SeekAfter chain — each answer recomputed from
// the previous one alone — must reproduce it again, and a *fresh*
// enumerator SeekAfter'ed to any answer w must emit exactly the suffix
// after w, with the last answer invalidating cleanly. Adversarial walks (wrong length, non-candidate edges, dead
// reachable-run sets) pin the rejection contract: release builds
// return false, debug builds assert (death tests, mirroring
// label_index_test). The delay-accounting test asserts the Theorem 18
// bound as an operation-count proxy: per-output work of the SeekAfter
// chain stays flat while the in-degree sweeps 4 -> 256.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "automaton/glushkov.h"
#include "automaton/thompson.h"
#include "baseline/naive.h"
#include "core/annotate.h"
#include "core/resumable_index.h"
#include "core/trimmed_index.h"
#include "regex/regex_parser.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

using WalkSeq = std::vector<std::vector<uint32_t>>;

template <typename Enumerator>
WalkSeq Drain(Enumerator& en) {
  WalkSeq out;
  for (; en.Valid(); en.Next()) out.push_back(en.walk().edges);
  return out;
}

// The order specification, independent of every enumerator: the naive
// baseline's answer set sorted lexicographically by the target-pool
// ranks (tgt_idx(e_1), ..., tgt_idx(e_lambda)) of the walks' edges.
WalkSeq LexOrderedNaiveAnswers(const Snapshot& snap, const Nfa& query,
                               uint32_t source, uint32_t target) {
  NaiveResult naive =
      NaiveDistinctShortestWalks(snap, query, source, target);
  EXPECT_FALSE(naive.budget_exhausted);
  std::vector<std::pair<std::vector<uint32_t>, std::vector<uint32_t>>> keyed;
  for (const Walk& w : naive.walks) {
    std::vector<uint32_t> key;
    for (uint32_t e : w.edges) key.push_back(snap.tgt_idx(e));
    keyed.emplace_back(std::move(key), w.edges);
  }
  std::sort(keyed.begin(), keyed.end());
  WalkSeq out;
  for (auto& [key, edges] : keyed) out.push_back(std::move(edges));
  return out;
}

// The three properties of the harness header, on one (instance, query).
void ExpectResumableMatchesStateful(Instance inst, const Nfa& query,
                                    const char* what) {
  SCOPED_TRACE(what);
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ResumableIndex rindex(snap, ann);

  const WalkSeq ref =
      LexOrderedNaiveAnswers(snap, query, inst.source, inst.target);

  // (a) full scan, order included.
  ResumableEnumerator full(ann, rindex, inst.source, inst.target);
  ASSERT_EQ(Drain(full), ref);

  // (a') the memoryless chain — every answer recomputed from its
  // predecessor alone — is the same sequence again.
  if (!ref.empty()) {
    ResumableEnumerator chain(ann, rindex, inst.source, inst.target);
    ASSERT_TRUE(chain.Valid());
    WalkSeq chained{chain.walk().edges};
    Walk prev;
    prev.edges = chain.walk().edges;
    while (chain.SeekAfter(prev) && chain.Valid()) {
      chained.push_back(chain.walk().edges);
      prev.edges = chain.walk().edges;
    }
    EXPECT_EQ(chained, ref);
  }

  // (b) a fresh SeekAfter from every answer yields exactly its suffix;
  // the last answer invalidates cleanly (empty suffix).
  for (size_t k = 0; k < ref.size(); ++k) {
    ResumableEnumerator en(ann, rindex, inst.source, inst.target);
    Walk w;
    w.edges = ref[k];
    ASSERT_TRUE(en.SeekAfter(w)) << "answer " << k << " rejected";
    WalkSeq suffix = Drain(en);
    ASSERT_EQ(suffix, WalkSeq(ref.begin() + k + 1, ref.end()))
        << "wrong suffix after answer " << k;
  }
}

Nfa CompileRegex(const std::string& pattern, Database* db, bool thompson) {
  RegexParseResult ast = ParseRegex(pattern);
  EXPECT_TRUE(ast.ok()) << ast.error();
  return thompson ? ThompsonNfa(*ast.value(), db->mutable_dict())
                  : GlushkovNfa(*ast.value(), db->mutable_dict());
}

TEST(ResumableCrossOracleTest, GridsWithFixedNfas) {
  for (uint32_t n = 2; n <= 4; ++n) {
    Instance inst = Grid(n, n);
    ExpectResumableMatchesStateful(inst, StaircaseNfa(1, 1), "staircase1");
    ExpectResumableMatchesStateful(inst, AnyKDfa(2 * (n - 1), 1), "anyk");
  }
  ExpectResumableMatchesStateful(Grid(3, 5), StaircaseNfa(2, 1),
                                 "grid3x5-staircase2");
}

TEST(ResumableCrossOracleTest, GridsWithRegexFrontEnds) {
  for (bool thompson : {false, true}) {
    Instance inst = Grid(3, 3);
    Nfa query = CompileRegex("l0 l0 l0 l0", &inst.db, thompson);
    ExpectResumableMatchesStateful(inst, query,
                                   thompson ? "thompson" : "glushkov");
    Nfa plus = CompileRegex("(l0)+", &inst.db, thompson);
    ExpectResumableMatchesStateful(inst, plus, "plus");
  }
}

TEST(ResumableCrossOracleTest, StarOfChainsSweepsShapeAndQueries) {
  for (uint32_t d : {1u, 2u, 5u, 9u}) {
    for (uint32_t depth : {1u, 2u, 5u}) {
      Instance inst = StarOfChains(d, depth, 2);
      ExpectResumableMatchesStateful(inst, StaircaseNfa(1, 2),
                                     "staircase1");
      ExpectResumableMatchesStateful(inst, CompleteNfa(3, 2), "complete3");
    }
  }
  // "ends in l0" keeps only every other chain — trimming must drop the
  // rest from the candidate lists, not just from the answers.
  for (bool thompson : {false, true}) {
    Instance inst = StarOfChains(6, 4, 2);
    Nfa query = CompileRegex("(l0|l1)* l0", &inst.db, thompson);
    ExpectResumableMatchesStateful(inst, query, "ends-in-l0");
  }
}

TEST(ResumableCrossOracleTest, NoiseEmbeddedRandomInstances) {
  for (uint64_t seed : {5u, 17u, 29u, 47u}) {
    Instance core = BubbleChain(3 + seed % 2, 2);
    Instance inst =
        EmbedInNoise(core, 40, 160, seed);
    ExpectResumableMatchesStateful(inst, StaircaseNfa(1, 2), "staircase1");
    ExpectResumableMatchesStateful(inst, StaircaseNfa(2, 2), "staircase2");
    for (bool thompson : {false, true}) {
      Nfa query = CompileRegex("l0 (l0|l1)* l1?", &inst.db, thompson);
      ExpectResumableMatchesStateful(inst, query, "regex");
    }
  }
  for (uint64_t seed : {7u, 13u}) {
    Instance inst = EmbedInNoise(StarOfChains(4, 3, 2), 30, 120, seed);
    for (bool thompson : {false, true}) {
      Nfa query = CompileRegex("(l0|l1)+", &inst.db, thompson);
      ExpectResumableMatchesStateful(inst, query, "any-plus");
    }
  }
}

TEST(ResumableCrossOracleTest, LambdaZeroEmptyWalk) {
  // source == target and the query accepts the empty word: the single
  // empty walk is the answer; SeekAfter(empty) accepts it and reports
  // no successor.
  Instance inst = Grid(2, 2);
  inst.target = inst.source;
  Nfa query = StaircaseNfa(0, 1);  // accepts every word incl. epsilon
  ExpectResumableMatchesStateful(inst, query, "lambda0");

  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ASSERT_EQ(ann.lambda, 0);
  ResumableIndex index(snap, ann);
  ResumableEnumerator en(ann, index, inst.source, inst.target);
  ASSERT_TRUE(en.Valid());
  EXPECT_TRUE(en.walk().edges.empty());
  Walk empty;
  EXPECT_TRUE(en.SeekAfter(empty));
  EXPECT_FALSE(en.Valid());
}

TEST(ResumableCrossOracleTest, UnreachableTargetHasNoAnswers) {
  Instance inst = StarOfChains(3, 4, 2);
  Nfa query = AnyKDfa(3, 2);  // wrong length: no accepting walk
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ASSERT_FALSE(ann.reachable());
  ResumableIndex index(snap, ann);
  EXPECT_TRUE(index.empty());
  ResumableEnumerator en(ann, index, inst.source, inst.target);
  EXPECT_FALSE(en.Valid());
}

// Structural invariants of the index itself, on a noisy random
// instance: SlotAt finds every useful vertex below lambda at its
// position; every candidate list is ascending in tgt_idx (the seek
// key); SeekGe lands exactly on each member, on the first candidate
// at-or-after any other out-edge of the vertex, and rejects edges that
// are not out-edges of it; level lambda has no slots.
TEST(ResumableIndexTest, QueueStructureInvariants) {
  Instance inst = EmbedInNoise(StarOfChains(5, 4, 2), 25, 100, 3);
  Nfa query = StaircaseNfa(2, 2);
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ASSERT_TRUE(ann.reachable());
  ResumableIndex index(snap, ann);
  const TrimmedIndex& trimmed = index.trimmed();
  const uint32_t lambda = static_cast<uint32_t>(ann.lambda);
  ASSERT_EQ(trimmed.num_levels(), lambda + 1);

  size_t slots = 0;
  for (uint32_t level = 0; level < lambda; ++level) {
    const LevelSets& lvl = trimmed.UsefulLevel(level);
    for (uint32_t pos = 0; pos < lvl.size(); ++pos, ++slots) {
      const uint32_t v = lvl.vertex(pos);
      EXPECT_EQ(index.SlotAt(level, v), pos);

      auto cand = trimmed.CandidatesAt(level, pos);
      ASSERT_FALSE(cand.empty()) << "useful vertex without candidates";
      for (size_t i = 0; i < cand.size(); ++i) {
        EXPECT_EQ(cand[i].dst, inst.db.dst(cand[i].edge));
        EXPECT_EQ(cand[i].label, inst.db.edge(cand[i].edge).label);
        EXPECT_EQ(inst.db.src(cand[i].edge), v);
        if (i > 0) {
          EXPECT_LT(snap.tgt_idx(cand[i - 1].edge),
                    snap.tgt_idx(cand[i].edge));
        }
        // SeekGe on a member is exact.
        EXPECT_EQ(index.SeekGe(level, pos, cand[i].edge), i);
      }

      // SeekGe on *any* out-edge of v is the first candidate at-or-after
      // it; on any other edge it is kNoSlot.
      for (uint32_t e = 0; e < inst.db.num_edges(); ++e) {
        const uint32_t c = index.SeekGe(level, pos, e);
        if (inst.db.src(e) != v) {
          EXPECT_EQ(c, kNoSlot) << "edge " << e;
          continue;
        }
        ASSERT_LE(c, cand.size());
        const uint32_t key = snap.tgt_idx(e);
        for (uint32_t i = 0; i < c; ++i)
          EXPECT_LT(snap.tgt_idx(cand[i].edge), key);
        if (c < cand.size()) {
          EXPECT_GE(snap.tgt_idx(cand[c].edge), key);
        }
      }
    }
  }
  EXPECT_GT(slots, 0u);

  // Level lambda (the target's level) has no slots; neither do vertices
  // useful nowhere at a level.
  EXPECT_EQ(index.SlotAt(lambda, inst.target), kNoSlot);
  EXPECT_EQ(index.SlotAt(0, inst.target), kNoSlot);
}

// The index holds nothing sized by the graph: embedding the same answer
// core in 64x more noise leaves everything but the trimmed structure
// byte-identical. Only the source's 8 entry edges touch the noise, and
// they are in the source's rank array at both sizes.
TEST(ResumableIndexTest, RankArraysDoNotGrowWithNoise) {
  std::vector<size_t> rank_bytes;
  for (uint32_t n : {1024u, 65536u}) {
    Instance inst = EmbedInNoise(BubbleChain(12, 2), n / 4 + 1, n, 41);
    Snapshot snap = inst.db.Freeze();
    Annotation ann =
        Annotate(snap, StaircaseNfa(1, 2), inst.source, inst.target);
    ASSERT_TRUE(ann.reachable());
    ResumableIndex index(snap, ann);
    rank_bytes.push_back(index.ApproxBytes() - index.trimmed().ApproxBytes());
  }
  EXPECT_EQ(rank_bytes[0], rank_bytes[1]);
}

// ------------------------------------------------------- adversarial

// Fixture: labels a/b, query (a b | b a). s -e0:a,e1:b-> m; m -e2:b,
// e3:a-> t, plus a dead-end b-edge e4 out of m. Answers: [e0, e2] and
// [e1, e3]. [e0, e3] spells "a a": every edge is a candidate but the
// reachable-run set dies at the last level. [e0, e4] uses an edge the
// trimming dropped (its dst never reaches the target). Members
// initialize in declaration order, so ann/index see the finished
// instance; ids are deterministic (vertices s=0, m=1, t=2, x=3 and
// edges e0..e4 = 0..4 by insertion order).
struct AdversarialFixture {
  static constexpr uint32_t e0 = 0, e1 = 1, e2 = 2, e3 = 3, e4 = 4;

  Instance inst = MakeInstance();
  Nfa query = MakeQuery();
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ResumableIndex index{snap, ann};

  static Instance MakeInstance() {
    Instance inst;
    uint32_t a = inst.db.labels().Intern("a");
    uint32_t b = inst.db.labels().Intern("b");
    uint32_t s = inst.db.AddVertex();
    uint32_t m = inst.db.AddVertex();
    uint32_t t = inst.db.AddVertex();
    uint32_t x = inst.db.AddVertex();  // dead end
    inst.source = s;
    inst.target = t;
    inst.db.AddEdge(s, a, m);  // e0
    inst.db.AddEdge(s, b, m);  // e1
    inst.db.AddEdge(m, b, t);  // e2
    inst.db.AddEdge(m, a, t);  // e3
    inst.db.AddEdge(m, b, x);  // e4
    return inst;
  }

  static Nfa MakeQuery() {
    Nfa query(4);  // 0 -a-> 1 -b-> 3, 0 -b-> 2 -a-> 3; a = 0, b = 1
    query.AddInitial(0);
    query.AddFinal(3);
    query.AddTransition(0, 0u, 1);
    query.AddTransition(1, 1u, 3);
    query.AddTransition(0, 1u, 2);
    query.AddTransition(2, 0u, 3);
    return query;
  }
};

// Sanity: the fixture's honest answers round-trip through the full
// cross-oracle harness and come out in the expected order.
TEST(ResumableAdversarialTest, FixtureAnswersAreSane) {
  AdversarialFixture fx;
  ExpectResumableMatchesStateful(fx.inst, fx.query, "ab-or-ba");
  ResumableEnumerator en(fx.ann, fx.index, fx.inst.source, fx.inst.target);
  WalkSeq answers = Drain(en);
  ASSERT_EQ(answers, (WalkSeq{{fx.e0, fx.e2}, {fx.e1, fx.e3}}));
}

// Every build type: a non-answer walk is client-echoed input, so it is
// rejected with a status, never an abort — SeekAfter returns false and
// the enumerator invalidates.
TEST(ResumableAdversarialTest, RejectsNonAnswersInRelease) {
  AdversarialFixture fx;
  auto expect_rejected = [&](std::vector<uint32_t> edges,
                             const char* what) {
    SCOPED_TRACE(what);
    ResumableEnumerator en(fx.ann, fx.index, fx.inst.source,
                           fx.inst.target);
    Walk w;
    w.edges = std::move(edges);
    EXPECT_FALSE(en.SeekAfter(w));
    EXPECT_FALSE(en.Valid());
  };
  expect_rejected({fx.e0}, "wrong length: too short");
  expect_rejected({fx.e0, fx.e2, fx.e3}, "wrong length: too long");
  expect_rejected({}, "wrong length: empty");
  expect_rejected({fx.e0, fx.e3}, "dead reachable-run set (word aa)");
  expect_rejected({fx.e1, fx.e2}, "dead reachable-run set (word bb)");
  expect_rejected({fx.e0, fx.e4}, "edge trimmed away (dead-end dst)");
  expect_rejected({fx.e2, fx.e3}, "edge of the wrong vertex at level 0");
  expect_rejected({fx.e0, 1000000}, "garbage edge id");
  // Edge ids just past and far past the shared LabelIndex: the seek
  // must bounds-check them, not read past its rank map.
  expect_rejected({fx.e0, static_cast<uint32_t>(fx.snap.num_edges())},
                  "edge id one past the end");
  expect_rejected({fx.e0, UINT32_MAX}, "edge id UINT32_MAX");
  expect_rejected({UINT32_MAX, fx.e2}, "edge id UINT32_MAX at level 0");

  // A rejected seek must not wedge the enumerator: a valid SeekAfter
  // right after still works (memorylessness).
  ResumableEnumerator en(fx.ann, fx.index, fx.inst.source, fx.inst.target);
  Walk bad;
  bad.edges = {fx.e0, fx.e3};
  EXPECT_FALSE(en.SeekAfter(bad));
  Walk first;
  first.edges = {fx.e0, fx.e2};
  EXPECT_TRUE(en.SeekAfter(first));
  ASSERT_TRUE(en.Valid());
  EXPECT_EQ(en.walk().edges, (std::vector<uint32_t>{fx.e1, fx.e3}));
}

// -------------------------------------------------- delay accounting

// Theorem 18 as an operation-count proxy (CI-stable, unlike wall
// clock): on StarOfChains(d, 32, 2) the SeekAfter chain's per-output
// work — SeekGe repositionings + queue cells examined + delta-row ORs
// — must stay flat as the in-degree d sweeps 4 -> 256. The linear
// re-advance strawman is Theta(d) per output on this family.
TEST(ResumableDelayTest, SeekAfterChainOpsStayFlatInInDegree) {
  constexpr uint32_t kDepth = 32;
  std::vector<double> per_output;
  for (uint32_t d : {4u, 16u, 64u, 256u}) {
    Instance inst = StarOfChains(d, kDepth, 2);
    Nfa query = StaircaseNfa(1, 2);
    Snapshot snap = inst.db.Freeze();
    Annotation ann = Annotate(snap, query, inst.source, inst.target);
    ResumableIndex index(snap, ann);
    ResumableEnumerator en(ann, index, inst.source, inst.target);
    ASSERT_TRUE(en.Valid());
    Walk prev = en.walk();
    uint64_t outputs = 1;
    en.ResetStats();
    while (en.SeekAfter(prev) && en.Valid()) {
      prev = en.walk();
      ++outputs;
    }
    ASSERT_EQ(outputs, d) << "StarOfChains must have one answer per chain";
    // outputs - 1 successful SeekAfter steps plus the final one that
    // detects the end; average per recomputed output.
    per_output.push_back(static_cast<double>(en.stats().total()) /
                         static_cast<double>(outputs - 1));
  }
  double lo = *std::min_element(per_output.begin(), per_output.end());
  double hi = *std::max_element(per_output.begin(), per_output.end());
  EXPECT_GT(lo, 0.0);
  EXPECT_LE(hi, lo * 1.25)
      << "per-output SeekAfter work grew with the in-degree (lo=" << lo
      << ", hi=" << hi << ")";
}

// The stats themselves: a single SeekAfter recomputation is O(lambda)
// seeks and cells on a chain family — pin the constants loosely so a
// regression to linear reseek (or per-level rescans) trips it.
TEST(ResumableDelayTest, SingleSeekAfterOpBudget) {
  constexpr uint32_t kDepth = 16;
  Instance inst = StarOfChains(8, kDepth, 2);
  Nfa query = StaircaseNfa(1, 2);
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ResumableIndex index(snap, ann);
  ResumableEnumerator en(ann, index, inst.source, inst.target);
  ASSERT_TRUE(en.Valid());
  Walk first = en.walk();
  en.ResetStats();
  ASSERT_TRUE(en.SeekAfter(first));
  ASSERT_TRUE(en.Valid());
  EXPECT_EQ(en.stats().seeks, kDepth);  // one SeekGe per level, exactly
  // Guided run + one DFS step: a small multiple of lambda, never
  // lambda * in-degree (= 128 here) or lambda^2.
  EXPECT_LE(en.stats().cells, 2 * kDepth);
  EXPECT_LE(en.stats().row_ors, 4 * kDepth);
}

}  // namespace
}  // namespace dsw
