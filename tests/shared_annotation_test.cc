// The engine's shared annotations (engine/plan_cache.h
// AnnotationRegistry over core/annotate.h SourceAnnotation), pinned on
// their counters rather than on timings:
//
//  - One product BFS per (automaton, source) per generation, however
//    many targets are prepared and however their growths race
//    (EngineStats::annotations_built / annotation_grows); every page
//    still matches the single-threaded oracle. Run under TSan in CI,
//    the racing test doubles as the lock test of the growth path.
//  - One horizon repair per shared annotation per install
//    (annotations_repaired), after which every upgraded plan is
//    bit-identical to a from-scratch build on the new snapshot, and the
//    next generation's misses reuse the repaired annotation.
//  - PrepareBatch slices and Prepare plans of one source share one
//    registered annotation.
//  - Shared bytes are reported, and return to 0 once every plan is
//    released; with plan_cache_bytes = 0 nothing is shared and every
//    call runs its own BFS.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <latch>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "core/annotate.h"
#include "core/resumable_enumerator.h"
#include "core/resumable_index.h"
#include "core/trimmed_index.h"
#include "engine/engine.h"
#include "engine/plan_cache.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

using EdgeSeq = std::vector<std::vector<uint32_t>>;

EdgeSeq Oracle(const Snapshot& snap, const Nfa& query, uint32_t source,
               uint32_t target) {
  Annotation ann = Annotate(snap, query, source, target);
  ResumableIndex index(snap, ann);
  EdgeSeq out;
  for (ResumableEnumerator en(ann, index, source, target); en.Valid();
       en.Next())
    out.push_back(en.walk().edges);
  return out;
}

EdgeSeq DrainAll(QueryEngine& engine, QueryId q) {
  PumpResult r = engine.Drain(engine.OpenSession(q), 16);
  EXPECT_EQ(r.status, PumpStatus::kExhausted);
  EdgeSeq out;
  for (const Walk& w : r.walks) out.push_back(w.edges);
  return out;
}

void ExpectSameLevels(const std::vector<LevelSets>& got,
                      const std::vector<LevelSets>& want, size_t words) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].vertices(), want[i].vertices()) << "level " << i;
    for (size_t vi = 0; vi < want[i].size(); ++vi)
      ASSERT_EQ(std::memcmp(got[i].states(vi).words(),
                            want[i].states(vi).words(),
                            words * sizeof(uint64_t)),
                0)
          << "level " << i << " vertex " << want[i].vertex(vi);
  }
}

// Annotation, trimmed index (useful sets, candidates, B-list blocks)
// and enumeration order of \p plan against a from-scratch build.
void ExpectPlanIsFromScratch(const PreparedQuery& plan, const Snapshot& snap,
                             const Nfa& query) {
  Annotation ann = Annotate(snap, query, plan.source, plan.target);
  ASSERT_EQ(plan.ann.lambda, ann.lambda);
  const size_t words = ann.words_per_set();
  ExpectSameLevels(plan.ann.levels, ann.levels, words);

  TrimmedIndex want(snap, ann);
  const TrimmedIndex& got = plan.index.trimmed();
  ASSERT_EQ(got.num_levels(), want.num_levels());
  ASSERT_EQ(got.num_slots(), want.num_slots());
  for (uint32_t i = 0; i < want.num_levels(); ++i) {
    const LevelSets& w = want.UsefulLevel(i);
    ASSERT_EQ(got.UsefulLevel(i).vertices(), w.vertices());
    if (i + 1 == want.num_levels()) continue;
    for (size_t vi = 0; vi < w.size(); ++vi) {
      auto gc = got.CandidatesAt(i, vi);
      auto wc = want.CandidatesAt(i, vi);
      ASSERT_EQ(gc.size(), wc.size());
      for (size_t c = 0; c < wc.size(); ++c) {
        EXPECT_EQ(gc[c].edge, wc[c].edge);
        EXPECT_EQ(gc[c].next_pos, wc[c].next_pos);
      }
      TrimmedIndex::BList gb = got.BListAt(i, vi);
      TrimmedIndex::BList wb = want.BListAt(i, vi);
      ASSERT_EQ(gb.num_cand, wb.num_cand);
      ASSERT_EQ(std::memcmp(gb.nxt, wb.nxt,
                            wb.useful.Count() * (wb.num_cand + 1) *
                                sizeof(uint32_t)),
                0);
    }
  }
  EdgeSeq order;
  for (ResumableEnumerator en(plan.ann, plan.index, plan.source,
                              plan.target);
       en.Valid(); en.Next())
    order.push_back(en.walk().edges);
  EXPECT_EQ(order, Oracle(snap, query, plan.source, plan.target));
}

TEST(SharedAnnotationEngineTest, RacingSiblingTargetsRunOneBfs) {
  Instance inst = Grid(6, 6);
  Snapshot snap = inst.db.Freeze();
  const std::vector<Nfa> queries = {StaircaseNfa(1, 1), AnyKDfa(6, 1)};
  QueryEngine engine(2);
  engine.InstallSnapshot(snap);

  // Every vertex as a target, for both automata, four threads started
  // together on interleaved target lists: the growths race. Each list
  // puts its reachable targets first: an annotation lives only while a
  // (reachable) plan holds it, so an unreachable target asked before any
  // reachable one would build an annotation that dies with its Prepare.
  constexpr int kThreads = 4;
  const uint32_t n = snap.num_vertices();
  std::vector<std::vector<std::pair<size_t, uint32_t>>> work(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (bool reachable : {true, false})
      for (uint32_t v = static_cast<uint32_t>(t); v < n; v += kThreads)
        for (size_t qi = 0; qi < queries.size(); ++qi)
          if (Annotate(snap, queries[qi], inst.source, n - 1 - v)
                  .reachable() == reachable)
            work[t].emplace_back(qi, n - 1 - v);
  }
  std::vector<std::vector<QueryId>> ids(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (const auto& [qi, target] : work[t])
        ids[t].push_back(engine.Prepare(queries[qi], inst.source, target));
    });
  for (std::thread& th : threads) th.join();

  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.annotations_built, queries.size());  // one per automaton
  EXPECT_GE(stats.annotation_grows, queries.size());
  EXPECT_LE(stats.annotation_grows, stats.plan_cache.misses);
  EXPECT_EQ(stats.plan_cache.misses, 2u * n);
  EXPECT_GT(stats.shared_annotation_bytes, 0u);

  for (int t = 0; t < kThreads; ++t)
    for (size_t k = 0; k < work[t].size(); ++k) {
      const auto& [qi, target] = work[t][k];
      SCOPED_TRACE("target " + std::to_string(target));
      EXPECT_EQ(DrainAll(engine, ids[t][k]),
                Oracle(snap, queries[qi], inst.source, target));
    }
}

TEST(SharedAnnotationEngineTest, InstallRepairsEachSharedAnnotationOnce) {
  Instance inst = EmbedInNoise(BubbleChain(4, 2), 20, 60, 9);
  const std::vector<Nfa> queries = {StaircaseNfa(2, 2), StaircaseNfa(1, 2)};
  Snapshot snap = inst.db.Freeze();
  QueryEngine engine(2);
  engine.InstallSnapshot(snap);

  // Every target of both automata from one source, the real target
  // first: reachable plans hold the two shared annotations, unreachable
  // ones hold none.
  std::vector<QueryId> ids;
  std::vector<size_t> query_of;
  uint32_t reachable = 0;
  std::vector<uint32_t> targets = {inst.target};
  for (uint32_t t = 0; t < snap.num_vertices(); ++t)
    if (t != inst.target) targets.push_back(t);
  for (uint32_t t : targets)
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ids.push_back(engine.Prepare(queries[qi], inst.source, t));
      query_of.push_back(qi);
      if (engine.Plan(ids.back())->ann.reachable()) {
        ++reachable;
        EXPECT_NE(engine.Plan(ids.back())->shared, nullptr);
      } else {
        EXPECT_EQ(engine.Plan(ids.back())->shared, nullptr);
      }
    }
  ASSERT_EQ(engine.Stats().annotations_built, 2u);
  std::vector<int32_t> old_lambda;
  for (QueryId id : ids) old_lambda.push_back(engine.Plan(id)->ann.lambda);

  // Two inserts: one random, one shortcut that shrinks the target's
  // lambda (the full re-trim path).
  inst.db.AddEdge(inst.db.src(3), 1, inst.db.dst(7));
  inst.db.AddEdge(inst.source, 0, inst.target);
  Snapshot next = inst.db.Freeze();
  engine.InstallSnapshot(next);

  EngineStats after = engine.Stats();
  EXPECT_EQ(after.annotations_repaired, 2u);  // one per shared annotation
  EXPECT_EQ(after.annotations_built, 2u);     // no BFS at install
  EXPECT_EQ(after.plans_upgraded, reachable);
  uint32_t shrunk = 0;
  for (size_t k = 0; k < ids.size(); ++k) {
    std::shared_ptr<const PreparedQuery> plan = engine.Plan(ids[k]);
    if (plan == nullptr) continue;  // unreachable plans are dropped
    SCOPED_TRACE("target " + std::to_string(plan->target));
    EXPECT_EQ(plan->snap.generation(), next.generation());
    shrunk += plan->ann.lambda < old_lambda[k];
    ExpectPlanIsFromScratch(*plan, next, queries[query_of[k]]);
  }
  EXPECT_GT(shrunk, 0u);

  // The next generation's misses copy from the repaired annotations:
  // still no new BFS.
  for (uint32_t t = 0; t < next.num_vertices(); ++t)
    for (const Nfa& q : queries) {
      QueryId id = engine.Prepare(q, inst.source, t);
      EXPECT_EQ(DrainAll(engine, id), Oracle(next, q, inst.source, t));
    }
  EXPECT_EQ(engine.Stats().annotations_built, 2u);
}

TEST(SharedAnnotationEngineTest, BatchAndPrepareShareOneAnnotation) {
  Instance inst = Grid(5, 5);
  Nfa query = StaircaseNfa(1, 1);
  Snapshot snap = inst.db.Freeze();
  QueryEngine engine(2);
  engine.InstallSnapshot(snap);

  std::vector<QueryId> batch =
      engine.PrepareBatch(query, {0, 6}, inst.target);
  EXPECT_EQ(engine.Stats().annotations_built, 2u);
  QueryId single = engine.Prepare(query, 0, 12);
  QueryId other = engine.Prepare(query, 6, 18);
  EXPECT_EQ(engine.Stats().annotations_built, 2u);  // both joined
  EXPECT_EQ(engine.Plan(batch[0])->shared, engine.Plan(single)->shared);
  EXPECT_EQ(engine.Plan(batch[1])->shared, engine.Plan(other)->shared);
  EXPECT_NE(engine.Plan(batch[0])->shared, engine.Plan(batch[1])->shared);
  EXPECT_EQ(DrainAll(engine, single), Oracle(snap, query, 0, 12));
  EXPECT_EQ(DrainAll(engine, other), Oracle(snap, query, 6, 18));

  // A batch source whose annotation is registered copies its prefix.
  std::vector<QueryId> again = engine.PrepareBatch(query, {0, 6}, 24 - 1);
  EXPECT_EQ(engine.Stats().annotations_built, 2u);
  EXPECT_EQ(engine.Plan(again[0])->shared, engine.Plan(single)->shared);
  EXPECT_EQ(DrainAll(engine, again[1]), Oracle(snap, query, 6, 23));
}

TEST(SharedAnnotationEngineTest, SharedBytesReturnToZeroWhenPlansGo) {
  Instance inst = Grid(5, 5);
  Instance other = Grid(3, 3);
  Nfa query = StaircaseNfa(1, 1);
  QueryEngine engine(2);
  engine.InstallSnapshot(inst.db.Freeze());
  std::vector<QueryId> ids;
  for (uint32_t t = 1; t < 25; t += 3)
    ids.push_back(engine.Prepare(query, 0, t));
  ids.push_back(engine.Prepare(query, 24, 0));  // unreachable: holds none
  EXPECT_GT(engine.Stats().shared_annotation_bytes, 0u);
  // Not charged to the cache budget: the cache holds plan bytes only.
  size_t plan_bytes = 0;
  for (QueryId id : ids) plan_bytes += engine.Plan(id)->ApproxBytes();
  EXPECT_EQ(engine.Stats().plan_cache.bytes_used, plan_bytes);

  // Another database: the cache drops every plan and every slot lets go
  // of its plan, so the shared annotations die with them.
  engine.InstallSnapshot(other.db.Freeze());
  EXPECT_EQ(engine.Stats().shared_annotation_bytes, 0u);
  engine.Prepare(query, other.source, other.target);
  EXPECT_GT(engine.Stats().shared_annotation_bytes, 0u);
}

TEST(SharedAnnotationEngineTest, ZeroBudgetRunsAFullBfsPerCall) {
  Instance inst = Grid(4, 4);
  Nfa query = StaircaseNfa(1, 1);
  Snapshot snap = inst.db.Freeze();
  EngineOptions opts;
  opts.num_threads = 1;
  opts.plan_cache_bytes = 0;
  QueryEngine engine(opts);
  engine.InstallSnapshot(snap);
  for (uint32_t t = 1; t < 16; ++t) {
    QueryId id = engine.Prepare(query, inst.source, t);
    EXPECT_EQ(engine.Plan(id)->shared, nullptr);
    EXPECT_EQ(DrainAll(engine, id), Oracle(snap, query, inst.source, t));
  }
  engine.Prepare(query, inst.source, inst.target);
  engine.PrepareBatch(query, {0, 1, 2}, inst.target);
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.annotations_built, 15u + 1u + 3u);
  EXPECT_EQ(stats.annotation_grows, 0u);
  EXPECT_EQ(stats.shared_annotation_bytes, 0u);
  // Out-of-range endpoints build nothing at all.
  engine.Prepare(query, inst.source, 99);
  engine.Prepare(query, 99, inst.target);
  EXPECT_EQ(engine.Stats().annotations_built, 19u);
}

TEST(SharedAnnotationEngineTest, OutOfRangeEndpointsNeverShare) {
  Instance inst = Grid(4, 4);
  Nfa query = StaircaseNfa(1, 1);
  QueryEngine engine(1);
  engine.InstallSnapshot(inst.db.Freeze());
  QueryId bad_target = engine.Prepare(query, inst.source, 1000);
  QueryId bad_source = engine.Prepare(query, 1000, inst.target);
  std::vector<QueryId> batch =
      engine.PrepareBatch(query, {1000, 2000}, inst.target);
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.annotations_built, 0u);
  EXPECT_EQ(stats.annotation_grows, 0u);
  EXPECT_EQ(stats.shared_annotation_bytes, 0u);
  for (QueryId id : {bad_target, bad_source, batch[0], batch[1]}) {
    EXPECT_FALSE(engine.Plan(id)->ann.reachable());
    EXPECT_EQ(engine.Plan(id)->shared, nullptr);
    EXPECT_TRUE(DrainAll(engine, id).empty());
  }
}

}  // namespace
}  // namespace dsw
