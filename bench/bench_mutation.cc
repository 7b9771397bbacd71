// E13: incremental maintenance under edge insertions. Measures the cost
// of bringing a prepared query's structures (Annotation + TrimmedIndex +
// ResumableIndex) up to date after a batch of k inserted edges, as a
// function of the mutation rate k / |E| (permille), two ways:
//
//   DeltaRepair  — DeltaAnnotate wave + DeltaTrim patch + resumable
//                  re-layout (the incremental InstallSnapshot path of
//                  the engine; its DeltaContext is an O(1) view over the
//                  database's live in-neighbor lists)
//   FullRebuild  — Annotate product BFS + full backward sweep + layout
//                  (what every mutation used to cost)
//
// The inserted edges land in the noise region of the instance — the
// headline use case: writes that touch parts of the graph away from the
// query's answer set, where the wave's touched region stays small. Both
// arms apply identical insertions (same seed), and the repair arm times
// everything the engine's upgrade path would run per plan. The CI
// perf-smoke job gates DeltaRepair being >3x faster than FullRebuild at
// permille = 10 (a 1% mutation rate).
//
// The freeze arms price the other half of a write, Database::Freeze(),
// on a graph the size of e2ebench's (a LayeredGraph inside ~24K noise
// vertices, ~113K edges):
//
//   FreezeScratch      — the first freeze: every vertex grouped
//   FreezeAfterInsert  — a freeze after k inserted edges, spliced from
//                        the previous index (untouched vertices copied,
//                        only the k sources regrouped)
//
// CI gates FreezeScratch / FreezeAfterInsert/permille:1 >= 3.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <random>

#include "core/annotate.h"
#include "core/database.h"
#include "core/delta_annotate.h"
#include "core/resumable_index.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

struct Fixture {
  Instance pristine;
  uint32_t noise_first;
  uint32_t noise_count;
  Nfa query;

  // The shape matters: noise never re-enters the core (EmbedInNoise
  // wires source -> noise and noise -> noise only), so the trimmed
  // useful set stays core-sized while the *annotation* spans the whole
  // noise region — and the wide staircase keeps the per-vertex state
  // sets dense, which the from-scratch product BFS pays for bit by bit
  // on every level while the repair's word-level fills and copies do
  // not. That asymmetry, not a microbenchmark accident, is what the
  // >3x CI gate pins.
  Fixture()
      : pristine(BubbleChain(16, 2)), query(StaircaseNfa(31, 2)) {
    noise_first = pristine.db.num_vertices();
    noise_count = 1500;
    pristine = EmbedInNoise(pristine, noise_count, 6000, 33);
  }

  static const Fixture& Get() {
    static Fixture fx;
    return fx;
  }

  uint32_t NumInserts(int64_t permille) const {
    auto k = static_cast<uint32_t>(pristine.db.num_edges() * permille / 1000);
    return k == 0 ? 1 : k;
  }

  // Applies the deterministic insertion batch to \p db (noise-region
  // endpoints; identical across arms and iterations).
  void Mutate(Database* db, uint32_t k) const {
    std::mt19937_64 rng(4242);
    auto noise_vertex = [&] {
      return noise_first + static_cast<uint32_t>(rng() % noise_count);
    };
    for (uint32_t i = 0; i < k; ++i)
      db->AddEdge(noise_vertex(), static_cast<uint32_t>(rng() % 2),
                  noise_vertex());
  }
};

void BM_Mutation_DeltaRepair(benchmark::State& state) {
  const Fixture& fx = Fixture::Get();
  const uint32_t k = fx.NumInserts(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Database db = fx.pristine.db;
    Snapshot s0 = db.Freeze();
    const uint64_t prev_gen = s0.generation();
    Annotation ann =
        Annotate(s0, fx.query, fx.pristine.source, fx.pristine.target);
    TrimmedIndex trim(s0, ann);
    fx.Mutate(&db, k);
    Snapshot ns = db.Freeze();
    EdgeDelta delta = ns.DeltaFrom(prev_gen);
    state.ResumeTiming();

    DeltaContext ctx(ns);
    AnnotationRepair rep = DeltaAnnotate(ns, delta, &ann);
    TrimmedIndex repaired = DeltaTrim(ns, ann, trim, rep, delta, ctx);
    ResumableIndex idx(ns, ann, std::move(repaired));
    benchmark::DoNotOptimize(idx);
  }
  state.counters["inserted_edges"] = k;
}
BENCHMARK(BM_Mutation_DeltaRepair)
    ->ArgName("permille")
    ->Arg(1)
    ->Arg(10)
    ->Arg(50);

void BM_Mutation_FullRebuild(benchmark::State& state) {
  const Fixture& fx = Fixture::Get();
  const uint32_t k = fx.NumInserts(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Database db = fx.pristine.db;
    db.Freeze();
    fx.Mutate(&db, k);
    Snapshot ns = db.Freeze();
    state.ResumeTiming();

    Annotation ann =
        Annotate(ns, fx.query, fx.pristine.source, fx.pristine.target);
    ResumableIndex idx(ns, ann);
    benchmark::DoNotOptimize(idx);
  }
  state.counters["inserted_edges"] = k;
}
BENCHMARK(BM_Mutation_FullRebuild)
    ->ArgName("permille")
    ->Arg(1)
    ->Arg(10)
    ->Arg(50);

// An e2ebench-sized graph: a multi-labelled LayeredGraph inside a
// noise region (~24.5K vertices, ~113K edges).
struct FreezeFixture {
  Instance pristine;  // never frozen

  FreezeFixture() {
    LayeredGraphParams p;
    p.layers = 8;
    p.width = 64;
    p.num_labels = 2;
    p.extra_labels = 2;
    p.multi_label_p = 0.5;
    pristine = EmbedInNoise(LayeredGraph(p), 24000, 110000, 7);
  }

  static const FreezeFixture& Get() {
    static FreezeFixture fx;
    return fx;
  }
};

void BM_Mutation_FreezeScratch(benchmark::State& state) {
  const FreezeFixture& fx = FreezeFixture::Get();
  // Declared outside the loop so their teardown runs paused.
  Database db;
  Snapshot snap;
  for (auto _ : state) {
    state.PauseTiming();
    snap = Snapshot();
    db = fx.pristine.db;
    state.ResumeTiming();

    snap = db.Freeze();
    benchmark::DoNotOptimize(snap);
  }
  state.counters["edges"] = static_cast<double>(fx.pristine.db.num_edges());
}
BENCHMARK(BM_Mutation_FreezeScratch);

void BM_Mutation_FreezeAfterInsert(benchmark::State& state) {
  const FreezeFixture& fx = FreezeFixture::Get();
  Database frozen = fx.pristine.db;
  (void)frozen.Freeze();
  const uint32_t n = frozen.num_vertices();
  const auto k = std::max<uint32_t>(
      1, static_cast<uint32_t>(frozen.num_edges() * state.range(0) / 1000));
  Database db;
  Snapshot snap;
  for (auto _ : state) {
    state.PauseTiming();
    snap = Snapshot();
    db = frozen;  // shares the frozen index the splice reads
    std::mt19937_64 rng(4242);
    for (uint32_t i = 0; i < k; ++i)
      db.AddEdge(static_cast<uint32_t>(rng() % n),
                 static_cast<uint32_t>(rng() % 4),
                 static_cast<uint32_t>(rng() % n));
    state.ResumeTiming();

    snap = db.Freeze();
    benchmark::DoNotOptimize(snap);
  }
  state.counters["inserted_edges"] = k;
}
BENCHMARK(BM_Mutation_FreezeAfterInsert)->ArgName("permille")->Arg(1);

}  // namespace
}  // namespace dsw
