// E9 (Corollary 20 / Sections 5.1-5.2): regex queries via Thompson vs
// Glushkov.
//
// The family (l0|...|l_{m-1})* l0 (l0|...|l_{m-1})* has |R| = Theta(m);
// Thompson yields O(m) transitions (with epsilon), Glushkov O(m^2).
// Epsilon handling is free (Section 5.1), so the Thompson pipeline's
// preprocessing and delay grow linearly while Glushkov's grow
// quadratically — the crossover the paper predicts.

#include <benchmark/benchmark.h>

#include <cassert>
#include <string>

#include "automaton/glushkov.h"
#include "automaton/thompson.h"
#include "bench_util.h"
#include "core/annotate.h"
#include "core/resumable_index.h"
#include "regex/regex_parser.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

Instance RegexInstance(uint32_t m) {
  // Layered topology guarantees source-target reachability (lambda = 7)
  // for every alphabet size.
  LayeredGraphParams params;
  params.layers = 6;
  params.width = 24;
  params.edges_per_vertex = 4;
  params.num_labels = m;
  params.seed = 57;
  return LayeredGraph(params);
}

template <bool kThompson>
void RunRegexPipeline(benchmark::State& state) {
  uint32_t m = static_cast<uint32_t>(state.range(0));
  Instance inst = RegexInstance(m);
  auto ast = ParseRegex(ContainsL0Regex(m));
  assert(ast.ok());
  // Label interning is not a structural mutation, so recompiling the
  // regex inside the timed loop never stales the snapshot.
  Snapshot snap = inst.db.Freeze();
  bench::DelayProfile profile;
  size_t transitions = 0;
  for (auto _ : state) {
    LabelDictionary* dict = inst.db.mutable_dict();
    Nfa nfa = kThompson ? ThompsonNfa(*ast.value(), dict)
                        : GlushkovNfa(*ast.value(), dict);
    transitions = nfa.num_transitions() + nfa.num_epsilon_transitions();
    Annotation ann = Annotate(snap, nfa, inst.source, inst.target);
    ResumableIndex index(snap, ann);
    ResumableEnumerator en(ann, index, inst.source, inst.target);
    profile = bench::MeasureDelays(&en);
  }
  bench::ReportDelays(state, profile);
  state.counters["regex_atoms"] = static_cast<double>(2 * m + 1);
  state.counters["nfa_transitions"] = static_cast<double>(transitions);
}

void BM_Regex_ThompsonPipeline(benchmark::State& state) {
  RunRegexPipeline<true>(state);
}
BENCHMARK(BM_Regex_ThompsonPipeline)->RangeMultiplier(2)->Range(2, 64)
    ->Unit(benchmark::kMillisecond);

void BM_Regex_GlushkovPipeline(benchmark::State& state) {
  RunRegexPipeline<false>(state);
}
BENCHMARK(BM_Regex_GlushkovPipeline)->RangeMultiplier(2)->Range(2, 64)
    ->Unit(benchmark::kMillisecond);

// Translation cost alone (Theorem 19: Thompson runs in O(|R|)).
template <bool kThompson>
void RunTranslationOnly(benchmark::State& state) {
  uint32_t m = static_cast<uint32_t>(state.range(0));
  auto ast = ParseRegex(ContainsL0Regex(m));
  assert(ast.ok());
  LabelDictionary dict;
  for (uint32_t i = 0; i < m; ++i) {
    std::string name("l");
    name += std::to_string(i);
    dict.Intern(name);
  }
  for (auto _ : state) {
    Nfa nfa = kThompson ? ThompsonNfa(*ast.value(), &dict)
                        : GlushkovNfa(*ast.value(), &dict);
    benchmark::DoNotOptimize(nfa.num_transitions());
  }
}

void BM_Regex_ThompsonTranslation(benchmark::State& state) {
  RunTranslationOnly<true>(state);
}
BENCHMARK(BM_Regex_ThompsonTranslation)->RangeMultiplier(2)->Range(2, 128);

void BM_Regex_GlushkovTranslation(benchmark::State& state) {
  RunTranslationOnly<false>(state);
}
BENCHMARK(BM_Regex_GlushkovTranslation)->RangeMultiplier(2)->Range(2, 128);

}  // namespace
}  // namespace dsw
