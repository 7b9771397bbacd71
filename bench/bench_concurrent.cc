// E10: the concurrent query engine under a Zipfian query mix.
//
// One frozen snapshot, a handful of prepared queries whose popularity
// follows a Zipf(1.0) law, and a stream of sessions pumped to
// exhaustion in batches through the worker pool — the headline numbers
// are aggregate throughput (answers_per_sec, real-time) and the p99 of
// the enqueue-to-first-answer latency (p99_first_answer_ns) as the
// thread count sweeps 1 -> 4. Scaling answers_per_sec by ~the thread
// count is the acceptance property (checked in CI, where multiple cores
// actually exist; on a 1-core host the curve is flat by construction).
//
// cpu_time is measured process-wide (MeasureProcessCPUTime), so the
// regression guard tracks total work per answer — a number that stays
// comparable across thread counts — while iteration leveling uses real
// time (UseRealTime).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <future>
#include <random>
#include <utility>
#include <vector>

#include "core/annotate.h"
#include "core/database.h"
#include "core/nfa.h"
#include "core/resumable_index.h"
#include "engine/engine.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

// Zipf(s) over ranks 0..n-1 via inverse-CDF lookup.
class Zipf {
 public:
  Zipf(size_t n, double s, uint64_t seed) : rng_(seed) {
    cdf_.reserve(n);
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }

  size_t operator()() {
    double u = dist_(rng_);
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> dist_{0.0, 1.0};
  std::vector<double> cdf_;
};

// A BubbleChain core (2^10 answers, lambda = 20) drowned in noise, and
// a query mix of different automaton shapes over it. Shared by every
// thread-count arm so the work per session is identical.
struct Workload {
  Instance inst;
  Snapshot snap;
  std::vector<Nfa> queries;

  Workload() : inst(EmbedInNoise(BubbleChain(10, 2), 200, 800, 33)) {
    snap = inst.db.Freeze();
    queries.push_back(StaircaseNfa(2, 2));  // rank 0: the hot query
    queries.push_back(StaircaseNfa(1, 2));
    queries.push_back(CompleteNfa(3, 2));
    queries.push_back(StaircaseNfa(3, 2));
  }
};

Workload& SharedWorkload() {
  static Workload w;
  return w;
}

// Drives kSessions Zipf-picked sessions to exhaustion, keeping up to
// 2 x threads pump futures in flight, and returns the answers counted.
uint64_t DriveSessions(QueryEngine& engine,
                       const std::vector<QueryId>& ids, uint64_t seed,
                       uint32_t threads) {
  constexpr size_t kSessions = 24;
  constexpr uint32_t kBatch = 64;
  Zipf zipf(ids.size(), 1.0, seed);
  uint64_t answers = 0;
  std::deque<std::pair<SessionId, std::future<PumpResult>>> inflight;
  size_t opened = 0;
  auto issue = [&] {
    if (opened >= kSessions) return;
    SessionId s = engine.OpenSession(ids[zipf()]);
    inflight.emplace_back(s, engine.PumpAsync(s, kBatch));
    ++opened;
  };
  for (size_t i = 0; i < 2 * threads && opened < kSessions; ++i) issue();
  while (!inflight.empty()) {
    auto [s, fut] = std::move(inflight.front());
    inflight.pop_front();
    PumpResult r = fut.get();
    answers += r.walks.size();
    if (r.status == PumpStatus::kOk)
      inflight.emplace_back(s, engine.PumpAsync(s, kBatch));
    else
      issue();
  }
  return answers;
}

void BM_Engine_ZipfMix(benchmark::State& state) {
  Workload& w = SharedWorkload();
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  QueryEngine engine(threads);
  engine.InstallSnapshot(w.snap);
  std::vector<QueryId> ids;
  for (const Nfa& q : w.queries)
    ids.push_back(engine.Prepare(q, w.inst.source, w.inst.target));

  uint64_t answers = 0;
  uint64_t seed = 1;
  auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    answers += DriveSessions(engine, ids, seed++, threads);
  }
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

  state.counters["threads"] = static_cast<double>(threads);
  state.counters["answers"] = static_cast<double>(answers);
  // Aggregate throughput over the whole run, wall-clock — the scaling
  // headline. (A kIsRate counter would divide by *cpu* time, which is
  // process-wide here and therefore ~constant across thread counts.)
  state.counters["answers_per_sec"] =
      secs > 0 ? static_cast<double>(answers) / secs : 0;

  std::vector<int64_t> lat = engine.FirstAnswerLatenciesNs();
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    state.counters["p50_first_answer_ns"] =
        static_cast<double>(lat[lat.size() / 2]);
    state.counters["p99_first_answer_ns"] =
        static_cast<double>(lat[std::min(lat.size() - 1,
                                         lat.size() * 99 / 100)]);
  }

  // Kernel-tier mix of the prepared plans — which kernel path the
  // concurrent workload actually exercised.
  EngineStats stats = engine.Stats();
  state.counters["tier_single_word"] =
      static_cast<double>(stats.tier_single_word);
  state.counters["tier_general"] = static_cast<double>(stats.tier_general);
}
BENCHMARK(BM_Engine_ZipfMix)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

// Prepare cost in isolation: annotate + trim + queue build for the hot
// query against the already-frozen snapshot — the per-query setup the
// engine amortizes across sessions. Built directly (same work as
// QueryEngine::Prepare) so iterations don't accumulate prepared queries
// in an engine's table.
void BM_Engine_PrepareHotQuery(benchmark::State& state) {
  Workload& w = SharedWorkload();
  for (auto _ : state) {
    Annotation ann =
        Annotate(w.snap, w.queries[0], w.inst.source, w.inst.target);
    ResumableIndex index(w.snap, ann);
    benchmark::DoNotOptimize(index.empty());
  }
}
BENCHMARK(BM_Engine_PrepareHotQuery)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dsw
