// Concurrent query engine over immutable snapshots.
//
// The single-writer/many-reader split of core/database.h made the whole
// read path (Annotation, TrimmedIndex, ResumableIndex, the enumerators)
// free of lazy work; this engine is the scheduling layer on top:
//
//  - InstallSnapshot() publishes the Snapshot queries run against; the
//    control thread owns mutation and freezing, workers only ever see
//    sealed snapshots. Installing also invalidates the plan cache's
//    entries from older generations.
//  - Prepare() resolves a query's prepared structure (Annotation +
//    ResumableIndex) through the shared PlanCache (engine/plan_cache.h):
//    repeated (automaton, source, target) shapes hit the cached
//    structure with zero annotate/trim work; misses build once —
//    concurrent misses on one key build once total (single-flight) —
//    and the result is shared (read-only) by every session and worker.
//    A miss runs no product BFS of its own: it copies its prefix out of
//    the (automaton, source)'s shared SourceAnnotation (one BFS per
//    source per generation, grown to the deepest target asked for) and
//    builds only trim and queue layout.
//  - PrepareBatch() prepares one query from MANY sources via
//    block-replicated multi-source product BFSs (AnnotateMultiSource,
//    kBatchSourcesPerBfs sources at a time), so the per-source plans
//    share one annotate run's work; each reachable slice seeds its
//    source's shared annotation.
//  - PrepareRegex() goes in at the source level: parse, canonicalize
//    (regex/canonical.h), pick Thompson vs Glushkov per query from the
//    E9 size heuristic (automaton/frontend.h), then Prepare — so
//    textually different but equivalent patterns hit one cache entry.
//  - OpenSession()/Pump() run enumeration in batches on the worker
//    pool. A session is a *parked memoryless cursor*: between pumps the
//    engine stores only (plan slot, last answer) — Theorem 18's
//    SeekAfter recomputes the position from the last answer alone, so a
//    session can resume on ANY worker thread, not just the one that
//    produced the previous batch.
//  - Installing a new snapshot retires the sessions (and prepared
//    queries) pinned to an older generation: their next pump returns
//    PumpStatus::kRetired without touching the stale index — the loud
//    generation assert stays as the misuse backstop, the engine's
//    version check is the graceful path. Every QueryId and session
//    resolving to one plan shares one engine-side *slot*, so an install
//    that delta-repairs a plan re-points its slot once, whatever the
//    number of sessions on it, and a slot whose plan was not repaired
//    lets go of it.
//  - Stats() exposes the cache and scheduling counters (hits, misses,
//    evictions, single-flight waits, session retirements, front-end
//    choices) for tests and benchmarks to assert on.
//
// Workers keep a small per-thread LRU cache of ResumableEnumerators
// keyed by prepared query (EngineOptions::worker_cache_entries), so
// steady-state pumping over the hot query set allocates nothing: a
// fresh session Rewind()s the cached enumerator, a parked one
// SeekAfter()s. Sessions are memoryless, so an evicted enumerator costs
// only a rebuild on the next pump, never a wrong resume.
//
// Thread-safety: every public method is safe to call from any thread.
// The Database itself must only be mutated while no Prepare/Pump runs
// against its current snapshot (mutate, Freeze(), InstallSnapshot() is
// the intended sequence, all on the control thread).

#ifndef DSW_ENGINE_ENGINE_H_
#define DSW_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "automaton/frontend.h"
#include "core/database.h"
#include "core/nfa.h"
#include "core/resumable_index.h"
#include "core/walk.h"
#include "engine/plan_cache.h"

namespace dsw {

using QueryId = uint32_t;
using SessionId = uint32_t;

/// An id the engine never hands out: what Prepare returns while no
/// snapshot is installed. Sessions opened on it pump kRetired.
inline constexpr QueryId kNoQuery = ~QueryId{0};

enum class PumpStatus : uint8_t {
  kOk,         // batch filled; more answers may remain
  kExhausted,  // enumeration complete (this batch may still hold walks)
  kRetired,    // pinned to a retired snapshot generation; no walks
  kBusy,       // a pump for this session is already in flight
};

struct PumpResult {
  PumpStatus status = PumpStatus::kOk;
  std::vector<Walk> walks;
};

struct EngineOptions {
  uint32_t num_threads = 1;
  /// Plan cache byte budget (approximate, PreparedQuery::ApproxBytes).
  /// 0 disables cross-query caching: every Prepare builds from scratch
  /// — the benchmark's cold arm.
  size_t plan_cache_bytes = size_t{64} << 20;
  /// Per-worker enumerator LRU capacity (clamped to >= 1). Bounds the
  /// per-thread memory across distinct prepared queries; evicted
  /// enumerators are rebuilt on demand (sessions are memoryless).
  uint32_t worker_cache_entries = 8;
};

/// Observability counters; a consistent point-in-time copy via Stats().
struct EngineStats {
  PlanCacheStats plan_cache;
  uint64_t sessions_retired = 0;        // pumps rejected on stale snapshots
  uint64_t plans_upgraded = 0;          // plans delta-repaired at install
  uint64_t sessions_upgraded = 0;       // parked sessions that survived one
  uint64_t worker_cache_evictions = 0;  // enumerators dropped by the LRU cap
  uint64_t frontend_thompson = 0;       // PrepareRegex picks, per front-end
  uint64_t frontend_glushkov = 0;
  // Kernel of each resolved Prepare/PrepareBatch plan: single-word when
  // its state sets fit one uint64_t (ann.words_per_set() == 1), general
  // otherwise. Cache hits count too, so the two sum to the number of
  // plans handed out, not the number built.
  uint64_t tier_simple = 0;  // always 0: the simple tier is retired;
                             // kept so readers of the field compile
  uint64_t tier_single_word = 0;
  uint64_t tier_general = 0;
  // Shared annotations (core/annotate.h SourceAnnotation). built counts
  // product BFSs rooted at a source: a shared annotation Prepare
  // registered, a source of a PrepareBatch BFS, and with sharing off
  // (plan_cache_bytes == 0) every unshared build. grows counts builds
  // that relaxed further levels of a shared annotation; repaired counts
  // install-time horizon repairs, one per shared annotation.
  uint64_t annotations_built = 0;
  uint64_t annotation_grows = 0;
  uint64_t annotations_repaired = 0;
  // Bytes of the live shared annotations; not charged to the plan
  // cache's budget.
  size_t shared_annotation_bytes = 0;
};

/// Status-or result of PrepareRegex.
struct PrepareRegexResult {
  bool ok = false;
  QueryId id = 0;
  Frontend frontend = Frontend::kThompson;
  std::string error;  // parse failure; set iff !ok
};

class QueryEngine {
 public:
  explicit QueryEngine(const EngineOptions& options);
  /// Starts \p num_threads workers (>= 1 enforced); defaults otherwise.
  explicit QueryEngine(uint32_t num_threads)
      : QueryEngine(EngineOptions{.num_threads = num_threads}) {}
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Publishes the snapshot subsequent Prepare() calls build against,
  /// and invalidates plan cache entries of any other (db, generation).
  /// Sessions and prepared queries of any older install are retired:
  /// their next pump returns PumpStatus::kRetired.
  ///
  /// A null snapshot changes nothing.
  ///
  /// Incremental path: when the new snapshot is a later generation of
  /// the SAME database and its delta against the previous install is a
  /// known insert-only suffix (Snapshot::DeltaFrom), the previous
  /// generation's plan-cache entries are *upgraded* and re-inserted
  /// under the new generation's keys instead of dropped: each shared
  /// annotation the plans hold is repaired once by the bounded
  /// re-relaxation wave (horizon mode) and registered for the new
  /// generation, then every plan takes its new prefix from it, gets its
  /// trimmed/B-list structure patched and its rank arrays rebuilt. Any
  /// other snapshot (one of another Database, or an unknown delta)
  /// drops every cached plan.
  /// The slot of each repaired plan is re-pointed at the upgrade, which
  /// moves every QueryId and session on it at once. A parked session
  /// survives when its plan's enumeration order is an anchor across the
  /// delta (lambda unchanged: old answers keep their relative order, so
  /// one SeekAfter on the parked walk resumes the correct suffix of the
  /// NEW answer order). Plans whose lambda shrank still upgrade and bump
  /// their slot's order epoch: unstarted sessions follow the upgrade,
  /// started ones retire lazily on the epoch mismatch. Slots of plans
  /// that were not repaired (evicted, unrepairable, another database)
  /// drop their plan and their sessions retire. Cost: one copy and
  /// repair per (automaton, source) of the levels its cached plans use
  /// (deeper ones regrow on demand), then one prefix copy and
  /// DeltaTrim per cached plan — no per-plan DeltaAnnotate — run on the
  /// calling (control) thread plus helpers, num_threads() at once in
  /// total, plus one pass over the live slots (one per plan registered
  /// in, or carried into, the previous generation) — never over the
  /// sessions.
  void InstallSnapshot(Snapshot snap);

  /// Resolves the prepared structure for (query, source, target)
  /// against the installed snapshot through the plan cache: a warm hit
  /// returns the shared structure with no annotate/trim work; a miss
  /// builds once on the calling thread (concurrent misses on the same
  /// key wait for the one build). Returns kNoQuery while no snapshot is
  /// installed. A build runs (the growth of the shared annotation, if
  /// any, and) trim on the calling thread; concurrency comes from
  /// concurrent Prepare calls, not from inside one build.
  QueryId Prepare(const Nfa& query, uint32_t source, uint32_t target);

  /// Sources per block-replicated BFS in PrepareBatch: bounds its seen
  /// matrix at |V| x kBatchSourcesPerBfs x ceil(|Q| / 64) words, however
  /// many sources one call brings.
  static constexpr size_t kBatchSourcesPerBfs = 32;

  /// Prepares (query, s, target) for every s in \p sources. Cached
  /// sources hit, and sources whose shared annotation is registered
  /// copy their prefix; the rest are built by block-replicated
  /// multi-source product BFSs (core/annotate.h AnnotateMultiSource),
  /// kBatchSourcesPerBfs sources each, and sliced into per-source
  /// prepared structures bit-identical to what per-source Prepare would
  /// build. Returns one QueryId per source, in order (duplicates
  /// allowed; they share the cache entry); kNoQuery for each while no
  /// snapshot is installed.
  std::vector<QueryId> PrepareBatch(const Nfa& query,
                                    const std::vector<uint32_t>& sources,
                                    uint32_t target);

  /// Source-level Prepare: parses \p pattern, canonicalizes, picks the
  /// front-end per the E9 size heuristic (recorded in Stats()), and
  /// resolves through the cache. Labels are interned via \p dict —
  /// normally the engine database's mutable_dict(); interning does not
  /// perturb the adjacency or the generation. Parse failures are
  /// reported in the result, not thrown.
  PrepareRegexResult PrepareRegex(std::string_view pattern,
                                  LabelDictionary* dict, uint32_t source,
                                  uint32_t target);

  /// Opens a parked cursor over a prepared query. Cheap; many sessions
  /// may share one prepared query. An unknown \p query (never returned
  /// by this engine) still opens a session, one whose pumps all return
  /// kRetired.
  SessionId OpenSession(QueryId query);

  /// Schedules up to \p max_answers further answers for \p session on
  /// the worker pool. At most one pump per session may be in flight
  /// (kBusy otherwise). The future's PumpResult holds the batch; the
  /// session re-parks on its last answer when the batch fills. An
  /// unknown \p session pumps kRetired. Rejecting an unknown id is not
  /// a retirement: EngineStats::sessions_retired does not count it.
  std::future<PumpResult> PumpAsync(SessionId session, uint32_t max_answers);

  /// Blocking convenience wrapper around PumpAsync.
  PumpResult Pump(SessionId session, uint32_t max_answers);

  /// Pumps \p session in batches of \p batch until exhausted (or
  /// retired); returns everything collected with the final status.
  PumpResult Drain(SessionId session, uint32_t batch = 64);

  /// Nanoseconds from pump enqueue to the batch's first answer being
  /// available, one sample per non-empty batch — the engine's
  /// first-answer latency distribution (p99 is the bench headline).
  std::vector<int64_t> FirstAnswerLatenciesNs() const;

  /// Point-in-time observability snapshot (plan cache + scheduling).
  EngineStats Stats() const;

  /// The plan \p query resolves to now (after an upgrade, the repaired
  /// one), or null for an id never handed out or a released plan. The
  /// plan is read-only; holding it keeps it alive.
  std::shared_ptr<const PreparedQuery> Plan(QueryId query) const;

  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size());
  }

 private:
  enum class SessionState : uint8_t { kParked, kQueued, kExhausted, kRetired };

  // One per distinct registered plan: every QueryId and session that
  // resolves to the plan holds the slot's index, so an install re-points
  // one slot per repaired plan. The parked counts (sessions an upgrade
  // would carry; see ParkedCountLocked) are kept as session states
  // change, so an install reads them instead of walking sessions.
  struct Slot {
    std::shared_ptr<const PreparedQuery> plan;  // null once retired
    uint64_t order_epoch = 0;     // bumped by order-changing upgrades
    uint32_t parked_fresh = 0;    // parked, no batch run yet
    uint32_t parked_started = 0;  // parked, started on order_epoch
  };

  struct Session {
    uint32_t slot = 0;
    Walk last;                  // the parked cursor: last emitted answer
    uint64_t epoch = 0;         // slot's order_epoch when the first batch ran
    bool started = false;       // false until the first batch ran
    SessionState state = SessionState::kParked;
  };

  struct Job {
    SessionId session = 0;
    uint32_t max_answers = 0;
    std::promise<PumpResult> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  // Per-worker bounded enumerator LRU (defined in engine.cc): one
  // ResumableEnumerator per hot prepared query per worker, reused
  // across batches so steady-state pumping performs no allocation.
  struct WorkerCache;

  // Registers a cache-resolved prepared query in the session-facing
  // query table (sharing the plan's slot); returns its QueryId.
  QueryId RegisterLocked(std::shared_ptr<const PreparedQuery> prepared);

  // A plan-cache miss: the prefix of the registered shared annotation of
  // \p key's (automaton, source), or an unshared build when sharing is
  // off or an endpoint is out of range.
  std::shared_ptr<const PreparedQuery> BuildPlan(const Snapshot& snap,
                                                 const Nfa& query,
                                                 const PlanKey& key);
  // The plan of \p target on the shared annotation \p sa.
  std::shared_ptr<const PreparedQuery> PlanOnShared(
      const Snapshot& snap, std::shared_ptr<SourceAnnotation> sa,
      uint32_t target);

  // The slot count a parked \p s is kept in, or null when no upgrade
  // can carry it (slot retired, or started before an order change).
  uint32_t* ParkedCountLocked(const Session& s);

  void WorkerLoop();
  // Runs one batch against the prepared query, entirely outside the
  // engine lock (the prepared structures are read-only). Writes the
  // enqueue-to-first-answer latency into *first_answer_ns (-1 when the
  // batch produced nothing).
  PumpResult RunBatch(WorkerCache& cache,
                      const std::shared_ptr<const PreparedQuery>& query,
                      const Walk& last, bool started, uint32_t max_answers,
                      std::chrono::steady_clock::time_point enqueued,
                      int64_t* first_answer_ns);

  const uint32_t worker_cache_entries_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::deque<Job> queue_;

  // The installed snapshot and its identity; (db, generation) pairs are
  // compared so generations of different Database objects never alias.
  Snapshot snapshot_;
  const Database* installed_db_ = nullptr;
  uint64_t installed_gen_ = 0;

  // The session-facing tables, all guarded by mu_. Slots, QueryIds and
  // sessions are append-only ids; a slot whose plan was not carried
  // across an install keeps its id but releases the plan.
  std::vector<Slot> slots_;
  // Plan -> slot, for every slot still holding its plan.
  std::unordered_map<const PreparedQuery*, uint32_t> slot_of_;
  std::vector<uint32_t> queries_;  // QueryId -> slot
  std::vector<Session> sessions_;
  std::vector<int64_t> first_answer_ns_;
  uint64_t sessions_retired_ = 0;   // guarded by mu_
  uint64_t plans_upgraded_ = 0;     // guarded by mu_
  uint64_t sessions_upgraded_ = 0;  // guarded by mu_

  // Own lock discipline: never held together with mu_ (Prepare resolves
  // through the cache before taking mu_; InstallSnapshot invalidates
  // after releasing it).
  PlanCache cache_;
  // The shared annotations plans copy their prefixes from; off, like
  // the cache, when plan_cache_bytes is 0. Its lock is never held
  // together with the cache's or mu_ (builders run outside both).
  const bool share_annotations_;
  AnnotationRegistry annotations_;

  // Lock-free counters: bumped outside mu_ (workers, PrepareRegex).
  std::atomic<uint64_t> worker_cache_evictions_{0};
  std::atomic<uint64_t> frontend_thompson_{0};
  std::atomic<uint64_t> frontend_glushkov_{0};
  std::atomic<uint64_t> tier_single_word_{0};
  std::atomic<uint64_t> tier_general_{0};
  std::atomic<uint64_t> annotations_built_{0};
  std::atomic<uint64_t> annotation_grows_{0};
  std::atomic<uint64_t> annotations_repaired_{0};

  void BumpTier(const PreparedQuery& plan);

  std::vector<std::thread> workers_;
};

}  // namespace dsw

#endif  // DSW_ENGINE_ENGINE_H_
