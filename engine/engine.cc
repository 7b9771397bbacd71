#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <future>
#include <list>
#include <unordered_map>
#include <utility>

#include "automaton/canonical_hash.h"
#include "core/delta_annotate.h"
#include "core/resumable_enumerator.h"
#include "regex/regex_parser.h"

namespace dsw {

// Bounded per-worker enumerator LRU. Holds the shared_ptr alongside the
// enumerator: a cached enumerator must never outlive its prepared
// query, even after the engine's own query table dropped it. The cap
// (EngineOptions::worker_cache_entries) keeps a long-lived worker from
// accumulating one enumerator per distinct prepared query within a
// generation; sessions are memoryless, so an eviction costs one rebuild
// on the victim's next pump, never a wrong resume.
struct QueryEngine::WorkerCache {
  struct Entry {
    std::shared_ptr<const PreparedQuery> query;
    std::unique_ptr<ResumableEnumerator> en;
    std::list<const PreparedQuery*>::iterator lru_it;
  };

  WorkerCache(uint32_t capacity, std::atomic<uint64_t>* evictions)
      : capacity(std::max(capacity, 1u)), evictions(evictions) {}

  uint32_t capacity;
  std::atomic<uint64_t>* evictions;
  std::unordered_map<const PreparedQuery*, Entry> entries;
  std::list<const PreparedQuery*> lru;  // front = hottest

  ResumableEnumerator& Get(const std::shared_ptr<const PreparedQuery>& q) {
    auto it = entries.find(q.get());
    if (it != entries.end()) {
      lru.splice(lru.begin(), lru, it->second.lru_it);
      return *it->second.en;
    }
    // Construct BEFORE touching the map: if the constructor throws
    // (e.g. bad_alloc), default-inserting first would leave a poisoned
    // entry — null `en`, dangling `lru_it` — that the next hit on this
    // query dereferences.
    auto en = std::make_unique<ResumableEnumerator>(q->ann, q->index,
                                                    q->source, q->target);
    if (entries.size() >= capacity) {
      entries.erase(lru.back());
      lru.pop_back();
      evictions->fetch_add(1, std::memory_order_relaxed);
    }
    Entry& e = entries[q.get()];
    e.query = q;
    e.en = std::move(en);
    lru.push_front(q.get());
    e.lru_it = lru.begin();
    return *e.en;
  }

  // Plans of other generations never run again; drop their enumerators
  // so a long-lived engine does not accumulate one per old generation
  // (and keep no old plan alive).
  void EvictOtherGenerations(const Database* db, uint64_t gen) {
    for (auto it = entries.begin(); it != entries.end();) {
      const Snapshot& s = it->second.query->snap;
      if (&s.db() != db || s.generation() != gen) {
        lru.erase(it->second.lru_it);
        it = entries.erase(it);
      } else {
        ++it;
      }
    }
  }
};

QueryEngine::QueryEngine(const EngineOptions& options)
    : worker_cache_entries_(std::max(options.worker_cache_entries, 1u)),
      cache_(options.plan_cache_bytes),
      share_annotations_(options.plan_cache_bytes > 0) {
  uint32_t num_threads = std::max(options.num_threads, 1u);
  workers_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
}

QueryEngine::~QueryEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Fail pending pumps instead of leaving their futures hanging.
  for (Job& job : queue_)
    job.promise.set_value(PumpResult{PumpStatus::kRetired, {}});
}

namespace {

// Runs fn(0), ..., fn(n - 1) on the calling thread plus helpers,
// \p threads at once in total. std::async futures join on destruction,
// exception paths included.
template <typename Fn>
void ParallelFor(size_t n, size_t threads, const Fn& fn) {
  std::atomic<size_t> next{0};
  auto run = [&] {
    for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
  };
  std::vector<std::future<void>> helpers;
  for (size_t t = 1; t < std::min(threads, n); ++t)
    helpers.push_back(std::async(std::launch::async, run));
  run();
  for (std::future<void>& h : helpers) h.get();
}

// One plan-cache entry run through the delta-repair pipeline. value ==
// nullptr means the plan was dropped: it was unreachable, so it holds
// no shared annotation to repair — and the inserts may well have made
// it reachable, so a fresh build on the next Prepare miss is also the
// semantically required outcome. order_preserved means lambda did not
// change, so old answers keep their relative enumeration order and a
// parked walk is still a valid SeekAfter anchor.
struct RepairedPlan {
  std::shared_ptr<const PreparedQuery> value;
  bool order_preserved = false;
};

// The extracted plans holding one shared annotation, and its repair.
struct RepairGroup {
  size_t first;       // an entry of the group, for its annotation and key
  size_t levels = 0;  // levels its plans use: the deepest lambda + 1
  std::shared_ptr<SourceAnnotation> repaired;  // null if unrepairable
  AnnotationRepair rep;
};

}  // namespace

void QueryEngine::InstallSnapshot(Snapshot snap) {
  if (!snap) return;  // a null snapshot changes nothing
  const Database* db = &snap.db();
  const uint64_t gen = snap.generation();
  Snapshot prev;
  {
    std::lock_guard<std::mutex> lock(mu_);
    prev = snapshot_;
    installed_db_ = db;
    installed_gen_ = gen;
    snapshot_ = snap;
    // Sessions pinned to older generations are retired lazily, at their
    // next pump — the (db, generation) compare in the worker is the
    // whole mechanism. The incremental path below re-points the slots
    // it saves at the end.
  }

  // Incremental path: when the previous install was an earlier frozen
  // generation of the same database and the delta between the two is a
  // known insert-only suffix, extract the old generation's completed
  // plans for repair instead of letting Invalidate drop them.
  std::vector<std::pair<PlanKey, PlanCache::Value>> old_entries;
  EdgeDelta delta;
  if (prev && &prev.db() == db && prev.generation() != gen) {
    delta = snap.DeltaFrom(prev.generation());
    if (delta.known)
      old_entries = cache_.TakeGeneration(db, prev.generation());
  }

  // Plan entries and shared annotations of other generations can never
  // be served again (keys carry the generation); drop them eagerly.
  // Outside mu_ — the cache and the registry have their own locks, and
  // no two of the three are ever held together.
  cache_.Invalidate(db, gen);
  annotations_.Invalidate(db, gen);

  // Group the extracted plans by the shared annotation they hold. Each
  // group's levels are copied and repaired once, in horizon mode, and
  // registered for the new generation; each plan of the group then
  // takes its new prefix from the repair — its new lambda is the first
  // level <= its old one where the target carries a final state — and
  // gets one DeltaTrim. Only the levels the group's plans use are
  // repaired: deeper ones (grown for unreachable or uncached targets,
  // up to the whole reachable product) are left to regrow on demand,
  // since repairing them at every write costs more than regrowing them
  // on the rare miss that needs them. The repairs are independent pure
  // reads of (snap, delta, old structures), so both phases run on as
  // many threads as the engine has workers.
  constexpr uint32_t kNoGroup = UINT32_MAX;
  std::vector<RepairGroup> groups;
  std::vector<uint32_t> group_of(old_entries.size(), kNoGroup);
  {
    std::unordered_map<const SourceAnnotation*, uint32_t> index;
    for (size_t i = 0; i < old_entries.size(); ++i) {
      const SourceAnnotation* sa = old_entries[i].second->shared.get();
      if (sa == nullptr) continue;  // unreachable: dropped
      auto [it, fresh] =
          index.emplace(sa, static_cast<uint32_t>(groups.size()));
      if (fresh) groups.push_back(RepairGroup{i, 0, nullptr, {}});
      group_of[i] = it->second;
      size_t& levels = groups[it->second].levels;
      levels = std::max(levels, old_entries[i].second->ann.levels.size());
    }
  }
  std::vector<RepairedPlan> repairs(old_entries.size());
  if (!groups.empty()) {
    ParallelFor(groups.size(), workers_.size(), [&](size_t g) {
      RepairGroup& group = groups[g];
      Annotation bfs =
          old_entries[group.first].second->shared->Levels(group.levels);
      group.rep = DeltaAnnotateHorizon(snap, delta, &bfs);
      if (group.rep.ok)
        group.repaired = std::make_shared<SourceAnnotation>(snap,
                                                            std::move(bfs));
    });
    for (const RepairGroup& group : groups) {
      if (!group.repaired) continue;
      annotations_repaired_.fetch_add(1, std::memory_order_relaxed);
      PlanKey key = old_entries[group.first].first;
      key.generation = gen;
      bool created = false;  // a concurrent Prepare may have beaten us
      annotations_.GetOrRegister(
          key, [&group] { return group.repaired; }, &created);
    }
    DeltaContext ctx(snap);
    // A full backward sweep for plans whose lambda shrank.
    AnnotationRepair retrim;
    retrim.ok = true;
    retrim.lambda_changed = true;
    ParallelFor(old_entries.size(), workers_.size(), [&](size_t i) {
      if (group_of[i] == kNoGroup) return;
      const RepairGroup& group = groups[group_of[i]];
      if (!group.repaired) return;
      const PreparedQuery& old = *old_entries[i].second;
      Annotation ann = group.repaired->Prefix(old.target);
      if (!ann.reachable()) return;  // insertions cannot do this
      // A plan's levels are a prefix of the annotation it holds, so the
      // group's changed lists cover every level DeltaTrim reads.
      const bool same = ann.lambda == old.ann.lambda;
      assert(static_cast<size_t>(ann.lambda) < group.rep.changed.size());
      TrimmedIndex trimmed = DeltaTrim(snap, ann, old.index.trimmed(),
                                       same ? group.rep : retrim, delta,
                                       ctx);
      repairs[i].value = std::make_shared<const PreparedQuery>(
          snap, std::move(ann), std::move(trimmed), group.repaired);
      repairs[i].order_preserved = same;
    });
  }
  std::unordered_map<const PreparedQuery*, const RepairedPlan*>
      upgrades;  // old plan -> its repair
  for (size_t i = 0; i < old_entries.size(); ++i) {
    auto& [key, old] = old_entries[i];
    if (!repairs[i].value) continue;
    upgrades.emplace(old.get(), &repairs[i]);
    PlanKey new_key = std::move(key);
    new_key.generation = gen;
    cache_.InsertUpgraded(std::move(new_key), repairs[i].value);
  }

  // Plans the slots let go of; freed after mu_ is released.
  std::vector<std::shared_ptr<const PreparedQuery>> released;
  std::lock_guard<std::mutex> lock(mu_);
  plans_upgraded_ += upgrades.size();
  // One pass over the live slots (the previous generation's plans). A
  // slot already on this generation stays; a repaired plan's slot is
  // re-pointed, which moves every QueryId and session on it (new
  // sessions Rewind, so that is safe even when the order changed); any
  // other slot can never run again and lets go of its plan, so retired
  // sessions do not pin old generations.
  std::unordered_map<const PreparedQuery*, uint32_t> live;
  for (const auto& [plan, id] : slot_of_) {
    Slot& slot = slots_[id];
    if (&plan->snap.db() == db && plan->snap.generation() == gen) {
      live.emplace(plan, id);
      continue;
    }
    auto it = upgrades.find(plan);
    if (it == upgrades.end()) {
      released.push_back(std::move(slot.plan));
      slot = Slot{};
      continue;
    }
    // A started session needs its parked walk to stay a valid order
    // anchor, which only holds when lambda is unchanged — otherwise the
    // epoch bump retires it at its next pump.
    const RepairedPlan& repaired = *it->second;
    sessions_upgraded_ += slot.parked_fresh;
    if (repaired.order_preserved) {
      sessions_upgraded_ += slot.parked_started;
    } else {
      ++slot.order_epoch;
      slot.parked_started = 0;
    }
    slot.plan = repaired.value;  // old_entries frees the old one
    live.emplace(slot.plan.get(), id);
  }
  slot_of_ = std::move(live);
}

QueryId QueryEngine::RegisterLocked(
    std::shared_ptr<const PreparedQuery> prepared) {
  auto [it, inserted] = slot_of_.emplace(
      prepared.get(), static_cast<uint32_t>(slots_.size()));
  if (inserted) slots_.push_back(Slot{std::move(prepared)});
  queries_.push_back(it->second);
  return static_cast<QueryId>(queries_.size() - 1);
}

uint32_t* QueryEngine::ParkedCountLocked(const Session& s) {
  Slot& slot = slots_[s.slot];
  if (!slot.plan) return nullptr;
  if (!s.started) return &slot.parked_fresh;
  return s.epoch == slot.order_epoch ? &slot.parked_started : nullptr;
}

std::shared_ptr<const PreparedQuery> QueryEngine::PlanOnShared(
    const Snapshot& snap, std::shared_ptr<SourceAnnotation> sa,
    uint32_t target) {
  bool grew = false;
  Annotation ann = sa->Prefix(target, &grew);
  if (grew) annotation_grows_.fetch_add(1, std::memory_order_relaxed);
  if (!ann.reachable()) sa = nullptr;  // unreachable plans hold none
  return std::make_shared<const PreparedQuery>(snap, std::move(ann),
                                               std::move(sa));
}

std::shared_ptr<const PreparedQuery> QueryEngine::BuildPlan(
    const Snapshot& snap, const Nfa& query, const PlanKey& key) {
  const bool in_range = key.source < snap.num_vertices() &&
                        key.target < snap.num_vertices();
  if (!share_annotations_ || !in_range) {
    if (in_range) annotations_built_.fetch_add(1, std::memory_order_relaxed);
    return std::make_shared<const PreparedQuery>(snap, query, key.source,
                                                 key.target);
  }
  bool created = false;
  std::shared_ptr<SourceAnnotation> sa = annotations_.GetOrRegister(
      key,
      [&] {
        return std::make_shared<SourceAnnotation>(snap, query, key.source);
      },
      &created);
  if (created) annotations_built_.fetch_add(1, std::memory_order_relaxed);
  return PlanOnShared(snap, std::move(sa), key.target);
}

QueryId QueryEngine::Prepare(const Nfa& query, uint32_t source,
                             uint32_t target) {
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!snapshot_) return kNoQuery;  // nothing to build against yet
    snap = snapshot_;
  }
  CanonicalAutomaton canon = CanonicalizeAutomaton(query);
  PlanKey key{&snap.db(), snap.generation(), canon.hash,
              std::move(canon.bytes), source, target};
  // The expensive build (annotate growth + trim + rank arrays) runs
  // outside both the engine and the cache lock: misses on different
  // keys proceed in parallel, all against the same frozen snapshot;
  // misses on the SAME key build once (single-flight).
  std::shared_ptr<const PreparedQuery> prepared = cache_.GetOrBuild(
      key, [&] { return BuildPlan(snap, query, key); });
  BumpTier(*prepared);
  std::lock_guard<std::mutex> lock(mu_);
  return RegisterLocked(std::move(prepared));
}

void QueryEngine::BumpTier(const PreparedQuery& plan) {
  // The same test Annotate, TrimVertex and ResumableEnumerator use to
  // pick the single-word kernel, so the counter names the kernel that
  // runs.
  std::atomic<uint64_t>& tier = plan.ann.words_per_set() == 1
                                    ? tier_single_word_
                                    : tier_general_;
  tier.fetch_add(1, std::memory_order_relaxed);
}

std::vector<QueryId> QueryEngine::PrepareBatch(
    const Nfa& query, const std::vector<uint32_t>& sources,
    uint32_t target) {
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!snapshot_) return std::vector<QueryId>(sources.size(), kNoQuery);
    snap = snapshot_;
  }
  CanonicalAutomaton canon = CanonicalizeAutomaton(query);
  std::vector<PlanKey> keys;
  keys.reserve(sources.size());
  for (uint32_t s : sources)
    keys.push_back(PlanKey{&snap.db(), snap.generation(), canon.hash,
                           canon.bytes, s, target});
  const uint32_t num_vertices = snap.num_vertices();
  // Claimed (absent) sources whose shared annotation is registered copy
  // their prefix; the rest share block-replicated product BFSs of
  // kBatchSourcesPerBfs sources each. Every slice is bit-identical to a
  // per-source Annotate, so cache entries filled here and by single
  // Prepare() are interchangeable, and a reachable slice — exactly
  // levels [0, lambda] of its source's BFS — seeds that source's shared
  // annotation when none is registered.
  auto build_many = [&](const std::vector<size_t>& idx) {
    std::vector<PlanCache::Value> built(idx.size());
    std::vector<size_t> pending;  // positions in idx that need a BFS
    for (size_t j = 0; j < idx.size(); ++j) {
      const PlanKey& key = keys[idx[j]];
      if (share_annotations_ && key.source < num_vertices &&
          target < num_vertices)
        if (std::shared_ptr<SourceAnnotation> sa = annotations_.Find(key)) {
          built[j] = PlanOnShared(snap, std::move(sa), target);
          continue;
        }
      pending.push_back(j);
    }
    for (size_t begin = 0; begin < pending.size();
         begin += kBatchSourcesPerBfs) {
      const size_t end =
          std::min(pending.size(), begin + kBatchSourcesPerBfs);
      std::vector<uint32_t> chunk;
      chunk.reserve(end - begin);
      for (size_t c = begin; c < end; ++c)
        chunk.push_back(keys[idx[pending[c]]].source);
      MultiSourceAnnotation ms =
          AnnotateMultiSource(snap, query, chunk, target);
      for (size_t c = begin; c < end; ++c) {
        const size_t j = pending[c];
        const PlanKey& key = keys[idx[j]];
        Annotation ann = ms.Slice(c - begin);
        if (key.source < num_vertices && target < num_vertices)
          annotations_built_.fetch_add(1, std::memory_order_relaxed);
        std::shared_ptr<SourceAnnotation> sa;
        bool created = true;
        if (share_annotations_ && ann.reachable())
          sa = annotations_.GetOrRegister(
              key,
              [&] { return std::make_shared<SourceAnnotation>(snap, ann); },
              &created);
        // One registered meanwhile may be shallower than this slice: the
        // plan takes its prefix from it, so the two always agree.
        built[j] = created ? std::make_shared<const PreparedQuery>(
                                 snap, std::move(ann), std::move(sa))
                           : PlanOnShared(snap, std::move(sa), target);
      }
    }
    return built;
  };
  std::vector<PlanCache::Value> values =
      cache_.GetOrBuildBatch(keys, build_many);
  std::vector<QueryId> ids;
  ids.reserve(values.size());
  for (const PlanCache::Value& v : values) BumpTier(*v);
  std::lock_guard<std::mutex> lock(mu_);
  for (PlanCache::Value& v : values) ids.push_back(RegisterLocked(std::move(v)));
  return ids;
}

PrepareRegexResult QueryEngine::PrepareRegex(std::string_view pattern,
                                             LabelDictionary* dict,
                                             uint32_t source,
                                             uint32_t target) {
  PrepareRegexResult result;
  RegexParseResult parsed = ParseRegex(pattern);
  if (!parsed.ok()) {
    result.error = parsed.error();
    return result;
  }
  CompiledRegex compiled = CompileRegex(*parsed.value(), dict);
  result.frontend = compiled.frontend;
  (compiled.frontend == Frontend::kThompson ? frontend_thompson_
                                            : frontend_glushkov_)
      .fetch_add(1, std::memory_order_relaxed);
  result.id = Prepare(compiled.nfa, source, target);
  result.ok = true;
  return result;
}

SessionId QueryEngine::OpenSession(QueryId query) {
  std::lock_guard<std::mutex> lock(mu_);
  Session s;
  if (query < queries_.size()) {
    s.slot = queries_[query];
    if (uint32_t* parked = ParkedCountLocked(s)) ++*parked;
  } else {
    // An id this engine never handed out: the session exists, but only
    // to report kRetired, and is not counted as a retirement.
    s.state = SessionState::kRetired;
  }
  sessions_.push_back(std::move(s));
  return static_cast<SessionId>(sessions_.size() - 1);
}

std::future<PumpResult> QueryEngine::PumpAsync(SessionId session,
                                               uint32_t max_answers) {
  std::promise<PumpResult> promise;
  std::future<PumpResult> future = promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (session >= sessions_.size()) {  // never handed out
      promise.set_value(PumpResult{PumpStatus::kRetired, {}});
      return future;
    }
    Session& s = sessions_[session];
    switch (s.state) {
      case SessionState::kQueued:
        promise.set_value(PumpResult{PumpStatus::kBusy, {}});
        return future;
      case SessionState::kExhausted:
        promise.set_value(PumpResult{PumpStatus::kExhausted, {}});
        return future;
      case SessionState::kRetired:
        promise.set_value(PumpResult{PumpStatus::kRetired, {}});
        return future;
      case SessionState::kParked:
        break;
    }
    if (uint32_t* parked = ParkedCountLocked(s)) --*parked;
    s.state = SessionState::kQueued;
    queue_.push_back(Job{session, std::max(max_answers, 1u),
                         std::move(promise),
                         std::chrono::steady_clock::now()});
  }
  cv_.notify_one();
  return future;
}

PumpResult QueryEngine::Pump(SessionId session, uint32_t max_answers) {
  return PumpAsync(session, max_answers).get();
}

PumpResult QueryEngine::Drain(SessionId session, uint32_t batch) {
  PumpResult all;
  for (;;) {
    PumpResult r = Pump(session, batch);
    if (r.status == PumpStatus::kBusy) {
      // Another pump owns the session right now (its batch goes to that
      // caller). Returning here would hand back partially-accumulated
      // walks under a kBusy status — a silently dropped tail. The
      // session parks or exhausts eventually; retry until it does.
      std::this_thread::yield();
      continue;
    }
    all.status = r.status;
    all.walks.insert(all.walks.end(),
                     std::make_move_iterator(r.walks.begin()),
                     std::make_move_iterator(r.walks.end()));
    if (r.status != PumpStatus::kOk) return all;
  }
}

std::vector<int64_t> QueryEngine::FirstAnswerLatenciesNs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_answer_ns_;
}

EngineStats QueryEngine::Stats() const {
  EngineStats stats;
  stats.plan_cache = cache_.Stats();
  stats.worker_cache_evictions =
      worker_cache_evictions_.load(std::memory_order_relaxed);
  stats.frontend_thompson =
      frontend_thompson_.load(std::memory_order_relaxed);
  stats.frontend_glushkov =
      frontend_glushkov_.load(std::memory_order_relaxed);
  stats.tier_single_word =
      tier_single_word_.load(std::memory_order_relaxed);
  stats.tier_general = tier_general_.load(std::memory_order_relaxed);
  stats.annotations_built =
      annotations_built_.load(std::memory_order_relaxed);
  stats.annotation_grows = annotation_grows_.load(std::memory_order_relaxed);
  stats.annotations_repaired =
      annotations_repaired_.load(std::memory_order_relaxed);
  stats.shared_annotation_bytes = annotations_.LiveBytes();
  std::lock_guard<std::mutex> lock(mu_);
  stats.sessions_retired = sessions_retired_;
  stats.plans_upgraded = plans_upgraded_;
  stats.sessions_upgraded = sessions_upgraded_;
  return stats;
}

std::shared_ptr<const PreparedQuery> QueryEngine::Plan(QueryId query) const {
  std::lock_guard<std::mutex> lock(mu_);
  return query < queries_.size() ? slots_[queries_[query]].plan : nullptr;
}

PumpResult QueryEngine::RunBatch(
    WorkerCache& cache, const std::shared_ptr<const PreparedQuery>& query,
    const Walk& last, bool started, uint32_t max_answers,
    std::chrono::steady_clock::time_point enqueued,
    int64_t* first_answer_ns) {
  PumpResult result;
  *first_answer_ns = -1;
  ResumableEnumerator& en = cache.Get(query);
  if (!started) {
    en.Rewind();
  } else if (!en.SeekAfter(last)) {
    // last was emitted by this very pipeline, so SeekAfter can only
    // reject it if the session state was corrupted externally.
    assert(false && "RunBatch: parked walk is not an answer");
    result.status = PumpStatus::kExhausted;
    return result;
  }
  if (en.Valid())
    *first_answer_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - enqueued)
                           .count();
  while (en.Valid() && result.walks.size() < max_answers) {
    result.walks.push_back(en.walk());
    if (result.walks.size() < max_answers) en.Next();
  }
  // The batch parks ON its last answer (Next() is deferred to the next
  // pump's SeekAfter), so kOk promises nothing about further answers —
  // only that enumeration has not provably ended.
  result.status = en.Valid() && !result.walks.empty() ? PumpStatus::kOk
                                                      : PumpStatus::kExhausted;
  return result;
}

void QueryEngine::WorkerLoop() {
  WorkerCache cache(worker_cache_entries_, &worker_cache_evictions_);
  // The install this worker's cache was last pruned for.
  const Database* pruned_db = nullptr;
  uint64_t pruned_gen = 0;
  for (;;) {
    Job job;
    std::shared_ptr<const PreparedQuery> query;
    Walk last;
    bool started = false;
    bool prune = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;  // ~QueryEngine fails whatever is still queued
      job = std::move(queue_.front());
      queue_.pop_front();
      if (pruned_db != installed_db_ || pruned_gen != installed_gen_) {
        pruned_db = installed_db_;
        pruned_gen = installed_gen_;
        prune = true;
      }

      Session& s = sessions_[job.session];
      const Slot& slot = slots_[s.slot];
      if (!slot.plan || &slot.plan->snap.db() != installed_db_ ||
          slot.plan->snap.generation() != installed_gen_ ||
          (s.started && s.epoch != slot.order_epoch)) {
        // Graceful rejection: the stale index is never touched.
        s.state = SessionState::kRetired;
        ++sessions_retired_;
      } else {
        if (!s.started) s.epoch = slot.order_epoch;
        query = slot.plan;
        last = s.last;
        started = s.started;
      }
    }
    // Enumerators of other generations never run again; drop them at
    // the first job after an install so they do not pin old plans.
    if (prune) cache.EvictOtherGenerations(pruned_db, pruned_gen);
    if (!query) {
      job.promise.set_value(PumpResult{PumpStatus::kRetired, {}});
      continue;
    }

    int64_t first_ns = -1;
    PumpResult result = RunBatch(cache, query, last, started,
                                 job.max_answers, job.enqueued, &first_ns);

    {
      std::lock_guard<std::mutex> lock(mu_);
      Session& s = sessions_[job.session];
      if (!result.walks.empty()) {
        s.last = result.walks.back();
        s.started = true;
      }
      s.state = result.status == PumpStatus::kOk ? SessionState::kParked
                                                 : SessionState::kExhausted;
      if (s.state == SessionState::kParked)
        if (uint32_t* parked = ParkedCountLocked(s)) ++*parked;
      if (first_ns >= 0) first_answer_ns_.push_back(first_ns);
    }
    job.promise.set_value(std::move(result));
  }
}

}  // namespace dsw
