#include "engine/plan_cache.h"

#include <algorithm>
#include <cassert>

namespace dsw {

// ---------------------------------------------------------------- locked
// helpers. The building-marker lifecycle: ClaimLocked inserts (or
// repurposes) a valueless entry stamped with a fresh ticket; the claim
// is later resolved by exactly one of FillLocked (success — the ticket
// still matches, so the value lands and joins the LRU) or
// EraseClaimLocked (failure). A claim whose entry was erased or
// re-claimed in the meantime (Invalidate does both) resolves to a
// no-op: the builder's value goes to its callers but not the cache.

uint64_t PlanCache::ClaimLocked(Map::iterator it) {
  uint64_t ticket = ++next_ticket_;
  it->second.value = nullptr;
  it->second.bytes = 0;
  it->second.ticket = ticket;
  ++stats_.misses;
  return ticket;
}

void PlanCache::FillLocked(const PlanKey& key, uint64_t ticket,
                           const Value& value) {
  auto it = map_.find(key);
  if (it == map_.end() || !it->second.building() ||
      it->second.ticket != ticket)
    return;  // claim was invalidated mid-build; value stays uncached
  Entry& e = it->second;
  e.value = value;
  e.bytes = value->ApproxBytes();
  lru_.push_front(&it->first);
  e.lru_it = lru_.begin();
  stats_.bytes_used += e.bytes;
  ++stats_.entries;
  EvictOverBudgetLocked(&it->first);
}

void PlanCache::EraseClaimLocked(const PlanKey& key, uint64_t ticket) {
  auto it = map_.find(key);
  if (it != map_.end() && it->second.building() &&
      it->second.ticket == ticket)
    map_.erase(it);
}

void PlanCache::EvictOverBudgetLocked(const PlanKey* protect) {
  while (stats_.bytes_used > byte_budget_ && !lru_.empty()) {
    const PlanKey* victim = lru_.back();
    if (victim == protect) break;  // an oversized entry lives alone
    auto it = map_.find(*victim);
    assert(it != map_.end() && !it->second.building());
    stats_.bytes_used -= it->second.bytes;
    --stats_.entries;
    ++stats_.evictions;
    lru_.pop_back();
    map_.erase(it);
  }
}

// ------------------------------------------------------------ public API

PlanCache::Value PlanCache::GetOrBuild(const PlanKey& key,
                                       const Builder& build) {
  if (byte_budget_ == 0) {  // caching disabled: every call builds
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.misses;
    }
    return build();
  }

  uint64_t ticket;
  {
    std::unique_lock<std::mutex> lock(mu_);
    bool waited = false;
    for (;;) {
      auto it = map_.find(key);
      if (it == map_.end()) {
        ticket = ClaimLocked(map_.emplace(key, Entry{}).first);
        break;
      }
      if (!it->second.building()) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // touch
        return it->second.value;
      }
      if (!waited) {
        waited = true;
        ++stats_.single_flight_waits;
      }
      cv_.wait(lock);  // wake on fill, erase, or invalidate; re-check
    }
  }

  Value value;
  try {
    value = build();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      EraseClaimLocked(key, ticket);
    }
    cv_.notify_all();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    FillLocked(key, ticket, value);
  }
  cv_.notify_all();
  return value;
}

std::vector<PlanCache::Value> PlanCache::GetOrBuildBatch(
    const std::vector<PlanKey>& keys, const BatchBuilder& build_many) {
  std::vector<Value> out(keys.size());
  if (keys.empty()) return out;

  if (byte_budget_ == 0) {  // caching disabled: one batch build of all
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.misses += keys.size();
    }
    std::vector<size_t> all(keys.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    return build_many(all);
  }

  // Phase 1 (one lock hold): resolve hits, claim every absent key, and
  // bucket the rest. Duplicate keys within the batch alias their first
  // occurrence so we never wait on our own claim.
  std::vector<size_t> claimed;           // indices this thread builds
  std::vector<uint64_t> tickets;         // parallel to `claimed`
  std::vector<size_t> waiting;           // keys being built elsewhere
  std::vector<std::pair<size_t, size_t>> aliases;  // (dup, first occurrence)
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Dedup within the batch: hash/compare through the pointed-to key.
    struct DerefHash {
      size_t operator()(const PlanKey* k) const { return PlanKeyHash{}(*k); }
    };
    struct DerefEq {
      bool operator()(const PlanKey* a, const PlanKey* b) const {
        return *a == *b;
      }
    };
    std::unordered_map<const PlanKey*, size_t, DerefHash, DerefEq> seen;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (auto dup = seen.find(&keys[i]); dup != seen.end()) {
        aliases.emplace_back(i, dup->second);
        continue;
      }
      seen.emplace(&keys[i], i);
      auto it = map_.find(keys[i]);
      if (it == map_.end()) {
        tickets.push_back(ClaimLocked(map_.emplace(keys[i], Entry{}).first));
        claimed.push_back(i);
      } else if (!it->second.building()) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        out[i] = it->second.value;
      } else {
        ++stats_.single_flight_waits;
        waiting.push_back(i);
      }
    }
  }

  // Phase 2: one build call covers every claimed key — the engine runs
  // a single multi-source annotate here.
  if (!claimed.empty()) {
    std::vector<Value> built;
    try {
      built = build_many(claimed);
      assert(built.size() == claimed.size() &&
             "BatchBuilder returned the wrong number of values");
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (size_t c = 0; c < claimed.size(); ++c)
          EraseClaimLocked(keys[claimed[c]], tickets[c]);
      }
      cv_.notify_all();
      throw;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t c = 0; c < claimed.size(); ++c) {
        out[claimed[c]] = built[c];
        FillLocked(keys[claimed[c]], tickets[c], built[c]);
      }
    }
    cv_.notify_all();
  }

  // Phase 3: collect the keys other threads were building. A key that
  // vanished mid-wait (failed or invalidated claim) is re-claimed and
  // built individually.
  for (size_t i : waiting) {
    std::unique_lock<std::mutex> lock(mu_);
    uint64_t ticket = 0;
    bool claimed_here = false;
    for (;;) {
      auto it = map_.find(keys[i]);
      if (it == map_.end()) {
        ticket = ClaimLocked(map_.emplace(keys[i], Entry{}).first);
        claimed_here = true;
        break;
      }
      if (!it->second.building()) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        out[i] = it->second.value;
        break;
      }
      cv_.wait(lock);
    }
    if (!claimed_here) continue;
    lock.unlock();
    Value value;
    try {
      std::vector<Value> built = build_many({i});
      assert(built.size() == 1);
      value = std::move(built.front());
    } catch (...) {
      {
        std::lock_guard<std::mutex> relock(mu_);
        EraseClaimLocked(keys[i], ticket);
      }
      cv_.notify_all();
      throw;
    }
    out[i] = value;
    {
      std::lock_guard<std::mutex> relock(mu_);
      FillLocked(keys[i], ticket, value);
    }
    cv_.notify_all();
  }

  for (const auto& [dup, first] : aliases) out[dup] = out[first];
  return out;
}

std::vector<std::pair<PlanKey, PlanCache::Value>> PlanCache::TakeGeneration(
    const Database* db, uint64_t generation) {
  std::vector<std::pair<PlanKey, Value>> out;
  if (byte_budget_ == 0) return out;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.db != db || it->first.generation != generation ||
        it->second.building()) {
      ++it;
      continue;
    }
    stats_.bytes_used -= it->second.bytes;
    --stats_.entries;
    lru_.erase(it->second.lru_it);
    out.emplace_back(it->first, std::move(it->second.value));
    it = map_.erase(it);
  }
  return out;
}

void PlanCache::InsertUpgraded(PlanKey key, Value value) {
  if (byte_budget_ == 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      it = map_.emplace(std::move(key), Entry{}).first;
    } else if (!it->second.building()) {
      return;  // a concurrent Prepare already built this key; keep it
    }
    // Filling a building claim in place resolves it: the claimant's
    // eventual FillLocked sees a completed entry and no-ops, exactly as
    // if it had been invalidated — but its waiters are released now,
    // by the upgraded value.
    Entry& e = it->second;
    e.value = std::move(value);
    e.bytes = e.value->ApproxBytes();
    lru_.push_front(&it->first);
    e.lru_it = lru_.begin();
    stats_.bytes_used += e.bytes;
    ++stats_.entries;
    ++stats_.upgrades;
    EvictOverBudgetLocked(&it->first);
  }
  cv_.notify_all();
}

void PlanCache::Invalidate(const Database* db, uint64_t generation) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = map_.begin(); it != map_.end();) {
      const PlanKey& k = it->first;
      if (k.db == db && k.generation == generation) {
        ++it;
        continue;
      }
      if (!it->second.building()) {
        stats_.bytes_used -= it->second.bytes;
        --stats_.entries;
        lru_.erase(it->second.lru_it);
      }
      // Erasing a building entry orphans its claim: the builder's
      // FillLocked ticket check turns into a no-op, and any waiters
      // wake below, find the key vacant, and re-claim against whatever
      // snapshot *they* hold.
      ++stats_.invalidations;
      it = map_.erase(it);
    }
  }
  cv_.notify_all();
}

// ------------------------------------------------ AnnotationRegistry

PlanKey AnnotationRegistry::SourceKey(const PlanKey& key) {
  PlanKey k = key;
  k.target = 0;
  return k;
}

AnnotationRegistry::Ptr AnnotationRegistry::Find(const PlanKey& key) {
  const PlanKey k = SourceKey(key);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(k);
  return it == map_.end() ? nullptr : it->second.lock();
}

AnnotationRegistry::Ptr AnnotationRegistry::GetOrRegister(
    const PlanKey& key, const std::function<Ptr()>& make, bool* created) {
  PlanKey k = SourceKey(key);
  *created = false;
  std::lock_guard<std::mutex> lock(mu_);
  std::weak_ptr<SourceAnnotation>& slot = map_[std::move(k)];
  if (Ptr live = slot.lock()) return live;
  Ptr made = make();
  slot = made;
  *created = true;
  // Registrations whose last plan is gone only hold an expired weak
  // reference; sweep them once the map has doubled since the last sweep.
  if (map_.size() >= sweep_at_) {
    std::erase_if(map_, [](const auto& e) { return e.second.expired(); });
    sweep_at_ = std::max<size_t>(16, 2 * map_.size());
  }
  return made;
}

void AnnotationRegistry::Invalidate(const Database* db, uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(map_, [&](const auto& e) {
    return e.first.db != db || e.first.generation != generation;
  });
}

size_t AnnotationRegistry::LiveBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = 0;
  for (const auto& [key, weak] : map_)
    if (Ptr live = weak.lock()) bytes += live->ApproxBytes();
  return bytes;
}

PlanCacheStats PlanCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dsw
