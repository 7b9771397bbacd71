// Correctness oracle: every page the engine serves is compared with a
// pipeline the benchmark builds itself, from scratch, on the snapshot
// that served the page — the key's regex text (its first spelling, not
// canonicalized) through Thompson, then Annotate -> ResumableIndex ->
// ResumableEnumerator. None of it goes through the engine or its plan
// cache, so a wrong cache hit, a bad delta repair or a lost resume
// position all show up as a page mismatch.

#ifndef DSW_E2EBENCH_ORACLE_H_
#define DSW_E2EBENCH_ORACLE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "automaton/thompson.h"
#include "core/annotate.h"
#include "core/database.h"
#include "core/nfa.h"
#include "core/resumable_enumerator.h"
#include "core/resumable_index.h"
#include "core/walk.h"
#include "regex/regex_parser.h"

namespace e2e {

using dsw::Annotation;
using dsw::ResumableEnumerator;
using dsw::ResumableIndex;
using dsw::Snapshot;
using dsw::Walk;

struct OraclePlan {
  OraclePlan(const Snapshot& snap, const dsw::Nfa& nfa, uint32_t s,
             uint32_t t)
      : ann(dsw::Annotate(snap, nfa, s, t)), index(snap, ann), source(s),
        target(t) {}

  Annotation ann;
  ResumableIndex index;
  uint32_t source;
  uint32_t target;
};

inline dsw::Nfa OracleNfa(const std::string& text,
                          dsw::LabelDictionary* dict) {
  dsw::RegexParseResult parsed = dsw::ParseRegex(text);
  return parsed.ok() ? dsw::ThompsonNfa(*parsed.value(), dict) : dsw::Nfa();
}

// Thread-safe LRU of oracle plans keyed by (key id, generation). A
// capacity of 0 keeps nothing: each check builds and drops its plan.
class OracleCache {
 public:
  using Plan = std::shared_ptr<const OraclePlan>;

  explicit OracleCache(size_t capacity) : capacity_(capacity) {}

  template <typename Build>
  Plan Get(uint32_t key, uint64_t generation, const Build& build) {
    const auto id = std::make_pair(key, generation);
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = map_.find(id);
      if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.second);
        return it->second.first;
      }
    }
    Plan plan = build();  // outside the lock; a racing duplicate is harmless
    if (capacity_ == 0) return plan;
    std::lock_guard<std::mutex> lock(mu_);
    if (map_.count(id)) return plan;
    lru_.push_front(id);
    map_.emplace(id, std::make_pair(plan, lru_.begin()));
    while (map_.size() > capacity_) {
      map_.erase(lru_.back());
      lru_.pop_back();
    }
    return plan;
  }

  // Drops every plan not built on generation \p generation.
  void KeepOnly(uint64_t generation) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->second == generation) {
        ++it;
        continue;
      }
      map_.erase(*it);
      it = lru_.erase(it);
    }
  }

  // Plans of generation \p generation (for the write-path replays).
  std::vector<Plan> PlansOf(uint64_t generation) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Plan> out;
    for (const auto& [id, entry] : map_)
      if (id.second == generation) out.push_back(entry.first);
    return out;
  }

 private:
  using Id = std::pair<uint32_t, uint64_t>;
  const size_t capacity_;
  std::mutex mu_;
  std::list<Id> lru_;
  std::map<Id, std::pair<Plan, std::list<Id>::iterator>> map_;
};

// The page the engine must have served: the first \p n answers when
// \p prev is null, else the n answers after *prev. \p more is set when
// answers remain after the page. Returns false when *prev is not an
// answer at all.
inline bool ExpectedPage(const OraclePlan& plan, const Walk* prev, size_t n,
                         std::vector<Walk>* page, bool* more) {
  ResumableEnumerator en(plan.ann, plan.index, plan.source, plan.target);
  if (prev != nullptr && !en.SeekAfter(*prev)) return false;
  page->clear();
  while (en.Valid() && page->size() < n) {
    page->push_back(en.walk());
    en.Next();
  }
  *more = en.Valid();
  return true;
}

}  // namespace e2e

#endif  // DSW_E2EBENCH_ORACLE_H_
