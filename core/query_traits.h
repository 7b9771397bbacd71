// Execution-tier classification: the prepare-time pass that decides
// which kernels a (Snapshot, Nfa) pair runs on. Three tiers:
//
//  - kSimple: single-labeled data + deterministic, epsilon-free query —
//    the paper's *simple setting*, where every length-i walk carries the
//    same word and the product collapses to a plain vertex BFS with one
//    automaton state per level. core/simple_enumerator.h serves these
//    with O(lambda) delay and no certificate machinery at all.
//  - kSingleWord: |Q| <= 64, so every state set is one uint64_t and the
//    general pipeline runs on the collapsed SingleWordKernel loops
//    (util/word_kernel.h) — same algorithms, same answers, no per-set
//    word loop.
//  - kGeneral: the multi-word path, unchanged semantics.
//
// The tier never changes WHAT is computed, only how fast: all three
// tiers produce bit-identical annotations, B-lists and enumeration
// order (tests/exec_tier_test.cc), so the classification is free to be
// conservative. It is also cheap — O(|Delta|) over the query plus an
// early-exit O(|E|) label scan over the snapshot (bench_fastpath's
// Detection arm measures it) — which is why the engine runs it on every
// plan build (not on cache hits) and records the tier on the cached plan
// (EngineStats counts per-tier prepares). Delta repair re-checks only
// the data half, once per install.

#ifndef DSW_CORE_QUERY_TRAITS_H_
#define DSW_CORE_QUERY_TRAITS_H_

#include <cstdint>

#include "core/database.h"
#include "core/nfa.h"

namespace dsw {

enum class ExecTier : uint8_t {
  kSimple = 0,      // single-labeled data + deterministic eps-free query
  kSingleWord = 1,  // |Q| <= 64: one-uint64_t kernels
  kGeneral = 2,     // multi-word loops
};

inline const char* ExecTierName(ExecTier tier) {
  switch (tier) {
    case ExecTier::kSimple:
      return "simple";
    case ExecTier::kSingleWord:
      return "single_word";
    case ExecTier::kGeneral:
      return "general";
  }
  return "?";
}

struct QueryTraits {
  ExecTier tier = ExecTier::kGeneral;
  bool data_single_label = false;   // every edge carries one label
  bool query_deterministic = false; // eps-free, 1 initial, <=1 move/(q,l)
  bool single_word = false;         // 0 < |Q| <= 64
};

/// True iff every edge of the snapshot carries the same label (an
/// edgeless snapshot qualifies vacuously). Early-exits on the second
/// distinct label, so multi-label data answers in O(1) typically and
/// O(|E|) worst case — the linear-time half of the Applicable check.
inline bool DataSingleLabeled(const Snapshot& snap) {
  const size_t num_edges = snap.num_edges();
  if (num_edges == 0) return true;
  const uint32_t label = snap.edge(0).label;
  for (size_t e = 1; e < num_edges; ++e)
    if (snap.edge(e).label != label) return false;
  return true;
}

/// True iff the query automaton is deterministic in the classical
/// sense: no epsilon-transitions, exactly one initial state, and at
/// most one distinct successor per (state, label). Duplicate parallel
/// transitions to the SAME successor are tolerated — the compiled delta
/// rows dedupe them anyway. O(|Delta|) with the small per-state fan-out
/// the Nfa representation assumes.
inline bool QueryDeterministic(const Nfa& query) {
  if (query.num_states() == 0) return false;
  if (query.has_epsilon()) return false;
  if (query.initial().Count() != 1) return false;
  for (uint32_t q = 0; q < query.num_states(); ++q) {
    const Nfa::TransitionList& trans = query.Transitions(q);
    for (size_t i = 0; i < trans.size(); ++i)
      for (size_t j = i + 1; j < trans.size(); ++j)
        if (trans[i].first == trans[j].first &&
            trans[i].second != trans[j].second)
          return false;
  }
  return true;
}

/// The classification pass proper. Tier precedence: simple beats
/// single-word (a simple query with |Q| <= 64 still reports kSimple —
/// the general machinery it would fall back to dispatches on
/// words-per-set independently of the recorded tier).
inline QueryTraits ClassifyQuery(const Snapshot& snap, const Nfa& query) {
  QueryTraits traits;
  traits.single_word = query.num_states() > 0 && query.num_states() <= 64;
  traits.query_deterministic = QueryDeterministic(query);
  traits.data_single_label = DataSingleLabeled(snap);
  if (traits.data_single_label && traits.query_deterministic)
    traits.tier = ExecTier::kSimple;
  else if (traits.single_word)
    traits.tier = ExecTier::kSingleWord;
  else
    traits.tier = ExecTier::kGeneral;
  return traits;
}

}  // namespace dsw

#endif  // DSW_CORE_QUERY_TRAITS_H_
