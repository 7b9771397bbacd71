// Stage 1 of the pipeline: BFS over the product D x A from
// (source, initial states), recording for every level i <= lambda the set
// of states q such that (v, q) is at BFS distance exactly i. lambda is
// the length of the shortest walk from source to target whose label word
// the query accepts (-1 when none exists).
//
// Key property used downstream (trimming and enumeration): for any
// *shortest* answer walk v_0 ... v_lambda and any accepting run
// q_0 ... q_lambda over it, the BFS distance of (v_i, q_i) is exactly i —
// a smaller distance would splice into a shorter accepting walk. So the
// per-level annotation captures every run of every answer, and each
// product pair lives on exactly one level.
//
// Cost: O(|D| x |A|) — each product edge (e, t) with e in E and t in
// Delta is relaxed at most once. The hot path is label-stratified: the
// BFS walks the database's CSR LabelIndex ("distinct labels out of v",
// then "edges of v with label l") and, once per (vertex, label), moves
// the whole frontier state set with a word-parallel OR of precompiled
// CompiledDelta rows — shared across every edge of the group. Levels are
// flat sorted-vertex arrays with contiguous word storage (LevelSets);
// the only per-level hash-free scratch is a dense slot table plus a
// touched list.
//
// Epsilon-NFAs (Section 5.1, the Thompson front-end) are handled "for
// free": CompiledDelta composes the after-side epsilon-closure into
// every successor row, so a frontier moved through it stays
// closure-saturated by induction (the initial level is saturated
// explicitly), and each (v, q) pair is still marked at most once via the
// seen bitmap. Downstream, levels being closure-saturated means a
// labeled transition out of *any* member covers the "epsilon before the
// edge" half of an effective step; the "epsilon after" half is already
// inside the delta rows TrimmedIndex reuses, so the enumerator's
// state-set propagation needs no change at all.
//
// The annotation also snapshots the compiled query (delta rows, final
// states, per-state epsilon-closures) so the later stages (TrimmedIndex,
// enumerators, whose bench-fixed constructors do not receive the Nfa)
// need no reference back to it.
//
// Annotate stops once it seals level lambda, so the annotation of target
// t is exactly levels [0, lambda_t] of one BFS rooted at the source —
// the paper's Section 5.3 multi-target observation. SourceAnnotation
// keeps that one BFS per (snapshot, automaton, source), grows it on
// demand and hands each target a copy of its prefix; Annotate() is the
// unshared special case (grow to one target, move the levels out), so
// there is exactly one single-source product BFS in the codebase.

#ifndef DSW_CORE_ANNOTATE_H_
#define DSW_CORE_ANNOTATE_H_

#include <atomic>
#include <cstdint>
#include <cstddef>
#include <mutex>
#include <vector>

#include "core/database.h"
#include "core/level_sets.h"
#include "core/nfa.h"
#include "util/state_set.h"

namespace dsw {

/// Knobs of the preprocessing stages (annotate + trim).
struct AnnotateOptions {
  /// Test/bench knob for the execution-tier layer (util/word_kernel.h):
  /// when true, annotate and trim run the generic multi-word kernels
  /// even for one-word (|Q| <= 64) queries, instead of dispatching to
  /// the collapsed single-word kernels. Results are bit-identical either
  /// way (asserted by tests/exec_tier_test.cc); bench_fastpath uses the
  /// flag to measure the kernel win in isolation.
  bool force_multi_word = false;
};

struct Annotation {
  /// Length of the shortest accepting walk; -1 if target is unreachable
  /// under the query.
  int32_t lambda = -1;
  uint32_t num_states = 0;
  uint32_t source = 0;
  uint32_t target = 0;

  /// levels[i]: sorted vertices with the states q whose product pair
  /// (v, q) has BFS distance exactly i; contiguous word storage.
  /// Populated for i in [0, lambda] when reachable() is true.
  std::vector<LevelSets> levels;

  /// Snapshot of the query, for the Nfa-free downstream stages: the
  /// precompiled per-(label, state) successor rows (after-side
  /// epsilon-closure composed in) and the final states.
  CompiledDelta delta;
  StateSet final_states;

  /// Per-state epsilon-closures (each contains the state itself); empty
  /// when the query is epsilon-free, in which case closure(q) = {q}.
  std::vector<StateSet> eps_closure;

  bool reachable() const { return lambda >= 0; }
  bool has_epsilon() const { return !eps_closure.empty(); }
  uint32_t words_per_set() const { return (num_states + 63) / 64; }

  /// True iff q alone accepts, i.e. reaches a final state by epsilon
  /// moves only (q itself included).
  bool AcceptsAt(uint32_t q) const {
    return has_epsilon() ? eps_closure[q].Intersects(final_states)
                         : final_states.Test(q);
  }

  /// ORs into \p out every state reachable from \p q by one *effective*
  /// labeled step eps* . label . eps* (out is not cleared; capacity must
  /// be num_states). Used by the naive baseline; the trimmed pipeline
  /// reads the delta rows directly.
  void EffectiveSuccessorsInto(uint32_t q, uint32_t label,
                               StateSet* out) const {
    if (!delta.HasLabel(label)) return;
    uint32_t wps = words_per_set();
    if (!has_epsilon()) {
      out->UnionWithWords(delta.SuccessorWords(label, q), wps);
      return;
    }
    eps_closure[q].ForEach([&](uint32_t q1) {
      out->UnionWithWords(delta.SuccessorWords(label, q1), wps);
    });
  }

  /// States annotated at (level, v); null view if none.
  StateSetView StatesAt(uint32_t level, uint32_t v) const {
    return level < levels.size() ? levels[level].Find(v) : StateSetView();
  }

  /// Heap footprint estimate, for the plan cache's byte budget.
  size_t ApproxBytes() const {
    size_t bytes = sizeof(Annotation) + delta.ApproxBytes() +
                   final_states.num_words() * sizeof(uint64_t);
    for (const LevelSets& lvl : levels) bytes += lvl.ApproxBytes();
    for (const StateSet& c : eps_closure)
      bytes += sizeof(StateSet) + c.num_words() * sizeof(uint64_t);
    return bytes;
  }
};

/// The product BFS rooted at one source, for one automaton, on one
/// snapshot, grown on demand. Holds exact levels [0, D], the compiled
/// query and an exhausted flag (level D + 1 would be empty). Thread-safe:
/// Prefix() grows and copies under the object's own mutex, so concurrent
/// requests for different targets run the BFS once between them.
class SourceAnnotation {
 public:
  /// Seeds level 0 (the closure-saturated initial states at \p source);
  /// no level is relaxed until a Prefix() asks for one. An out-of-range
  /// source, or an automaton without states or initial states, is
  /// exhausted at once, with no levels.
  SourceAnnotation(Snapshot snap, const Nfa& query, uint32_t source,
                   const AnnotateOptions& opts = {});

  /// Adopts ready-made exact levels [0, D] of the BFS from
  /// \p bfs.source on \p snap, with their query snapshot: a PrepareBatch
  /// slice, or a horizon-repaired copy (core/delta_annotate.h). lambda
  /// and target are ignored. Not exhausted: growth may continue past D.
  SourceAnnotation(Snapshot snap, Annotation bfs,
                   const AnnotateOptions& opts = {});

  SourceAnnotation(const SourceAnnotation&) = delete;
  SourceAnnotation& operator=(const SourceAnnotation&) = delete;

  /// Target \p target's annotation, bit-identical to Annotate(snap,
  /// query, source, target): grows the BFS level by level until the
  /// target carries a final state or the product is exhausted, then
  /// copies levels [0, lambda_t]. An out-of-range target gets lambda = -1
  /// without growing. \p grew, when given, reports whether this call
  /// relaxed any level.
  Annotation Prefix(uint32_t target, bool* grew = nullptr);

  /// Annotate()'s path: grows to \p target and moves the levels out.
  Annotation TakePrefix(uint32_t target) &&;

  /// A copy of the first \p count levels built so far (all of [0, D]
  /// by default) with the query snapshot, lambda = -1: the input of a
  /// horizon repair.
  Annotation Levels(size_t count = SIZE_MAX) const;

  /// Heap footprint of the levels and the query snapshot, as of the
  /// last growth; readable without the lock.
  size_t ApproxBytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  // Lambda of \p target, growing as needed; -1 when out of range or the
  // product is exhausted first. Requires mu_ held (or sole ownership).
  int32_t ReachLocked(uint32_t target, bool* grew);
  // The query snapshot and the first \p count levels; lambda = -1.
  // Requires mu_ held.
  Annotation CopyLocked(size_t count) const;

  mutable std::mutex mu_;
  const Snapshot snap_;
  const bool force_multi_word_;
  Annotation bfs_;  // levels [0, D] + query snapshot; lambda, target unused
  bool exhausted_ = false;
  std::atomic<size_t> bytes_{0};
};

/// Result of one block-replicated product BFS from a source *set*: the
/// multi-source prefix-sharing mode of the plan cache. Each source j
/// owns an independent "block" of |Q| states — block j occupies words
/// [j * block_words, (j + 1) * block_words) of every wide state set, so
/// the word-parallel frontier machinery runs all blocks at once while
/// the blocks never mix (delta rows are |Q|-bit, so a block's relax
/// writes stay inside its word-aligned slice). Per-block BFS therefore
/// evolves exactly as a per-source Annotate would, and Slice(j) peels
/// block j back out *bit-identically* — same levels, same sorted
/// vertices, same words (asserted against per-source runs in
/// tests/multi_source_annotate_test.cc).
///
/// A block is deactivated (no further relaxation) the moment its
/// (target, final) pair appears at a sealed level — mirroring the
/// per-source early return — so sources with small lambda stop paying
/// for sources with large lambda. Invalid (out-of-range) and exhausted
/// sources end with lambda = -1, exactly like Annotate.
struct MultiSourceAnnotation {
  uint32_t num_states = 0;
  uint32_t num_blocks = 0;   // == sources.size()
  uint32_t block_words = 0;  // ceil(num_states / 64)
  uint32_t target = 0;
  std::vector<uint32_t> sources;
  std::vector<int32_t> lambdas;  // per block; -1 = unreachable

  /// Wide levels: level i holds, for every touched vertex, the
  /// num_blocks * block_words * 64-bit concatenation of all blocks'
  /// state sets at distance exactly i (distance is per block).
  std::vector<LevelSets> wide_levels;

  // Query snapshot shared by every slice (see Annotation).
  CompiledDelta delta;
  StateSet final_states;
  std::vector<StateSet> eps_closure;

  /// Extracts source j's view as a standalone Annotation, bit-identical
  /// to Annotate(snap, query, sources[j], target). O(sum of wide level
  /// sizes) word copies plus one CompiledDelta copy.
  Annotation Slice(size_t j) const;

  /// Heap footprint estimate, for the plan cache's byte budget.
  size_t ApproxBytes() const {
    size_t bytes = sizeof(MultiSourceAnnotation) + delta.ApproxBytes() +
                   final_states.num_words() * sizeof(uint64_t) +
                   sources.capacity() * sizeof(uint32_t) +
                   lambdas.capacity() * sizeof(int32_t);
    for (const LevelSets& lvl : wide_levels) bytes += lvl.ApproxBytes();
    for (const StateSet& c : eps_closure)
      bytes += sizeof(StateSet) + c.num_words() * sizeof(uint64_t);
    return bytes;
  }
};

/// Runs one product BFS that annotates from every source in \p sources
/// at once (block-replicated; see MultiSourceAnnotation), on the
/// generic word loops: the block dimension is the word-level
/// parallelism here. Duplicate sources are legal (independent equal
/// blocks); invalid sources yield lambda = -1 slices.
MultiSourceAnnotation AnnotateMultiSource(const Snapshot& snap,
                                          const Nfa& query,
                                          const std::vector<uint32_t>& sources,
                                          uint32_t target);

/// Runs the product BFS against a frozen snapshot, on the calling
/// thread: an unshared SourceAnnotation grown to \p target. The snapshot
/// carries the label-stratified adjacency built at Freeze() time, so
/// annotation is a pure read — any number of Annotate calls can run
/// concurrently against one shared Snapshot. \p opts only selects the
/// word kernel (see AnnotateOptions).
Annotation Annotate(const Snapshot& snap, const Nfa& query, uint32_t source,
                    uint32_t target, const AnnotateOptions& opts = {});

}  // namespace dsw

#endif  // DSW_CORE_ANNOTATE_H_
