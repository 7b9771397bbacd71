// The simple-setting fast path (execution tier kSimple): single-labeled
// data plus a deterministic, epsilon-free query. Every walk of length i
// then carries the same word l^i, so the automaton contributes one
// state q_i per BFS level and the product BFS collapses to a plain
// vertex BFS (with a per-(vertex, state) seen filter, since a vertex
// may recur at a later level under a different state). Trimming keeps,
// per level, the vertices with an edge into the next useful level; and
// because the reachable-run set of ANY prefix is exactly {q_i}, every
// candidate edge is live from every prefix — no reachable-set
// propagation, no B-list certificate, no per-edge state work. The DFS
// below therefore advances a plain cursor per frame: O(lambda) pops +
// pushes of integers between outputs, the O(lambda) delay the paper's
// introduction promises for this setting (vs the general tier's
// O(lambda x |A|)).
//
// Answers, and their order, are bit-identical to the general pipeline's
// (tests/exec_tier_test.cc oracles them against ResumableEnumerator):
// candidate edges are collected in the same label-stratified
// LabelIndex order the trim sweep uses, and with R always equal to the
// full useful set the general DFS also visits candidates strictly in
// list order.
//
// Applicability is the linear-time check of core/query_traits.h:
// DataSingleLabeled (early-exit O(|E|)) + QueryDeterministic
// (O(|Delta|)). Construction is O((|V| + |E|) x |Q|) worst case like
// the general annotate, but with ~1-state levels the constants are a
// plain BFS's.

#ifndef DSW_CORE_SIMPLE_ENUMERATOR_H_
#define DSW_CORE_SIMPLE_ENUMERATOR_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/nfa.h"
#include "core/query_traits.h"
#include "core/walk.h"

namespace dsw {

class SimpleEnumerator {
 public:
  /// The gate for this tier: true iff (snap, query) is a simple-setting
  /// instance. Linear time (see header comment); ClassifyQuery reports
  /// the same verdict as QueryTraits::tier == kSimple.
  static bool Applicable(const Snapshot& snap, const Nfa& query) {
    return ClassifyQuery(snap, query).tier == ExecTier::kSimple;
  }

  /// Precondition: Applicable(snap, query) — asserted in debug builds.
  /// Positions on the first answer (Valid() false when none exists).
  /// Pure read of the snapshot; the enumerator copies out everything it
  /// needs, so it does not retain snap or query.
  SimpleEnumerator(const Snapshot& snap, const Nfa& query, uint32_t source,
                   uint32_t target) {
    assert(Applicable(snap, query) &&
           "SimpleEnumerator on a non-simple instance");
    const uint32_t num_vertices = snap.num_vertices();
    if (source >= num_vertices || target >= num_vertices ||
        query.num_states() == 0)
      return;

    // The deterministic query has exactly one initial state.
    uint32_t q0 = 0;
    query.initial().ForEach([&](uint32_t q) { q0 = q; });
    const uint32_t num_states = query.num_states();
    const bool has_edges = snap.num_edges() > 0;
    const uint32_t data_label = has_edges ? snap.edge(0).label : 0;

    // Forward BFS. Levels hold sorted vertex lists; the state at level i
    // is determined (q_{i+1} = delta(q_i, l)), so the product seen
    // filter is a flat |V| x |Q| bitmap over (vertex, state) pairs —
    // a vertex re-enters at a later level only under a fresh state,
    // exactly like the product BFS's seen matrix.
    std::vector<uint64_t> seen(
        (static_cast<size_t>(num_vertices) * num_states + 63) / 64, 0);
    auto mark_new = [&](uint32_t v, uint32_t q) {
      const size_t bit = static_cast<size_t>(v) * num_states + q;
      const uint64_t w = uint64_t{1} << (bit & 63);
      if (seen[bit >> 6] & w) return false;
      seen[bit >> 6] |= w;
      return true;
    };

    const LabelIndex& adj = snap.label_index();
    std::vector<std::vector<uint32_t>> levels;
    std::vector<uint32_t> state_at;  // q_i per level
    mark_new(source, q0);
    levels.push_back({source});
    state_at.push_back(q0);

    int32_t lambda = -1;
    std::vector<uint32_t> next;
    for (uint32_t i = 0;; ++i) {
      // Sealed-level check, mirroring Annotate's early return: target
      // present with a final state ends the BFS at lambda = i.
      const std::vector<uint32_t>& level = levels[i];
      if (query.IsFinal(state_at[i]) &&
          std::binary_search(level.begin(), level.end(), target)) {
        lambda = static_cast<int32_t>(i);
        break;
      }
      // One deterministic step on the (single) data label; a missing
      // transition kills the whole frontier at once.
      int64_t q_next = -1;
      for (const auto& [l, to] : query.Transitions(state_at[i]))
        if (l == data_label) {
          q_next = to;
          break;
        }
      if (q_next < 0 || !has_edges) break;
      next.clear();
      for (uint32_t v : level)
        for (const LabelIndex::Group& group : adj.GroupsOf(v))
          for (const LabelIndex::Target& t : adj.Targets(group))
            if (mark_new(t.dst, static_cast<uint32_t>(q_next)))
              next.push_back(t.dst);
      if (next.empty()) break;
      std::sort(next.begin(), next.end());
      levels.push_back(next);
      state_at.push_back(static_cast<uint32_t>(q_next));
    }
    if (lambda < 0) return;
    lambda_ = lambda;

    // Backward trim: a vertex is useful at level i iff it has an edge
    // into a useful vertex at level i + 1; its candidate edges are
    // collected in the same GroupsOf/Targets order the general trim
    // sweep walks, which is what keeps enumeration order identical.
    useful_.assign(static_cast<size_t>(lambda) + 1, {});
    ranges_.assign(lambda, {});
    useful_[lambda].push_back(target);
    for (int32_t i = lambda - 1; i >= 0; --i) {
      const std::vector<uint32_t>& next_useful = useful_[i + 1];
      for (uint32_t v : levels[i]) {
        const uint32_t begin = static_cast<uint32_t>(pool_.size());
        for (const LabelIndex::Group& group : adj.GroupsOf(v))
          for (const LabelIndex::Target& t : adj.Targets(group)) {
            auto it = std::lower_bound(next_useful.begin(),
                                       next_useful.end(), t.dst);
            if (it != next_useful.end() && *it == t.dst)
              pool_.push_back(Cand{
                  t.edge,
                  static_cast<uint32_t>(it - next_useful.begin())});
          }
        if (pool_.size() > begin) {
          useful_[i].push_back(v);
          ranges_[i].emplace_back(begin,
                                  static_cast<uint32_t>(pool_.size()));
        }
      }
    }
    // lambda >= 0 means an accepting walk exists, and its first edge
    // makes the source useful at level 0.
    assert(useful_[0].size() == 1 && useful_[0][0] == source);

    stack_.assign(static_cast<size_t>(lambda) + 1, Frame{});
    depth_ = 0;
    if (lambda_ == 0) {
      valid_ = true;  // the single empty walk
      return;
    }
    stack_[0] = Frame{ranges_[0][0].first, ranges_[0][0].second};
    FindNext();
  }

  int32_t lambda() const { return lambda_; }

  /// True while positioned on an answer.
  bool Valid() const { return valid_; }

  /// Advances to the next answer, or invalidates the enumerator.
  void Next() {
    if (!valid_) return;
    valid_ = false;
    if (depth_ == 0) return;  // lambda == 0: the empty walk was the answer
    --depth_;                 // leave the complete answer
    walk_.edges.pop_back();
    FindNext();
  }

  /// The current answer; only meaningful while Valid().
  const Walk& walk() const { return walk_; }

 private:
  struct Cand {
    uint32_t edge;
    uint32_t next_pos;  // position of dst in useful_[level + 1]
  };
  struct Frame {
    uint32_t cur = 0;  // next candidate position in pool_
    uint32_t end = 0;
  };

  void FindNext() {
    // Every candidate is live (the reachable-run set is always the full
    // {q_i}), so the frame cursor IS the next answer prefix: lambda
    // pops plus lambda pushes of plain integers between outputs.
    while (true) {
      Frame& f = stack_[depth_];
      if (f.cur < f.end) {
        const Cand& ce = pool_[f.cur++];
        walk_.edges.push_back(ce.edge);
        ++depth_;
        if (static_cast<int32_t>(depth_) == lambda_) {
          valid_ = true;
          return;
        }
        const auto& [begin, end] = ranges_[depth_][ce.next_pos];
        stack_[depth_] = Frame{begin, end};
        continue;
      }
      if (depth_ == 0) return;  // root exhausted: enumeration done
      --depth_;
      walk_.edges.pop_back();
    }
  }

  int32_t lambda_ = -1;
  // Per level: sorted useful vertices, and (for levels < lambda) each
  // vertex's [begin, end) candidate range in pool_, parallel to useful_.
  std::vector<std::vector<uint32_t>> useful_;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> ranges_;
  std::vector<Cand> pool_;
  std::vector<Frame> stack_;
  uint32_t depth_ = 0;
  Walk walk_;
  bool valid_ = false;
};

}  // namespace dsw

#endif  // DSW_CORE_SIMPLE_ENUMERATOR_H_
