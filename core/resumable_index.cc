#include "core/resumable_index.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

namespace dsw {

ResumableIndex::ResumableIndex(const Snapshot& snap, const Annotation& ann,
                               const AnnotateOptions& opts)
    : trimmed_(snap, ann, opts), adj_(snap.shared_label_index()) {
  BuildRanks();
}

ResumableIndex::ResumableIndex(const Snapshot& snap,
                               [[maybe_unused]] const Annotation& ann,
                               TrimmedIndex trimmed)
    : trimmed_(std::move(trimmed)), adj_(snap.shared_label_index()) {
  assert(trimmed_.num_levels() ==
             (ann.reachable() ? static_cast<uint32_t>(ann.lambda) + 1 : 0u) &&
         "trimmed index does not describe this annotation");
  BuildRanks();
}

void ResumableIndex::BuildRanks() {
  if (trimmed_.empty()) return;
  const uint32_t lambda = trimmed_.num_levels() - 1;

  // Sizing pass: every useful vertex below level lambda owns one rank
  // array as long as its out-degree, so the pool is allocated exactly.
  rank_off_.resize(lambda);
  uint32_t total = 0;
  for (uint32_t i = 0; i < lambda; ++i) {
    const LevelSets& lvl = trimmed_.UsefulLevel(i);
    rank_off_[i].resize(lvl.size());
    for (size_t pos = 0; pos < lvl.size(); ++pos) {
      const auto [begin, end] = adj_->OutSpan(lvl.vertex(pos));
      rank_off_[i][pos] = total;
      total += end - begin;
    }
  }
  rank_pool_.resize(total);

  // rank[k] = #candidates with (tgt_idx - span_begin) < k: one merge over
  // the span, O(out-degree) per slot.
  for (uint32_t i = 0; i < lambda; ++i) {
    const LevelSets& lvl = trimmed_.UsefulLevel(i);
    for (size_t pos = 0; pos < lvl.size(); ++pos) {
      const auto [begin, end] = adj_->OutSpan(lvl.vertex(pos));
      std::span<const TrimmedIndex::CandidateEdge> cand =
          trimmed_.CandidatesAt(i, pos);
      assert(std::is_sorted(cand.begin(), cand.end(),
                            [&](const auto& a, const auto& b) {
                              return adj_->PositionOf(a.edge) <
                                     adj_->PositionOf(b.edge);
                            }) &&
             "candidate list not ascending in target-pool rank");
      uint32_t* rank = rank_pool_.data() + rank_off_[i][pos];
      uint32_t c = 0;
      for (uint32_t k = begin; k < end; ++k) {
        while (c < cand.size() && adj_->PositionOf(cand[c].edge) < k) ++c;
        rank[k - begin] = c;
      }
    }
  }
}

}  // namespace dsw
