// The memoryless enumeration index (Section 4.2 / Theorem 18). The
// enumerator's DFS keeps a stack of per-level cursors between outputs;
// memoryless resumption keeps *nothing* — given only the previous
// answer, the next one is recomputed in O(lambda x |A|) by a guided run
// that repositions every level's cursor from the answer's edges alone.
// That makes enumeration pageable and restartable: a server can ship an
// answer to a client, drop the query's enumeration state entirely, and
// resume from the answer echoed back later.
//
// The guided run needs one thing beyond what the DFS already walks: an
// O(1) seek into the candidate lists of the TrimmedIndex. A vertex's
// trimmed candidate list is ascending in the global target-pool rank
// (LabelIndex::PositionOf — the sweep walks label groups in label order
// and targets in pool order), and the vertex's out-edges sit
// contiguously in that pool. So per useful (level, vertex) slot one flat
// rank array over the vertex's out-edge span suffices:
//
//   rank[k] = #candidates of the slot whose (tgt_idx - span_begin) < k
//
// and SeekGe(edge) — "first candidate at or after this edge" — is one
// subtraction and one load, O(1), instead of the linear re-advance that
// costs an extra in-degree factor d (the E8 strawman). Rank arrays cost
// the sum of out-degrees over useful (level, vertex) pairs, within the
// paper's O(|D| x |A|) index budget.
//
// The index holds exactly three things: its TrimmedIndex (which serves
// iteration as-is), shared ownership of the snapshot's LabelIndex (the
// edge -> rank map and the out-edge spans, read in place, never
// copied), and the rank arrays. Nothing in it is sized by the graph.
// Slots are addressed by (level, position in the useful level), like
// TrimmedIndex::CandidatesAt / BListAt; seek results are positions in
// the slot's candidate list, so an enumerator holds no pointers into
// the index and the whole (index, previous answer) pair is trivially
// serializable — the memoryless property made concrete.

#ifndef DSW_CORE_RESUMABLE_INDEX_H_
#define DSW_CORE_RESUMABLE_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/annotate.h"
#include "core/database.h"
#include "core/trimmed_index.h"

namespace dsw {

/// Sentinel of SlotAt (no slot for that (level, vertex)) and SeekGe (the
/// edge is not an out-edge of the slot's vertex).
inline constexpr uint32_t kNoSlot = UINT32_MAX;

class ResumableIndex {
 public:
  /// Builds the trimmed structure (one backward sweep) and the rank
  /// arrays on top; a pure read of the snapshot, safe to run
  /// concurrently with other readers. Release builds never consult the
  /// database after construction; debug builds keep a back-pointer for
  /// the stale-snapshot assertion (TrimmedIndex::AssertFresh), so there
  /// the database must outlive the index. \p opts selects the word
  /// kernel of the backward sweep (same structure either way).
  ResumableIndex(const Snapshot& snap, const Annotation& ann,
                 const AnnotateOptions& opts = {});

  /// Same rank arrays on top of an already-built trimmed structure
  /// (taken by value; move it in). This is the delta-repair path:
  /// DeltaTrim patched the old TrimmedIndex against an insert-only delta
  /// and only the rank arrays remain to be rebuilt. \p trimmed must
  /// describe \p ann against \p snap.
  ResumableIndex(const Snapshot& snap, const Annotation& ann,
                 TrimmedIndex trimmed);

  /// The underlying trimmed structure (useful sets, candidate lists,
  /// B-lists).
  const TrimmedIndex& trimmed() const { return trimmed_; }
  bool empty() const { return trimmed_.empty(); }

  /// Position of \p v in useful level \p level — the slot whose
  /// candidate list the guided run seeks in — or kNoSlot when v is not
  /// useful there or level >= lambda (level lambda has no candidates).
  /// O(log |level|); the enumerator needs it only for the source, deeper
  /// slots follow from CandidateEdge::next_pos.
  uint32_t SlotAt(uint32_t level, uint32_t v) const {
    if (level >= rank_off_.size()) return kNoSlot;
    size_t pos = trimmed_.UsefulLevel(level).FindIndex(v);
    return pos == LevelSets::npos ? kNoSlot : static_cast<uint32_t>(pos);
  }

  /// Position, in the candidate list of slot (\p level, \p pos), of the
  /// first candidate whose tgt_idx is >= tgt_idx(\p edge) — the
  /// candidate for \p edge itself when it is one, num_cand when every
  /// candidate precedes it. kNoSlot when \p edge is not an out-edge of
  /// the slot's vertex; any edge id is safe to pass, so client-echoed
  /// walks are checked in release builds too. O(1): a span lookup in the
  /// shared LabelIndex and one rank-array load.
  uint32_t SeekGe(uint32_t level, uint32_t pos, uint32_t edge) const {
    trimmed_.AssertFresh();
    if (edge >= adj_->num_edges()) return kNoSlot;
    const auto [begin, end] =
        adj_->OutSpan(trimmed_.UsefulLevel(level).vertex(pos));
    const uint32_t rel = adj_->PositionOf(edge) - begin;
    if (rel >= end - begin) return kNoSlot;
    return rank_pool_[rank_off_[level][pos] + rel];
  }

  /// Heap footprint estimate (including the owned TrimmedIndex, not the
  /// LabelIndex the snapshot already owns), for the plan cache's byte
  /// budget.
  size_t ApproxBytes() const {
    size_t bytes = sizeof(ResumableIndex) - sizeof(TrimmedIndex) +
                   trimmed_.ApproxBytes() +
                   rank_off_.capacity() * sizeof(rank_off_[0]) +
                   rank_pool_.capacity() * sizeof(uint32_t);
    for (const auto& o : rank_off_) bytes += o.capacity() * sizeof(uint32_t);
    return bytes;
  }

 private:
  // Lays out the rank arrays from trimmed_ (shared tail of both
  // constructors).
  void BuildRanks();

  TrimmedIndex trimmed_;
  std::shared_ptr<const LabelIndex> adj_;
  // Per level below lambda, parallel to the useful level's vertices: the
  // offset of the slot's rank array (one entry per out-edge of the
  // vertex) in rank_pool_.
  std::vector<std::vector<uint32_t>> rank_off_;
  std::vector<uint32_t> rank_pool_;
};

}  // namespace dsw

// The memoryless subsystem is one unit: every consumer of the index
// also wants the enumerator that drives it. The include sits below the
// class so either header can be included first.
#include "core/resumable_enumerator.h"  // IWYU pragma: export

#endif  // DSW_CORE_RESUMABLE_INDEX_H_
