#include "core/resumable_enumerator.h"

#include <cassert>

namespace dsw {

ResumableEnumerator::ResumableEnumerator(const Annotation& ann,
                                         const ResumableIndex& index,
                                         uint32_t source, uint32_t target,
                                         bool force_multi_word)
    : index_(&index),
      delta_(&ann.delta),
      lambda_(ann.lambda),
      wps_(ann.words_per_set()),
      single_word_(ann.words_per_set() == 1 && !force_multi_word) {
  // The endpoints are baked into the annotation and index; the
  // parameters exist for symmetry with the rest of the pipeline and a
  // mismatch is a caller bug, not a valid different query.
  assert(source == ann.source && target == ann.target);
  (void)target;
  if (!ann.reachable() || index.empty()) return;
  StateSetView r0 = index.trimmed().Useful(0, source);
  if (!r0 || r0.None()) return;
  r0_.Assign(r0);
  has_answers_ = true;
  if (lambda_ > 0) {
    pos0_ = index.SlotAt(0, source);
    assert(pos0_ != kNoSlot && "answers exist but source has no slot");
  }

  stack_.resize(static_cast<size_t>(lambda_) + 1);
  for (Frame& f : stack_) f.states = StateSet(ann.num_states);
  Rewind();
}

void ResumableEnumerator::Enter(Frame* f, uint32_t level,
                                uint32_t pos) const {
  f->cur = 0;
  f->cand = index_->trimmed().CandidatesAt(level, pos);
  f->blist = index_->trimmed().BListAt(level, pos);
}

void ResumableEnumerator::Rewind() {
  valid_ = false;
  walk_.edges.clear();
  if (!has_answers_) return;
  stack_[0].states.Assign(r0_);
  depth_ = 0;
  if (lambda_ == 0) {
    valid_ = true;  // the single empty walk
    return;
  }
  Enter(&stack_[0], 0, pos0_);
  FindNext();
}

void ResumableEnumerator::Next() {
  if (!valid_) return;
  valid_ = false;
  if (depth_ == 0) return;  // lambda == 0: the empty walk was the answer
  --depth_;                 // leave the complete answer
  walk_.edges.pop_back();
  FindNext();
}

void ResumableEnumerator::FindNext() {
  // Invariant: depth_ < lambda on entry. Depth-lambda frames are
  // complete answers and are returned (and later popped) immediately.
  //
  // The certificate structure guarantees every candidate NextLive hands
  // back is live for the frame's reachable set, so AdvanceStates below
  // cannot fail and the loop does at most lambda pops + lambda pushes
  // between outputs — the Theorem 2 delay.
  while (true) {
    Frame& f = stack_[depth_];
    const uint32_t c =
        f.blist.NextLive(f.states, f.cur, &stats_.probes, single_word_);
    if (c < f.blist.num_cand) {
      const TrimmedIndex::CandidateEdge& ce = f.cand[c];
      f.cur = c + 1;
      ++stats_.cells;
      Frame& next = stack_[depth_ + 1];
      const bool alive = enumerator_detail::AdvanceStates(
          *delta_, wps_, f.states, ce.label,
          index_->trimmed().UsefulStates(depth_ + 1, ce.next_pos),
          &next.states, &stats_.row_ors, single_word_);
      assert(alive && "certificate handed out a dead candidate");
      (void)alive;
      walk_.edges.push_back(ce.edge);
      ++depth_;
      if (static_cast<int32_t>(depth_) == lambda_) {
        valid_ = true;
        return;
      }
      // ce.dst is useful at depth_ (< lambda); next_pos locates its slot
      // in O(1), no binary search.
      Enter(&next, depth_, ce.next_pos);
      continue;
    }
    if (depth_ == 0) return;  // root exhausted: enumeration done
    --depth_;
    walk_.edges.pop_back();
  }
}

bool ResumableEnumerator::SeekAfter(const Walk& prev) {
  // Every rejection below returns with valid_ still false: prev is
  // client-echoed input, so a non-answer is a status, not a bug.
  valid_ = false;
  if (!has_answers_) return false;
  if (prev.edges.size() != static_cast<size_t>(lambda_)) return false;
  if (lambda_ == 0) {
    // The empty walk is the unique answer and has no successor.
    depth_ = 0;
    walk_.edges.clear();
    return true;
  }

  // Guided run (Theorem 18): re-derive the reachable-run sets R level
  // by level from prev's edges alone and point every level's cursor
  // just past prev's edge. O(lambda x |A|) total — the SeekGe calls are
  // O(1) each, so no in-degree factor anywhere; only level 0 needed a
  // vertex lookup (at construction), deeper slots follow from each
  // candidate's next_pos.
  walk_.edges.assign(prev.edges.begin(), prev.edges.end());
  stack_[0].states.Assign(r0_);
  uint32_t pos = pos0_;
  for (uint32_t i = 0; i < static_cast<uint32_t>(lambda_); ++i) {
    Frame& f = stack_[i];
    const uint32_t e = walk_.edges[i];
    ++stats_.seeks;
    Enter(&f, i, pos);
    // kNoSlot (e is no out-edge of the slot's vertex) is > num_cand.
    const uint32_t c = index_->SeekGe(i, pos, e);
    if (c >= f.blist.num_cand || f.cand[c].edge != e)
      return false;  // e survived no answer at this level
    const TrimmedIndex::CandidateEdge& ce = f.cand[c];
    if (!enumerator_detail::AdvanceStates(
            *delta_, wps_, f.states, ce.label,
            index_->trimmed().UsefulStates(i + 1, ce.next_pos),
            &stack_[i + 1].states, &stats_.row_ors, single_word_))
      return false;  // no accepting run threads through prev
    f.cur = c + 1;  // resume strictly after prev's choice
    pos = ce.next_pos;
  }

  // The stack is now exactly what the DFS holds when emitting prev; one
  // ordinary Next() yields the successor (or the clean end).
  depth_ = static_cast<uint32_t>(lambda_);
  valid_ = true;
  Next();
  return true;
}

}  // namespace dsw
