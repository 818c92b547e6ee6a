// Streaming operator implementations. The Stack-Tree join is a faithful
// incremental re-expression of the one-shot kernel in stack_tree.cc: same
// push/pop discipline, same match order, same budget and counter
// semantics, so the two engines are byte- and counter-identical. Keep the
// two files in sync when touching either.

#include "exec/operator.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "exec/executor.h"
#include "exec/governor.h"
#include "exec/vector_kernels.h"
#include "storage/differential_index.h"

namespace sjos {

namespace {

std::vector<PatternNodeId> ConcatSlots(const Operator& left,
                                       const Operator& right) {
  std::vector<PatternNodeId> slots = left.slots();
  slots.insert(slots.end(), right.slots().begin(), right.slots().end());
  return slots;
}

std::vector<PatternNodeId> AppendSlot(const Operator& child,
                                      PatternNodeId target) {
  std::vector<PatternNodeId> slots = child.slots();
  slots.push_back(target);
  return slots;
}

int SlotIn(const std::vector<PatternNodeId>& slots, PatternNodeId node) {
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] == node) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

// ---------------------------------------------------------------------------
// Operator base

Operator::Operator(ExecContext* ctx, int plan_index,
                   std::vector<PatternNodeId> slots, int ordered_by_slot)
    : ctx_(ctx),
      plan_index_(plan_index),
      slots_(std::move(slots)),
      ordered_by_slot_(ordered_by_slot) {}

Operator::~Operator() = default;

ColumnBatch Operator::MakeBatch() const {
  ColumnBatch batch(slots_);
  batch.set_ordered_by_slot(ordered_by_slot_);
  return batch;
}

Status Operator::OpenTimed(Operator* op) {
  TraceSpan span("Open:", op->Name());
  Timer t;
  Status st = op->Open();
  op->op_stats().time_ms += t.ElapsedMs();
  return st;
}

Status Operator::PullTimed(Operator* op, ColumnBatch* out, bool* eos) {
  // The batch boundary is the streaming engine's cooperative yield point:
  // every limit check and injected fault lands here, between batches,
  // never mid-batch.
  SJOS_FAILPOINT("exec.batch");
  if (op->ctx_->governor != nullptr) {
    SJOS_RETURN_IF_ERROR(op->ctx_->governor->Check(op->ctx_->cur_live_bytes,
                                                   &op->ctx_->batch_rows));
  }
  TraceSpan span("NextBatch:", op->Name());
  out->Clear();
  Timer t;
  Status st = op->NextBatch(out, eos);
  OpStats& s = op->op_stats();
  s.time_ms += t.ElapsedMs();
  ++s.batches;
  s.rows += out->size();
  return st;
}

void Operator::OwnAdd(uint64_t rows) {
  own_live_rows_ += rows;
  OpStats& s = op_stats();
  if (own_live_rows_ > s.peak_live_rows) s.peak_live_rows = own_live_rows_;
  ctx_->AddLive(rows, rows * arity() * sizeof(NodeId));
}

void Operator::OwnSub(uint64_t rows) {
  own_live_rows_ -= rows;
  ctx_->SubLive(rows, rows * arity() * sizeof(NodeId));
}

Status Operator::PullChild(Operator* child, ColumnBatch* batch, size_t* cursor,
                           bool* child_eos) {
  OwnSub(batch->size());
  *cursor = 0;
  if (*child_eos) {
    batch->Clear();
    return Status::OK();
  }
  Status st = PullTimed(child, batch, child_eos);
  OwnAdd(batch->size());
  return st;
}

// ---------------------------------------------------------------------------
// ScanOperator

ScanOperator::ScanOperator(ExecContext* ctx, int plan_index, PatternNodeId node)
    : Operator(ctx, plan_index, {node}, /*ordered_by_slot=*/0), node_(node) {}

Status ScanOperator::Open() {
  SJOS_FAILPOINT("exec.scan");
  pnode_ = &ctx_->pattern->node(node_);
  const TagId tag = ctx_->db->doc().dict().Find(pnode_->tag);
  if (tag != kInvalidTag) {
    std::span<const NodeId> postings = ctx_->db->index().Postings(tag);
    const DocView view = ctx_->db->View();
    if (view.HasOverlay()) {
      // Differential overlay: materialize the order-preserving merge once
      // (deletes filtered, overlay inserts spliced in) and stream from it.
      merged_ = MergedPostings(postings, view, tag);
      data_ = merged_.data();
      count_ = merged_.size();
    } else {
      data_ = postings.data();
      count_ = postings.size();
    }
  }
  pos_ = 0;
  return Status::OK();
}

Status ScanOperator::NextBatch(ColumnBatch* out, bool* eos) {
  SJOS_FAILPOINT("exec.scan.next");
  const size_t cap = ctx_->batch_rows;
  const DocView view = ctx_->db->View();
  const bool filtered = !pnode_->predicate.Empty();
  out->Reserve(cap);
  std::vector<NodeId>& col = out->Raw(0);
  if (!filtered) {
    // Predicate-free: the batch is a straight slice of the posting arena.
    const size_t take = std::min(cap - col.size(), count_ - pos_);
    col.insert(col.end(), data_ + pos_, data_ + pos_ + take);
    pos_ += take;
    ctx_->stats->rows_scanned += take;
  } else {
    while (pos_ < count_ && col.size() < cap) {
      const NodeId id = data_[pos_++];
      if (!pnode_->predicate.Matches(view.TextOf(id))) continue;
      col.push_back(id);
      ++ctx_->stats->rows_scanned;
    }
  }
  out->SetRows(col.size());
  *eos = pos_ >= count_;
  return Status::OK();
}

Status ScanOperator::Close() { return Status::OK(); }

// ---------------------------------------------------------------------------
// SortOperator

SortOperator::SortOperator(ExecContext* ctx, int plan_index,
                           PatternNodeId sort_by, size_t sort_slot,
                           std::unique_ptr<Operator> child)
    : Operator(ctx, plan_index, child->slots(),
               static_cast<int>(sort_slot)),
      sort_slot_(sort_slot),
      child_(std::move(child)) {
  (void)sort_by;
}

Status SortOperator::Open() {
  SJOS_FAILPOINT("exec.sort");
  SJOS_RETURN_IF_ERROR(Operator::OpenTimed(child_.get()));
  buffer_ = child_->MakeBatch();
  ColumnBatch batch = child_->MakeBatch();
  bool eos = false;
  while (!eos) {
    SJOS_RETURN_IF_ERROR(Operator::PullTimed(child_.get(), &batch, &eos));
    buffer_.AppendBatch(batch);
    OwnAdd(batch.size());
  }
  buffer_.SortBySlot(sort_slot_);
  static Histogram& spill = MetricsRegistry::Global().GetHistogram(
      "sjos_exec_sort_spill_rows");
  spill.Observe(buffer_.size());
  ctx_->stats->rows_sorted += buffer_.size();
  ++ctx_->stats->num_sorts;
  emit_row_ = 0;
  return Status::OK();
}

Status SortOperator::NextBatch(ColumnBatch* out, bool* eos) {
  const size_t cap = ctx_->batch_rows;
  const size_t total = buffer_.size();
  const size_t take = std::min(cap - out->size(), total - emit_row_);
  if (take > 0) {
    out->AppendRange(buffer_, emit_row_, take);
    emit_row_ += take;
  }
  if (emit_row_ >= total) {
    *eos = true;
    OwnSub(buffer_.size());
    buffer_.Clear();
    emit_row_ = 0;
  }
  return Status::OK();
}

Status SortOperator::Close() {
  OwnSub(buffer_.size());
  buffer_.Clear();
  return child_->Close();
}

// ---------------------------------------------------------------------------
// NavigateOperator

NavigateOperator::NavigateOperator(ExecContext* ctx, int plan_index,
                                   PatternNodeId /*anchor*/, size_t anchor_slot,
                                   PatternNodeId target, Axis axis,
                                   std::unique_ptr<Operator> child)
    : Operator(ctx, plan_index, AppendSlot(*child, target),
               child->ordered_by_slot()),
      target_(target),
      anchor_slot_(anchor_slot),
      axis_(axis),
      child_(std::move(child)) {}

Status NavigateOperator::Open() {
  SJOS_RETURN_IF_ERROR(Operator::OpenTimed(child_.get()));
  const PatternNode& tnode = ctx_->pattern->node(target_);
  tag_ = ctx_->db->doc().dict().Find(tnode.tag);
  tag_valid_ = tag_ != kInvalidTag;
  input_ = child_->MakeBatch();
  ++ctx_->stats->num_navigates;
  return Status::OK();
}

Status NavigateOperator::NextBatch(ColumnBatch* out, bool* eos) {
  const size_t cap = ctx_->batch_rows;
  const Document& doc = ctx_->db->doc();
  const DocView view = ctx_->db->View();
  const PatternNode& tnode = ctx_->pattern->node(target_);
  const size_t in_arity = input_.arity();
  for (;;) {
    if (row_active_) {
      // Emit the precomputed match offsets in chunks, pausing whenever the
      // batch fills with subtree candidates still unexamined — the same
      // resume points as a per-candidate walk.
      for (;;) {
        if (cand_off_ >= span_) {
          row_active_ = false;
          ++input_row_;
          break;
        }
        if (out->size() >= cap) return Status::OK();  // resume mid-subtree
        if (sel_pos_ >= sel_count_) {
          cand_off_ = span_;  // no matches left: the tail can't emit
          continue;
        }
        const size_t take = std::min(cap - out->size(), sel_count_ - sel_pos_);
        for (size_t c = 0; c < in_arity; ++c) {
          std::vector<NodeId>& col = out->Raw(c);
          col.insert(col.end(), take, input_.At(input_row_, c));
        }
        std::vector<NodeId>& tcol = out->Raw(in_arity);
        tcol.insert(tcol.end(), matches_.begin() + sel_pos_,
                    matches_.begin() + sel_pos_ + take);
        out->SetRows(out->size() + take);
        sel_pos_ += take;
        cand_off_ = match_off_[sel_pos_ - 1] + 1;
      }
    } else if (input_row_ < input_.size()) {
      if (!tag_valid_) {
        // Target tag absent: no output, but the child is still drained so
        // upstream counters do not depend on the target's presence.
        input_row_ = input_.size();
        continue;
      }
      const NodeId a = input_.At(input_row_, anchor_slot_);
      matches_.clear();
      match_off_.clear();
      if (!view.HasOverlay()) {
        // Overlay-free fast path: the subtree is the contiguous pre-order
        // slot range (aslot, end_slot], so the tag filter is a
        // selection-vector column sweep (slots == keys when dense).
        const NodeId aslot = doc.SlotOfKey(a);
        const NodeId end_slot = doc.EndSlotOf(aslot);
        ctx_->stats->nodes_navigated += end_slot - aslot;
        span_ = end_slot - aslot;  // subtree = slot range (aslot, end_slot]
        sel_.resize(span_);
        size_t m = kernels::SelEqualsU32(doc.TagData() + aslot + 1, span_,
                                         tag_, sel_.data());
        if (axis_ == Axis::kChild) {
          const int want = doc.LevelData()[aslot] + 1;
          size_t w = 0;
          for (size_t i = 0; i < m; ++i) {
            if (doc.LevelData()[aslot + 1 + sel_[i]] == want) {
              sel_[w++] = sel_[i];
            }
          }
          m = w;
        }
        matches_.reserve(m);
        match_off_.reserve(m);
        for (size_t i = 0; i < m; ++i) {
          matches_.push_back(doc.KeyOfSlot(aslot + 1 + sel_[i]));
          match_off_.push_back(sel_[i]);
        }
      } else {
        // Overlay merge: walk the merged subtree in document order,
        // counting every visited node into nodes_navigated.
        CollectSubtreeMatches(view, a, tag_, axis_ == Axis::kChild, &matches_,
                              &ctx_->stats->nodes_navigated);
        span_ = matches_.size();
        match_off_.resize(matches_.size());
        for (size_t i = 0; i < matches_.size(); ++i) {
          match_off_[i] = static_cast<uint32_t>(i);
        }
      }
      if (!tnode.predicate.Empty()) {
        size_t w = 0;
        for (size_t i = 0; i < matches_.size(); ++i) {
          if (tnode.predicate.Matches(view.TextOf(matches_[i]))) {
            matches_[w] = matches_[i];
            match_off_[w] = match_off_[i];
            ++w;
          }
        }
        matches_.resize(w);
        match_off_.resize(w);
      }
      sel_count_ = matches_.size();
      sel_pos_ = 0;
      cand_off_ = 0;
      row_active_ = true;
    } else if (!child_eos_) {
      SJOS_RETURN_IF_ERROR(
          PullChild(child_.get(), &input_, &input_row_, &child_eos_));
    } else {
      *eos = true;
      return Status::OK();
    }
  }
}

Status NavigateOperator::Close() {
  OwnSub(input_.size());
  input_.Clear();
  return child_->Close();
}

// ---------------------------------------------------------------------------
// StackTreeJoinBase

StackTreeJoinBase::StackTreeJoinBase(ExecContext* ctx, int plan_index,
                                     bool output_by_ancestor, Axis axis,
                                     size_t anc_slot, size_t desc_slot,
                                     std::unique_ptr<Operator> left,
                                     std::unique_ptr<Operator> right)
    : Operator(ctx, plan_index, ConcatSlots(*left, *right),
               output_by_ancestor
                   ? static_cast<int>(anc_slot)
                   : static_cast<int>(left->arity() + desc_slot)),
      by_ancestor_(output_by_ancestor),
      axis_(axis),
      anc_slot_(anc_slot),
      desc_slot_(desc_slot),
      left_(std::move(left)),
      right_(std::move(right)) {}

Status StackTreeJoinBase::Open() {
  SJOS_RETURN_IF_ERROR(Operator::OpenTimed(left_.get()));
  SJOS_RETURN_IF_ERROR(Operator::OpenTimed(right_.get()));
  anc_batch_ = left_->MakeBatch();
  desc_batch_ = right_->MakeBatch();
  pending_anc_.rows = left_->MakeBatch();
  desc_group_.rows = right_->MakeBatch();
  ++ctx_->stats->num_joins;
  return Status::OK();
}

Status StackTreeJoinBase::NextBatch(ColumnBatch* out, bool* eos) {
  DrainStage(out);
  // Re-read the cap every round: a nested child pull may shrink
  // ctx_->batch_rows (governor batch halving), and staging/backpressure
  // immediately honor the smaller value — a stale larger snapshot here
  // could then never be reached, spinning without progress.
  while (out->size() < ctx_->batch_rows && phase_ != Phase::kDone) {
    SJOS_RETURN_IF_ERROR(Step());
    DrainStage(out);
  }
  *eos = phase_ == Phase::kDone && staged_rows_ == 0;
  return Status::OK();
}

Status StackTreeJoinBase::Step() {
  switch (phase_) {
    case Phase::kCollectDesc:
      return CollectDescGroup();
    case Phase::kAdvanceAnc:
      return AdvanceAncTo(desc_group_.elem);
    case Phase::kMatch:
      return MatchDescGroup();
    case Phase::kFinalPops:
      return FinalPops();
    case Phase::kDrainLeft:
      return DrainLeft();
    case Phase::kDone:
      return Status::OK();
  }
  return Status::Internal("unknown join phase");
}

Status StackTreeJoinBase::CollectDescGroup() {
  for (;;) {
    if (desc_row_ < desc_batch_.size()) {
      const NodeId* col = desc_batch_.Col(desc_slot_);
      const NodeId e = col[desc_row_];
      if (desc_have_prev_ && e < desc_prev_) {
        return Status::InvalidArgument(
            "descendant input not sorted by join column");
      }
      desc_prev_ = e;
      desc_have_prev_ = true;
      if (desc_group_valid_ && e != desc_group_.elem) {
        // Group complete; the differing row starts the next one.
        phase_ = Phase::kAdvanceAnc;
        return Status::OK();
      }
      if (!desc_group_valid_) {
        desc_group_valid_ = true;
        desc_group_.elem = e;
        desc_group_.rows.Clear();
      }
      // Consume the whole run of equal join elements in one columnar copy;
      // runs are equal-valued, so the per-row sortedness check reduces to
      // the run boundaries.
      const size_t run_end =
          kernels::RunLengthEnd(col, desc_batch_.size(), desc_row_);
      const size_t n = run_end - desc_row_;
      desc_group_.rows.AppendRange(desc_batch_, desc_row_, n);
      OwnAdd(n);
      desc_row_ = run_end;
    } else if (!desc_eos_) {
      SJOS_RETURN_IF_ERROR(
          PullChild(right_.get(), &desc_batch_, &desc_row_, &desc_eos_));
    } else {
      phase_ = desc_group_valid_ ? Phase::kAdvanceAnc : Phase::kFinalPops;
      return Status::OK();
    }
  }
}

Status StackTreeJoinBase::RefillAncGroups(NodeId d) {
  while (ready_anc_.empty()) {
    if (pending_anc_valid_ && pending_anc_.elem >= d) return Status::OK();
    if (anc_row_ < anc_batch_.size()) {
      const NodeId* col = anc_batch_.Col(anc_slot_);
      const NodeId e = col[anc_row_];
      if (anc_have_prev_ && e < anc_prev_) {
        return Status::InvalidArgument(
            "ancestor input not sorted by join column");
      }
      anc_prev_ = e;
      anc_have_prev_ = true;
      if (pending_anc_valid_ && e != pending_anc_.elem) {
        ready_anc_.push_back(std::move(pending_anc_));
        pending_anc_ = RowGroup{};
        pending_anc_.rows = left_->MakeBatch();
        pending_anc_valid_ = false;
        continue;  // the differing row starts the next pending group
      }
      if (!pending_anc_valid_) {
        pending_anc_valid_ = true;
        pending_anc_.elem = e;
        pending_anc_.rows.Clear();
      }
      const size_t run_end =
          kernels::RunLengthEnd(col, anc_batch_.size(), anc_row_);
      const size_t n = run_end - anc_row_;
      pending_anc_.rows.AppendRange(anc_batch_, anc_row_, n);
      OwnAdd(n);
      anc_row_ = run_end;
    } else if (!anc_eos_) {
      SJOS_RETURN_IF_ERROR(
          PullChild(left_.get(), &anc_batch_, &anc_row_, &anc_eos_));
    } else {
      if (pending_anc_valid_) {
        ready_anc_.push_back(std::move(pending_anc_));
        pending_anc_ = RowGroup{};
        pending_anc_.rows = left_->MakeBatch();
        pending_anc_valid_ = false;
      }
      return Status::OK();
    }
  }
  return Status::OK();
}

Status StackTreeJoinBase::AdvanceAncTo(NodeId d) {
  const DocView view = ctx_->db->View();
  // Stack every ancestor group starting before d, retiring closed entries
  // first — the kernel's push loop, fed incrementally.
  for (;;) {
    SJOS_RETURN_IF_ERROR(RefillAncGroups(d));
    if (ready_anc_.empty() || ready_anc_.front().elem >= d) break;
    const NodeId a = ready_anc_.front().elem;
    while (!stack_.empty() && view.EndKeyOf(stack_.back().group.elem) < a) {
      SJOS_RETURN_IF_ERROR(PopEntry());
    }
    StackEntry entry;
    entry.group = std::move(ready_anc_.front());
    if (by_ancestor_) {
      entry.self = MakeBatch();
      entry.inherit = MakeBatch();
    }
    stack_.push_back(std::move(entry));
    ready_anc_.pop_front();
  }
  // Retire entries that closed before d.
  while (!stack_.empty() && view.EndKeyOf(stack_.back().group.elem) < d) {
    SJOS_RETURN_IF_ERROR(PopEntry());
  }
  match_k_ = 0;
  match_entry_open_ = false;
  phase_ = Phase::kMatch;
  return Status::OK();
}

bool StackTreeJoinBase::Matches(NodeId a, NodeId d) const {
  if (a >= d) return false;  // proper containment needs a.start < d.start
  if (axis_ == Axis::kChild) {
    const DocView view = ctx_->db->View();
    return view.LevelOf(a) + 1 == view.LevelOf(d);
  }
  return true;  // containment established by the stack discipline
}

Status StackTreeJoinBase::MatchDescGroup() {
  // Every remaining entry contains the group's element; walk the stack
  // bottom-up exactly like the kernel's match loop.
  while (match_k_ < stack_.size()) {
    StackEntry& entry = stack_[match_k_];
    if (!match_entry_open_) {
      if (!Matches(entry.group.elem, desc_group_.elem)) {
        ++match_k_;
        continue;
      }
      ++ctx_->stats->element_pairs;
      match_entry_open_ = true;
      match_ar_ = 0;
      match_dr_ = 0;
    }
    if (by_ancestor_) {
      // Buffer the full expansion on the entry; released when it pops.
      const size_t na = entry.group.rows.size();
      const size_t nd = desc_group_.rows.size();
      entry.self.Reserve(entry.self.size() + na * nd);
      for (size_t ar = 0; ar < na; ++ar) {
        entry.self.AppendCross(entry.group.rows, ar, desc_group_.rows, 0, nd);
      }
      OwnAdd(na * nd);
      match_entry_open_ = false;
      ++match_k_;
      continue;
    }
    bool paused = false;
    SJOS_RETURN_IF_ERROR(
        EmitRows(entry.group, desc_group_, ctx_->batch_rows, &paused));
    if (paused) return Status::OK();  // output backpressure; resume later
    match_entry_open_ = false;
    ++match_k_;
  }
  OwnSub(desc_group_.rows.size());
  desc_group_.rows.Clear();
  desc_group_valid_ = false;
  phase_ = Phase::kCollectDesc;
  return Status::OK();
}

Status StackTreeJoinBase::EmitRows(const RowGroup& anc_group,
                                   const RowGroup& desc_group, size_t cap_hint,
                                   bool* paused) {
  const size_t na = anc_group.rows.size();
  const size_t nd = desc_group.rows.size();
  while (match_ar_ < na) {
    while (match_dr_ < nd) {
      if (staged_rows_ >= cap_hint) {
        *paused = true;
        return Status::OK();
      }
      // One columnar cross-append per chunk instead of one row at a time;
      // the budget clamp reproduces the per-row charge exactly — the run
      // that would fail charges precisely the rows that fit, then fails.
      size_t take = std::min(nd - match_dr_, cap_hint - staged_rows_);
      uint64_t allowed = take;
      if (ctx_->max_join_output_rows != 0) {
        allowed = emitted_rows_ < ctx_->max_join_output_rows
                      ? std::min<uint64_t>(
                            take, ctx_->max_join_output_rows - emitted_rows_)
                      : 0;
      }
      if (allowed > 0) {
        SJOS_RETURN_IF_ERROR(ChargeBudget(allowed));
        size_t dr = match_dr_;
        size_t left = static_cast<size_t>(allowed);
        while (left > 0) {
          if (stage_.empty() || stage_.back().size() >= ctx_->batch_rows) {
            stage_.push_back(MakeBatch());
            stage_.back().Reserve(std::min(ctx_->batch_rows, cap_hint));
          }
          ColumnBatch& chunk = stage_.back();
          const size_t room = ctx_->batch_rows - chunk.size();
          const size_t sub = std::min(left, room);
          chunk.AppendCross(anc_group.rows, match_ar_, desc_group.rows, dr,
                            sub);
          dr += sub;
          left -= sub;
        }
        staged_rows_ += allowed;
        OwnAdd(allowed);
        match_dr_ += static_cast<size_t>(allowed);
      }
      if (allowed < take) return ChargeBudget(1);  // the failing charge
    }
    ++match_ar_;
    match_dr_ = 0;
  }
  return Status::OK();
}

Status StackTreeJoinBase::StageRows(ColumnBatch&& rows) {
  const size_t n = rows.size();
  if (n == 0) return Status::OK();
  // Rows were registered live when expanded; they stay counted until
  // DrainStage hands them to the parent.
  SJOS_RETURN_IF_ERROR(ChargeBudget(n));
  staged_rows_ += n;
  stage_.push_back(std::move(rows));
  return Status::OK();
}

Status StackTreeJoinBase::PopEntry() {
  StackEntry popped = std::move(stack_.back());
  stack_.pop_back();
  OwnSub(popped.group.rows.size());
  if (!by_ancestor_) return Status::OK();  // Desc variant emits eagerly
  if (stack_.empty()) {
    // Bottom of the stack: release to the output, self before inherit.
    SJOS_RETURN_IF_ERROR(StageRows(std::move(popped.self)));
    SJOS_RETURN_IF_ERROR(StageRows(std::move(popped.inherit)));
  } else {
    StackEntry& top = stack_.back();
    top.inherit.AppendBatch(popped.self);
    top.inherit.AppendBatch(popped.inherit);
  }
  return Status::OK();
}

Status StackTreeJoinBase::FinalPops() {
  while (!stack_.empty()) SJOS_RETURN_IF_ERROR(PopEntry());
  // Ancestor groups at or after the last descendant are never stacked.
  for (RowGroup& g : ready_anc_) OwnSub(g.rows.size());
  ready_anc_.clear();
  if (pending_anc_valid_) {
    OwnSub(pending_anc_.rows.size());
    pending_anc_ = RowGroup{};
    pending_anc_.rows = left_->MakeBatch();
    pending_anc_valid_ = false;
  }
  phase_ = Phase::kDrainLeft;
  return Status::OK();
}

Status StackTreeJoinBase::DrainLeft() {
  // Consume the ancestor tail so upstream counters (and the sortedness
  // check) cover the whole input, whatever the batch size. The
  // per-row check becomes one vector sortedness sweep per batch.
  for (;;) {
    const size_t n = anc_batch_.size();
    if (anc_row_ < n) {
      const NodeId* col = anc_batch_.Col(anc_slot_);
      if ((anc_have_prev_ && col[anc_row_] < anc_prev_) ||
          !kernels::IsNonDecreasing(col + anc_row_, n - anc_row_)) {
        return Status::InvalidArgument(
            "ancestor input not sorted by join column");
      }
      anc_prev_ = col[n - 1];
      anc_have_prev_ = true;
      anc_row_ = n;
    }
    if (anc_eos_) break;
    SJOS_RETURN_IF_ERROR(
        PullChild(left_.get(), &anc_batch_, &anc_row_, &anc_eos_));
  }
  OwnSub(anc_batch_.size());
  anc_batch_.Clear();
  OwnSub(desc_batch_.size());
  desc_batch_.Clear();
  phase_ = Phase::kDone;
  return Status::OK();
}

void StackTreeJoinBase::DrainStage(ColumnBatch* out) {
  const size_t cap = ctx_->batch_rows;
  while (staged_rows_ > 0 && out->size() < cap) {
    ColumnBatch& chunk = stage_.front();
    const size_t chunk_rows = chunk.size();
    const size_t take =
        std::min(cap - out->size(), chunk_rows - stage_front_row_);
    out->AppendRange(chunk, stage_front_row_, take);
    stage_front_row_ += take;
    staged_rows_ -= take;
    OwnSub(take);
    if (stage_front_row_ == chunk_rows) {
      stage_.pop_front();
      stage_front_row_ = 0;
    }
  }
}

Status StackTreeJoinBase::ChargeBudget(uint64_t rows) {
  if (ctx_->max_join_output_rows != 0 &&
      emitted_rows_ + rows > ctx_->max_join_output_rows) {
    return Status::OutOfRange(
        "structural join output exceeded the configured row budget");
  }
  emitted_rows_ += rows;
  ctx_->stats->join_output_rows += rows;
  return Status::OK();
}

Status StackTreeJoinBase::Close() {
  OwnSub(anc_batch_.size());
  anc_batch_.Clear();
  OwnSub(desc_batch_.size());
  desc_batch_.Clear();
  if (pending_anc_valid_) {
    OwnSub(pending_anc_.rows.size());
    pending_anc_ = RowGroup{};
    pending_anc_valid_ = false;
  }
  for (RowGroup& g : ready_anc_) OwnSub(g.rows.size());
  ready_anc_.clear();
  if (desc_group_valid_) {
    OwnSub(desc_group_.rows.size());
    desc_group_ = RowGroup{};
    desc_group_valid_ = false;
  }
  for (StackEntry& e : stack_) {
    OwnSub(e.group.rows.size());
    OwnSub(e.self.size());
    OwnSub(e.inherit.size());
  }
  stack_.clear();
  OwnSub(staged_rows_);
  stage_.clear();
  staged_rows_ = 0;
  stage_front_row_ = 0;
  Status left_status = left_->Close();
  Status right_status = right_->Close();
  if (!left_status.ok()) return left_status;
  return right_status;
}

// ---------------------------------------------------------------------------
// Compilation

Result<std::unique_ptr<Operator>> CompileOperatorTree(ExecContext* ctx,
                                                      const PhysicalPlan& plan,
                                                      int index) {
  const PlanNode& node = plan.At(index);
  switch (node.op) {
    case PlanOp::kIndexScan:
      return std::unique_ptr<Operator>(
          std::make_unique<ScanOperator>(ctx, index, node.scan_node));
    case PlanOp::kSort: {
      Result<std::unique_ptr<Operator>> child =
          CompileOperatorTree(ctx, plan, node.left);
      if (!child.ok()) return child.status();
      const int slot = SlotIn(child.value()->slots(), node.sort_by);
      if (slot < 0) {
        return Status::Internal(
            StrFormat("sort by pattern node %d not in input", node.sort_by));
      }
      return std::unique_ptr<Operator>(std::make_unique<SortOperator>(
          ctx, index, node.sort_by, static_cast<size_t>(slot),
          std::move(child).value()));
    }
    case PlanOp::kNavigate: {
      Result<std::unique_ptr<Operator>> child =
          CompileOperatorTree(ctx, plan, node.left);
      if (!child.ok()) return child.status();
      const int anchor_slot = SlotIn(child.value()->slots(), node.anc_node);
      if (anchor_slot < 0) {
        return Status::InvalidArgument("navigate anchor missing from input");
      }
      if (SlotIn(child.value()->slots(), node.desc_node) >= 0) {
        return Status::InvalidArgument("navigate target already bound");
      }
      return std::unique_ptr<Operator>(std::make_unique<NavigateOperator>(
          ctx, index, node.anc_node, static_cast<size_t>(anchor_slot),
          node.desc_node, node.axis, std::move(child).value()));
    }
    case PlanOp::kStackTreeAnc:
    case PlanOp::kStackTreeDesc: {
      Result<std::unique_ptr<Operator>> left =
          CompileOperatorTree(ctx, plan, node.left);
      if (!left.ok()) return left.status();
      Result<std::unique_ptr<Operator>> right =
          CompileOperatorTree(ctx, plan, node.right);
      if (!right.ok()) return right.status();
      const int anc_slot = SlotIn(left.value()->slots(), node.anc_node);
      const int desc_slot = SlotIn(right.value()->slots(), node.desc_node);
      if (anc_slot < 0 || desc_slot < 0) {
        return Status::Internal("join endpoints missing from inputs");
      }
      for (PatternNodeId s : left.value()->slots()) {
        if (SlotIn(right.value()->slots(), s) >= 0) {
          return Status::InvalidArgument("join input schemas overlap");
        }
      }
      if (node.op == PlanOp::kStackTreeAnc) {
        return std::unique_ptr<Operator>(std::make_unique<StackTreeAncOp>(
            ctx, index, node.axis, static_cast<size_t>(anc_slot),
            static_cast<size_t>(desc_slot), std::move(left).value(),
            std::move(right).value()));
      }
      return std::unique_ptr<Operator>(std::make_unique<StackTreeDescOp>(
          ctx, index, node.axis, static_cast<size_t>(anc_slot),
          static_cast<size_t>(desc_slot), std::move(left).value(),
          std::move(right).value()));
    }
  }
  return Status::Internal("unknown plan operator");
}

}  // namespace sjos
