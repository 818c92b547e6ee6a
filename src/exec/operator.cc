// Streaming operator implementations. The Stack-Tree join operators own
// no join logic: they feed row windows to the one Stack-Tree merge in
// stack_tree.cc, so their output and counters are the whole-input
// StackTreeJoin's by construction.

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

void Operator::OwnAdd(uint64_t rows, uint64_t bytes) {
  own_live_rows_ += rows;
  OpStats& s = op_stats();
  if (own_live_rows_ > s.peak_live_rows) s.peak_live_rows = own_live_rows_;
  ctx_->AddLive(rows, bytes);
}

void Operator::OwnSub(uint64_t rows, uint64_t bytes) {
  own_live_rows_ -= rows;
  ctx_->SubLive(rows, bytes);
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
      axis_(axis) {
  anc_.child = std::move(left);
  anc_.slot = anc_slot;
  anc_.unsorted_message = "ancestor input not sorted by join column";
  desc_.child = std::move(right);
  desc_.slot = desc_slot;
  desc_.unsorted_message = "descendant input not sorted by join column";
}

Status StackTreeJoinBase::Open() {
  SJOS_RETURN_IF_ERROR(Operator::OpenTimed(anc_.child.get()));
  SJOS_RETURN_IF_ERROR(Operator::OpenTimed(desc_.child.get()));
  for (Input* in : {&anc_, &desc_}) {
    in->window = in->child->MakeBatch();
    in->batch = in->child->MakeBatch();
  }
  merge_.emplace(ctx_->db->View(), &anc_.window, anc_.slot, &desc_.window,
                 desc_.slot, axis_, by_ancestor_, ctx_->max_join_output_rows,
                 ctx_->governor);
  ++ctx_->stats->num_joins;
  return Status::OK();
}

Status StackTreeJoinBase::NextBatch(ColumnBatch* out, bool* eos) {
  // Re-read the cap every round: a child pull may shrink ctx_->batch_rows
  // (governor batch halving), and a stale larger snapshot could then never
  // be reached.
  while (!done_ && out->size() < ctx_->batch_rows) {
    JoinStats stats;
    Result<StackTreeMerge::Wait> wait = merge_->Run(
        anc_.eos, desc_.eos, ctx_->batch_rows, out, &stats);
    ctx_->stats->join_output_rows += stats.output_rows;
    ctx_->stats->element_pairs += stats.element_pairs;
    if (!wait.ok()) return wait.status();
    SyncLive();
    switch (wait.value()) {
      case StackTreeMerge::Wait::kOutput:
        break;
      case StackTreeMerge::Wait::kAncestor:
        SJOS_RETURN_IF_ERROR(Refill(&anc_));
        break;
      case StackTreeMerge::Wait::kDescendant:
        SJOS_RETURN_IF_ERROR(Refill(&desc_));
        break;
      case StackTreeMerge::Wait::kDone:
        SJOS_RETURN_IF_ERROR(DrainLeft());
        done_ = true;
        break;
    }
  }
  *eos = done_;
  return Status::OK();
}

Status StackTreeJoinBase::Pull(Input* in) {
  SJOS_RETURN_IF_ERROR(PullTimed(in->child.get(), &in->batch, &in->eos));
  const size_t n = in->batch.size();
  if (n == 0) return Status::OK();
  const NodeId* key = in->batch.Col(in->slot);
  if ((in->have_last && key[0] < in->last) ||
      !kernels::IsNonDecreasing(key, n)) {
    return Status::InvalidArgument(in->unsorted_message);
  }
  in->last = key[n - 1];
  in->have_last = true;
  return Status::OK();
}

Status StackTreeJoinBase::Refill(Input* in) {
  merge_->Compact(&in->window);
  SyncLive();
  SJOS_RETURN_IF_ERROR(Pull(in));
  if (in->window.empty()) {
    std::swap(in->window, in->batch);
  } else {
    in->window.AppendBatch(in->batch);
  }
  in->batch.Clear();
  SyncLive();
  return Status::OK();
}

Status StackTreeJoinBase::DrainLeft() {
  merge_.reset();
  for (Input* in : {&anc_, &desc_}) in->window.Clear();
  SyncLive();
  while (!anc_.eos) SJOS_RETURN_IF_ERROR(Pull(&anc_));
  anc_.batch.Clear();
  return Status::OK();
}

void StackTreeJoinBase::SyncLive() {
  // The windows at their own widths, plus the merge's buffered pairs.
  const uint64_t rows = anc_.window.size() + desc_.window.size();
  uint64_t bytes = (anc_.window.size() * anc_.window.arity() +
                    desc_.window.size() * desc_.window.arity()) *
                   sizeof(NodeId);
  if (merge_) bytes += merge_->buffered_pairs() * StackTreeMerge::kPairBytes;
  OwnSub(live_rows_, live_bytes_);
  OwnAdd(rows, bytes);
  live_rows_ = rows;
  live_bytes_ = bytes;
}

Status StackTreeJoinBase::Close() {
  merge_.reset();
  for (Input* in : {&anc_, &desc_}) {
    in->window.Clear();
    in->batch.Clear();
  }
  SyncLive();
  Status left_status = anc_.child->Close();
  Status right_status = desc_.child->Close();
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
