#include "exec/stack_tree.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "exec/governor.h"
#include "exec/vector_kernels.h"

namespace sjos {

namespace {

Status ValidateJoinInputs(const ColumnBatch& anc, size_t anc_slot,
                          const ColumnBatch& desc, size_t desc_slot) {
  if (anc_slot >= anc.arity() || desc_slot >= desc.arity()) {
    return Status::InvalidArgument("join slot out of range");
  }
  for (PatternNodeId s : anc.slots()) {
    if (desc.SlotOf(s) >= 0) {
      return Status::InvalidArgument("join input schemas overlap");
    }
  }
  if (!anc.IsSortedBySlot(anc_slot)) {
    return Status::InvalidArgument("ancestor input not sorted by join column");
  }
  if (!desc.IsSortedBySlot(desc_slot)) {
    return Status::InvalidArgument(
        "descendant input not sorted by join column");
  }
  return Status::OK();
}

/// Empty output batch carrying the join's schema and ordering property.
ColumnBatch MakeOutputSet(const ColumnBatch& anc, size_t anc_slot,
                          const ColumnBatch& desc, size_t desc_slot,
                          bool output_by_ancestor) {
  std::vector<PatternNodeId> out_slots = anc.slots();
  out_slots.insert(out_slots.end(), desc.slots().begin(), desc.slots().end());
  ColumnBatch out(std::move(out_slots));
  out.set_ordered_by_slot(
      output_by_ancestor ? static_cast<int>(anc_slot)
                         : static_cast<int>(anc.arity() + desc_slot));
  return out;
}

/// Moves the rows of the ascending, disjoint [begin, end) ranges in `keep`
/// to the front of `batch`, in order, and drops every other row.
void PackRows(ColumnBatch* batch,
              const std::vector<std::pair<size_t, size_t>>& keep) {
  size_t rows = 0;
  for (size_t c = 0; c < batch->arity(); ++c) {
    std::vector<NodeId>& col = batch->Raw(c);
    rows = 0;
    for (const auto& [begin, end] : keep) {
      if (rows != begin) {
        std::memmove(col.data() + rows, col.data() + begin,
                     (end - begin) * sizeof(NodeId));
      }
      rows += end - begin;
    }
    col.resize(rows);
  }
  batch->SetRows(rows);
}

}  // namespace

StackTreeMerge::StackTreeMerge(DocView view, const ColumnBatch* anc,
                               size_t anc_slot, const ColumnBatch* desc,
                               size_t desc_slot, Axis axis,
                               bool output_by_ancestor,
                               uint64_t max_output_rows,
                               QueryGovernor* governor)
    : view_(view),
      axis_(axis),
      by_ancestor_(output_by_ancestor),
      budget_(max_output_rows == 0 ? std::numeric_limits<uint64_t>::max()
                                   : max_output_rows),
      governor_(governor) {
  anc_.rows = anc;
  anc_.slot = anc_slot;
  desc_.rows = desc;
  desc_.slot = desc_slot;
}

Result<StackTreeMerge::Wait> StackTreeMerge::Run(bool anc_eos, bool desc_eos,
                                                 size_t cap, ColumnBatch* out,
                                                 JoinStats* stats) {
  for (;;) {
    // Pending rows go out once they fill `out`, make an emission pass, or
    // would cross the row budget (so the merge fails at the match that
    // crosses it, not after matching on), and before Run returns for more
    // input or done: emission order is release order.
    const uint64_t room = cap - out->size();
    if (pending_rows_ != 0 &&
        (pending_rows_ >= room || pending_rows_ >= kPassRows ||
         pending_rows_ > budget_ - emitted_rows_)) {
      bool drained = false;
      SJOS_RETURN_IF_ERROR(Emit(cap, out, stats, &drained));
      if (!drained) return Wait::kOutput;
    }

    if (!have_dg_) {
      const ColumnBatch& dw = *desc_.rows;
      if (desc_.next_row == dw.size()) {
        if (!desc_eos) return Flush(Wait::kDescendant, cap, out, stats);
        if (stack_ag_.empty()) return Flush(Wait::kDone, cap, out, stats);
        // Drain the stack so buffered Anc pairs are released bottom-up.
        while (!stack_ag_.empty()) PopEntry();
        continue;
      }
      const NodeId* dkey = dw.Col(desc_.slot);
      const size_t end =
          kernels::RunLengthEnd(dkey, dw.size(), desc_.next_row);
      if (end == dw.size() && !desc_eos) {
        return Flush(Wait::kDescendant, cap, out, stats);
      }
      // Deadline poll every 64 groups: frequent enough to bound overshoot,
      // rare enough that the steady_clock read never shows up in profiles.
      if (governor_ != nullptr && (desc_groups_cut_ & 63) == 0) {
        if (stopped_.ok()) stopped_ = governor_->CheckDeadline();
        if (!stopped_.ok()) {
          // Rows matched before the poll go out before the failure, so a
          // deadline or cancel leaves them emitted and counted. Run comes
          // back here after `out` drains and does not poll again.
          Result<Wait> flushed = Flush(Wait::kDone, cap, out, stats);
          if (!flushed.ok() || flushed.value() == Wait::kOutput) {
            return flushed;
          }
          return stopped_;
        }
      }
      ++desc_groups_cut_;
      cur_dg_ = Cut(&desc_, dkey[desc_.next_row], end);
      have_dg_ = true;
    }
    const NodeId d = desc_.groups[cur_dg_].elem;

    // Stack every ancestor group that starts before d.
    const ColumnBatch& aw = *anc_.rows;
    const size_t an = aw.size();
    const NodeId* akey = aw.Col(anc_.slot);
    bool held_back = false;
    while (anc_.next_row < an && akey[anc_.next_row] < d) {
      const size_t end = kernels::RunLengthEnd(akey, an, anc_.next_row);
      held_back = end == an && !anc_eos;
      if (held_back) break;
      const NodeId a = akey[anc_.next_row];
      const NodeId a_end = view_.EndKeyOf(a);
      if (a_end < d) {
        // Closed before d, so before every later descendant: dead rows.
        anc_.dead_rows += end - anc_.next_row;
        anc_.next_row = end;
        continue;
      }
      while (!stack_ag_.empty() && stack_end_.back() < a) PopEntry();
      Push(Cut(&anc_, a, end), a_end, stats);
    }
    if (held_back || (anc_.next_row == an && !anc_eos)) {
      return Flush(Wait::kAncestor, cap, out, stats);
    }
    // Retire entries that closed before d.
    while (!stack_ag_.empty() && stack_end_.back() < d) PopEntry();
    Match(cur_dg_, stats);
    Unref(&desc_, cur_dg_);
    have_dg_ = false;
    if (stack_ag_.empty()) {
      // No open ancestor: the descendants before the next ancestor's start
      // (every one left, once the ancestors have ended) match nothing.
      const ColumnBatch& dw = *desc_.rows;
      const NodeId* dkey = dw.Col(desc_.slot);
      const size_t to =
          anc_.next_row < an
              ? static_cast<size_t>(
                    std::lower_bound(dkey + desc_.next_row, dkey + dw.size(),
                                     akey[anc_.next_row]) -
                    dkey)
              : dw.size();
      desc_.dead_rows += to - desc_.next_row;
      desc_.next_row = to;
    }
  }
}

uint32_t StackTreeMerge::Cut(Side* side, NodeId elem, size_t end) {
  side->groups.push_back(Group{elem, static_cast<uint32_t>(side->next_row),
                               static_cast<uint32_t>(end), /*refs=*/1});
  side->next_row = end;
  return static_cast<uint32_t>(side->groups.size() - 1);
}

void StackTreeMerge::Unref(Side* side, uint32_t group) {
  Group& g = side->groups[group];
  if (--g.refs == 0) side->dead_rows += g.end - g.begin;
}

void StackTreeMerge::Push(uint32_t ag, NodeId end, JoinStats* stats) {
  stack_ag_.push_back(ag);
  stack_end_.push_back(end);
  stack_level_.push_back(view_.LevelOf(anc_.groups[ag].elem));
  if (stats != nullptr) {
    ++stats->stack_pushes;
    stats->max_stack_depth =
        std::max<uint64_t>(stats->max_stack_depth, stack_ag_.size());
  }
}

void StackTreeMerge::PopEntry() {
  const uint32_t ag = stack_ag_.back();
  Unref(&anc_, ag);
  stack_ag_.pop_back();
  stack_end_.pop_back();
  stack_level_.pop_back();
  // Only the bottom's pop releases pairs (the Desc variant holds none).
  if (stack_ag_.empty() && !held_.empty()) Release(ag);
}

void StackTreeMerge::Release(uint32_t bottom_ag) {
  // The paper's self/inherit lists, expanded at the bottom's pop, walk the
  // nested entries in pre-order: each entry's own pairs in arrival order,
  // then its nested entries' in push order. Pre-order of nested ancestors
  // is their document order, which is group order, so a stable counting
  // sort on the group yields exactly that sequence. The released pairs
  // queue behind any still pending.
  bucket_.assign(anc_.groups.size() - bottom_ag + 1, 0);
  for (const GroupPair& p : held_) {
    ++bucket_[p.ag - bottom_ag + 1];
    pending_rows_ += RowsOf(p);
  }
  const size_t base = ready_.size();
  for (size_t k = 1; k < bucket_.size(); ++k) bucket_[k] += bucket_[k - 1];
  ready_.resize(base + held_.size());
  for (const GroupPair& p : held_) {
    ready_[base + bucket_[p.ag - bottom_ag]++] = p;
  }
  held_.clear();
}

void StackTreeMerge::Match(uint32_t dg, JoinStats* stats) {
  // Every stack entry contains d (start < d <= end, by the stack
  // discipline). For descendant axes that IS the match set; parent-child
  // additionally filters on level equality — a sweep over the stack's
  // level column.
  const size_t depth = stack_ag_.size();
  size_t nmatch = depth;
  const uint32_t* match = nullptr;  // null: every entry matches
  if (axis_ == Axis::kChild) {
    sel_.resize(depth);
    const uint16_t dl = view_.LevelOf(desc_.groups[dg].elem);
    nmatch = dl == 0 ? 0
                     : kernels::SelEqualsU16(stack_level_.data(), depth,
                                             static_cast<uint16_t>(dl - 1),
                                             sel_.data());
    match = sel_.data();
  }
  for (size_t s = 0; s < nmatch; ++s) {
    const size_t k = match == nullptr ? s : match[s];
    const GroupPair pair{stack_ag_[k], dg};
    if (by_ancestor_) {
      ++anc_.groups[pair.ag].refs;
      ++desc_.groups[dg].refs;
      held_.push_back(pair);
    } else {
      // Run emits every pending pair before it returns for more input,
      // and Compact runs only then, so Desc pairs take no references.
      ready_.push_back(pair);
      pending_rows_ += RowsOf(pair);
    }
  }
  buffered_pairs_ += nmatch;
  if (stats != nullptr) stats->element_pairs += nmatch;
}

uint64_t StackTreeMerge::RowsOf(GroupPair pair) const {
  const Group& ga = anc_.groups[pair.ag];
  const Group& gd = desc_.groups[pair.dg];
  return uint64_t{ga.end - ga.begin} * (gd.end - gd.begin);
}

Result<StackTreeMerge::Wait> StackTreeMerge::Flush(Wait wait, size_t cap,
                                                   ColumnBatch* out,
                                                   JoinStats* stats) {
  if (pending_rows_ != 0) {
    bool drained = false;
    SJOS_RETURN_IF_ERROR(Emit(cap, out, stats, &drained));
    if (!drained) return Wait::kOutput;
  }
  return wait;
}

Status StackTreeMerge::Emit(size_t cap, ColumnBatch* out, JoinStats* stats,
                            bool* drained) {
  for (;;) {
    // Plan a pass: the ancestor-window and descendant-window row of each
    // output row, in output order, for up to kPassRows rows clamped to the
    // room left in `out` and to the row budget (a single pair of large
    // groups can exceed either on its own), so exactly the rows that fit
    // are emitted and counted before the join fails. Then gather each
    // output column once.
    const size_t room = cap - out->size();
    const size_t limit = static_cast<size_t>(std::min<uint64_t>(
        std::min(room, kPassRows), budget_ - emitted_rows_));
    size_t planned = 0;
    while (ready_pos_ < ready_.size() && planned < limit) {
      const GroupPair pair = ready_[ready_pos_];
      const Group& ga = anc_.groups[pair.ag];
      const Group& gd = desc_.groups[pair.dg];
      // The pair's rows from the cursor on, ancestor-major: each ancestor
      // row with every descendant row.
      const uint64_t done = uint64_t{emit_ar_} * (gd.end - gd.begin) + emit_dr_;
      const size_t take = static_cast<size_t>(
          std::min<uint64_t>(RowsOf(pair) - done, limit - planned));
      uint32_t a = ga.begin + emit_ar_;
      uint32_t d = gd.begin + emit_dr_;
      uint32_t* const asel = asel_.data() + planned;
      uint32_t* const dsel = dsel_.data() + planned;
      for (size_t i = 0; i < take; ++i) {
        asel[i] = a;
        dsel[i] = d;
        if (++d == gd.end) {
          d = gd.begin;
          ++a;
        }
      }
      planned += take;
      emit_ar_ = a - ga.begin;
      emit_dr_ = d - gd.begin;
      if (a < ga.end) break;  // the pass is full inside the pair
      // Every row of the pair is planned.
      emit_ar_ = 0;
      ++ready_pos_;
      --buffered_pairs_;
      if (by_ancestor_) {
        Unref(&anc_, pair.ag);
        Unref(&desc_, pair.dg);
      }
    }
    out->AppendGatherPair(*anc_.rows, asel_.data(), *desc_.rows,
                          dsel_.data(), planned);
    emitted_rows_ += planned;
    pending_rows_ -= planned;
    if (stats != nullptr) stats->output_rows += planned;
    if (ready_pos_ == ready_.size()) break;
    if (planned == room) {
      *drained = false;
      return Status::OK();
    }
    if (emitted_rows_ == budget_) {
      return Status::OutOfRange(
          "structural join output exceeded the configured row budget");
    }
  }
  ready_.clear();
  ready_pos_ = 0;
  *drained = true;
  return Status::OK();
}

void StackTreeMerge::Compact(ColumnBatch* window) {
  SJOS_CHECK(ready_.empty(), "Compact with rows due for output");
  Side* side = window == anc_.rows ? &anc_ : &desc_;
  const size_t live = window->size() - side->dead_rows;
  if (side->dead_rows <= live) return;
  // Keep the referred-to groups, then the uncut tail, packed in order.
  std::vector<uint32_t>& remap = compact_remap_;
  std::vector<std::pair<size_t, size_t>>& keep = compact_keep_;
  remap.resize(side->groups.size());
  keep.clear();
  uint32_t rows = 0;
  uint32_t kept = 0;
  for (size_t i = 0; i < side->groups.size(); ++i) {
    const Group g = side->groups[i];
    if (g.refs == 0) continue;
    keep.emplace_back(g.begin, g.end);
    remap[i] = kept;
    const uint32_t n = g.end - g.begin;
    side->groups[kept++] = Group{g.elem, rows, rows + n, g.refs};
    rows += n;
  }
  side->groups.resize(kept);
  keep.emplace_back(side->next_row, window->size());
  side->next_row = rows;
  side->dead_rows = 0;
  PackRows(window, keep);
  // Renumber what refers to the side's groups: the stack or the current
  // descendant group, and the buffered pairs.
  uint32_t GroupPair::*const field =
      side == &anc_ ? &GroupPair::ag : &GroupPair::dg;
  if (side == &anc_) {
    for (uint32_t& ag : stack_ag_) ag = remap[ag];
  } else if (have_dg_) {
    cur_dg_ = remap[cur_dg_];
  }
  for (GroupPair& p : held_) p.*field = remap[p.*field];
}

Result<ColumnBatch> StackTreeJoin(DocView view, const ColumnBatch& anc,
                                  size_t anc_slot, const ColumnBatch& desc,
                                  size_t desc_slot, Axis axis,
                                  bool output_by_ancestor, JoinStats* stats,
                                  uint64_t max_output_rows,
                                  QueryGovernor* governor) {
  SJOS_RETURN_IF_ERROR(ValidateJoinInputs(anc, anc_slot, desc, desc_slot));
  ColumnBatch out =
      MakeOutputSet(anc, anc_slot, desc, desc_slot, output_by_ancestor);
  if (anc.empty() || desc.empty()) return out;
  // One window per whole input, both at end-of-stream, no row cap.
  StackTreeMerge merge(view, &anc, anc_slot, &desc, desc_slot, axis,
                       output_by_ancestor, max_output_rows, governor);
  Result<StackTreeMerge::Wait> done =
      merge.Run(/*anc_eos=*/true, /*desc_eos=*/true,
                std::numeric_limits<size_t>::max(), &out, stats);
  if (!done.ok()) return done.status();
  return out;
}

}  // namespace sjos
