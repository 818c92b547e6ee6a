#include "exec/stack_tree.h"

#include <algorithm>
#include <vector>

#include "exec/governor.h"
#include "exec/vector_kernels.h"

namespace sjos {

namespace {

/// A run of input rows sharing one join element.
struct Group {
  NodeId elem;
  uint32_t row_begin;
  uint32_t row_end;  // exclusive
};

std::vector<Group> BuildGroups(const ColumnBatch& set, size_t slot) {
  std::vector<Group> groups;
  const size_t n = set.size();
  if (n == 0) return groups;
  // Runs over the sorted key column; the run sweep is a vector compare.
  const NodeId* key = set.Col(slot);
  size_t i = 0;
  while (i < n) {
    const size_t j = kernels::RunLengthEnd(key, n, i);
    groups.push_back(Group{key[i], static_cast<uint32_t>(i),
                           static_cast<uint32_t>(j)});
    i = j;
  }
  return groups;
}

/// A matched (ancestor group, descendant group) element pair.
struct GroupPair {
  uint32_t ag;
  uint32_t dg;
};

/// Expands a pair's row cross product into `out`, stopping at
/// `max_output_rows` (0 = unlimited). Returns false when the budget was
/// hit — a single pair of large groups can exceed it on its own, so the
/// clamp must sit inside the expansion loop. Each ancestor row expands as
/// one columnar append: constant fill of the ancestor cells, contiguous
/// copy of the descendant row run.
bool EmitPair(const ColumnBatch& anc, const ColumnBatch& desc,
              const std::vector<Group>& anc_groups,
              const std::vector<Group>& desc_groups, const GroupPair& pair,
              uint64_t max_output_rows, ColumnBatch* out, JoinStats* stats) {
  const Group& ga = anc_groups[pair.ag];
  const Group& gd = desc_groups[pair.dg];
  const size_t nd = gd.row_end - gd.row_begin;
  for (uint32_t ar = ga.row_begin; ar < ga.row_end; ++ar) {
    size_t take = nd;
    if (max_output_rows != 0) {
      if (out->size() >= max_output_rows) return false;
      take = static_cast<size_t>(std::min<uint64_t>(
          nd, max_output_rows - out->size()));
    }
    out->AppendCross(anc, ar, desc, gd.row_begin, take);
    if (stats != nullptr) stats->output_rows += take;
    if (take < nd) return false;
  }
  return true;
}

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

/// The Stack-Tree merge over all group pairs, appending matches to `out`.
/// Returns OutOfRange when `max_output_rows` (0 = unlimited, counted
/// against `out`'s size) is exceeded.
Status RunStackTree(DocView view, const ColumnBatch& anc,
                    const ColumnBatch& desc,
                    const std::vector<Group>& anc_groups,
                    const std::vector<Group>& desc_groups, Axis axis,
                    bool output_by_ancestor, uint64_t max_output_rows,
                    ColumnBatch* out, JoinStats* stats,
                    QueryGovernor* governor) {
  // Row-budget enforcement; EmitPair clamps inside the expansion, so even
  // one huge group cross product cannot outrun the budget.
  bool overflow = false;
  auto emit = [&](const GroupPair& pair) {
    if (overflow) return;
    if (!EmitPair(anc, desc, anc_groups, desc_groups, pair, max_output_rows,
                  out, stats)) {
      overflow = true;
    }
  };

  // The stack of open ancestor groups, struct-of-arrays: the retirement
  // scans read the end column, the parent-child filter sweeps the level
  // column. `buffers` (parallel to the columns) carries the Anc variant's
  // per-entry self/inherit pair lists.
  struct PairBuffers {
    std::vector<GroupPair> self;
    std::vector<GroupPair> inherit;
  };
  std::vector<uint32_t> stack_ag;
  std::vector<NodeId> stack_end;
  std::vector<uint16_t> stack_level;
  std::vector<PairBuffers> buffers;
  std::vector<uint32_t> sel;  // match selection over stack entries

  // Releases a popped entry's pairs: to the output if it was the bottom,
  // otherwise into the new top's inherit list (keeps ancestor order).
  auto pop_entry = [&] {
    PairBuffers popped = std::move(buffers.back());
    buffers.pop_back();
    stack_ag.pop_back();
    stack_end.pop_back();
    stack_level.pop_back();
    if (!output_by_ancestor) return;  // Desc variant emits eagerly
    if (buffers.empty()) {
      for (const GroupPair& p : popped.self) {
        if (overflow) return;
        emit(p);
      }
      for (const GroupPair& p : popped.inherit) {
        if (overflow) return;
        emit(p);
      }
    } else {
      PairBuffers& top = buffers.back();
      top.inherit.insert(top.inherit.end(), popped.self.begin(),
                         popped.self.end());
      top.inherit.insert(top.inherit.end(), popped.inherit.begin(),
                         popped.inherit.end());
    }
  };

  size_t ai = 0;
  for (size_t dg = 0; dg < desc_groups.size() && !overflow; ++dg) {
    // Deadline poll every 64 groups: frequent enough to bound overshoot,
    // rare enough that the steady_clock read never shows up in profiles.
    if (governor != nullptr && (dg & 63) == 0) {
      SJOS_RETURN_IF_ERROR(governor->CheckDeadline());
    }
    const NodeId d = desc_groups[dg].elem;
    // Stack every ancestor candidate that starts before d.
    while (ai < anc_groups.size() && anc_groups[ai].elem < d) {
      const NodeId a = anc_groups[ai].elem;
      while (!stack_ag.empty() && stack_end.back() < a) pop_entry();
      stack_ag.push_back(static_cast<uint32_t>(ai));
      stack_end.push_back(view.EndKeyOf(a));
      stack_level.push_back(view.LevelOf(a));
      buffers.emplace_back();
      if (stats != nullptr) {
        ++stats->stack_pushes;
        stats->max_stack_depth =
            std::max<uint64_t>(stats->max_stack_depth, stack_ag.size());
      }
      ++ai;
    }
    // Retire entries that closed before d.
    while (!stack_ag.empty() && stack_end.back() < d) pop_entry();
    // Every remaining entry contains d (start < d <= end, by the stack
    // discipline). For descendant axes that IS the match set; parent-child
    // additionally filters on level equality — a sweep over the stack's
    // level column.
    const size_t depth = stack_ag.size();
    const uint32_t* match = nullptr;
    size_t nmatch = 0;
    if (axis == Axis::kChild) {
      sel.resize(depth);
      const uint16_t dl = view.LevelOf(d);
      nmatch = dl == 0 ? 0
                       : kernels::SelEqualsU16(
                             stack_level.data(), depth,
                             static_cast<uint16_t>(dl - 1), sel.data());
      match = sel.data();
    } else {
      sel.resize(depth);
      for (size_t k = 0; k < depth; ++k) sel[k] = static_cast<uint32_t>(k);
      nmatch = depth;
      match = sel.data();
    }
    for (size_t s = 0; s < nmatch; ++s) {
      const size_t k = match[s];
      if (stats != nullptr) ++stats->element_pairs;
      GroupPair pair{stack_ag[k], static_cast<uint32_t>(dg)};
      if (output_by_ancestor) {
        buffers[k].self.push_back(pair);
      } else {
        if (overflow) break;
        emit(pair);
      }
    }
  }
  // Drain the stack so buffered Anc pairs are released bottom-up.
  while (!stack_ag.empty() && !overflow) pop_entry();

  if (overflow) {
    return Status::OutOfRange(
        "structural join output exceeded the configured row budget");
  }
  return Status::OK();
}

}  // namespace

Result<ColumnBatch> StackTreeJoin(DocView view, const ColumnBatch& anc,
                                  size_t anc_slot, const ColumnBatch& desc,
                                  size_t desc_slot, Axis axis,
                                  bool output_by_ancestor, JoinStats* stats,
                                  uint64_t max_output_rows,
                                  QueryGovernor* governor) {
  SJOS_RETURN_IF_ERROR(ValidateJoinInputs(anc, anc_slot, desc, desc_slot));
  ColumnBatch out =
      MakeOutputSet(anc, anc_slot, desc, desc_slot, output_by_ancestor);
  const std::vector<Group> anc_groups = BuildGroups(anc, anc_slot);
  const std::vector<Group> desc_groups = BuildGroups(desc, desc_slot);
  if (anc_groups.empty() || desc_groups.empty()) return out;
  SJOS_RETURN_IF_ERROR(RunStackTree(view, anc, desc, anc_groups, desc_groups,
                                   axis, output_by_ancestor, max_output_rows,
                                   &out, stats, governor));
  return out;
}

Result<TupleSet> StackTreeJoin(DocView view, const TupleSet& anc,
                               size_t anc_slot, const TupleSet& desc,
                               size_t desc_slot, Axis axis,
                               bool output_by_ancestor, JoinStats* stats,
                               uint64_t max_output_rows,
                               QueryGovernor* governor) {
  Result<ColumnBatch> out = StackTreeJoin(
      view, ColumnBatch::FromRows(anc), anc_slot, ColumnBatch::FromRows(desc),
      desc_slot, axis, output_by_ancestor, stats, max_output_rows, governor);
  if (!out.ok()) return out.status();
  return std::move(out).value().ToRows();
}

}  // namespace sjos
