#include "exec/twig_join.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/timer.h"
#include "exec/operators.h"

namespace sjos {

namespace {

/// One root-to-leaf path of the pattern, as pattern node ids from the root
/// down to the leaf.
std::vector<std::vector<PatternNodeId>> DecomposePaths(const Pattern& pattern) {
  std::vector<std::vector<PatternNodeId>> paths;
  for (size_t i = 0; i < pattern.NumNodes(); ++i) {
    PatternNodeId id = static_cast<PatternNodeId>(i);
    if (!pattern.ChildrenOf(id).empty()) continue;  // not a leaf
    std::vector<PatternNodeId> path;
    for (PatternNodeId at = id; at != kNoPatternNode;
         at = pattern.node(at).parent) {
      path.push_back(at);
    }
    std::reverse(path.begin(), path.end());
    paths.push_back(std::move(path));
  }
  return paths;
}

/// PathStack over one path: chained stacks, one per path position.
class PathStackRun {
 public:
  PathStackRun(const Database& db, const Pattern& pattern,
               const std::vector<PatternNodeId>& path, TwigJoinStats* stats)
      : db_(db), view_(db.View()), pattern_(pattern), path_(path),
        stats_(stats) {
    streams_.reserve(path.size());
    for (PatternNodeId q : path) {
      // Candidate streams stay columnar: the merge only ever reads the
      // single candidate column through Cur().
      streams_.push_back(ScanCandidateColumns(db, pattern, q));
    }
    cursors_.assign(path.size(), 0);
    stacks_.resize(path.size());
  }

  /// Runs the merge and returns the path-solution tuples (schema = the
  /// path's pattern nodes, root first).
  TupleSet Run() {
    TupleSet out(path_);
    const size_t k = path_.size();
    if (k == 1) {
      // Single-node pattern: candidates are the solutions.
      out.AppendBatch(streams_[0]);
      return out;
    }
    for (;;) {
      if (Eof(k - 1) && stacks_[k - 1].empty()) {
        // Leaf exhausted: every solution has been emitted.
        break;
      }
      // Pick the non-exhausted stream whose current element starts first.
      size_t qmin = k;
      NodeId emin = kInvalidNode;
      for (size_t q = 0; q < k; ++q) {
        if (Eof(q)) continue;
        NodeId e = Cur(q);
        if (qmin == k || e < emin) {
          qmin = q;
          emin = e;
        }
      }
      if (qmin == k) break;  // all streams exhausted

      // Retire stack entries that end before emin starts: they can never
      // contain it or anything after it.
      for (auto& stack : stacks_) {
        while (!stack.empty() && view_.EndKeyOf(stack.back().elem) < emin) {
          stack.pop_back();
        }
      }
      // A non-root element is stacked only under a live potential ancestor.
      if (qmin == 0 || !stacks_[qmin - 1].empty()) {
        uint32_t parent_top =
            qmin == 0 ? 0
                      : static_cast<uint32_t>(stacks_[qmin - 1].size() - 1);
        stacks_[qmin].push_back(Entry{emin, parent_top});
        if (stats_ != nullptr) ++stats_->stack_pushes;
        if (qmin == k - 1) {
          ExpandLeaf(&out);
          stacks_[qmin].pop_back();
        }
      }
      ++cursors_[qmin];
      // Dead path: interior stream q exhausted with an empty stack blocks
      // all future pushes at q+1; if every deeper stack is empty too, no
      // leaf push can ever happen again (leaf solutions are emitted
      // eagerly, so nothing is pending).
      for (size_t q = 0; q + 1 < k; ++q) {
        if (!Eof(q) || !stacks_[q].empty()) continue;
        bool deeper_alive = false;
        for (size_t d = q + 1; d + 1 < k && !deeper_alive; ++d) {
          deeper_alive = !stacks_[d].empty();
        }
        if (!deeper_alive) return out;
      }
    }
    return out;
  }

 private:
  struct Entry {
    NodeId elem;
    uint32_t parent_pos;  // index into the previous stack at push time
  };

  bool Eof(size_t q) const { return cursors_[q] >= streams_[q].size(); }
  NodeId Cur(size_t q) const { return streams_[q].At(cursors_[q], 0); }

  /// True if the edge into path position `q` is satisfied between
  /// ancestor element `a` and descendant element `d` (containment is
  /// guaranteed by the stack discipline; only parent-child needs a check).
  bool EdgeOk(size_t q, NodeId a, NodeId d) const {
    if (pattern_.node(path_[q]).axis != Axis::kChild) return true;
    return view_.LevelOf(a) + 1 == view_.LevelOf(d);
  }

  /// Emits every root-to-leaf chain ending at the just-pushed leaf entry.
  void ExpandLeaf(TupleSet* out) {
    const size_t k = path_.size();
    std::vector<NodeId> row(k);
    const Entry& leaf = stacks_[k - 1].back();
    row[k - 1] = leaf.elem;
    ExpandLevel(k - 1, leaf.parent_pos, &row, out);
  }

  /// Chooses an entry of stack `q - 1` at position <= `limit` and recurses.
  void ExpandLevel(size_t q, uint32_t limit, std::vector<NodeId>* row,
                   TupleSet* out) {
    if (q == 0) {
      out->AppendRow(row->data());
      if (stats_ != nullptr) ++stats_->path_solutions;
      return;
    }
    const auto& stack = stacks_[q - 1];
    for (uint32_t pos = 0; pos <= limit && pos < stack.size(); ++pos) {
      const Entry& entry = stack[pos];
      // Proper containment: the ancestor must start strictly earlier (a
      // self-path like m//m can place the same element in both streams).
      if (entry.elem >= (*row)[q]) continue;
      if (!EdgeOk(q, entry.elem, (*row)[q])) continue;
      (*row)[q - 1] = entry.elem;
      ExpandLevel(q - 1, entry.parent_pos, row, out);
    }
  }

  const Database& db_;
  const DocView view_;
  const Pattern& pattern_;
  const std::vector<PatternNodeId>& path_;
  TwigJoinStats* stats_;
  std::vector<ColumnBatch> streams_;
  std::vector<size_t> cursors_;
  std::vector<std::vector<Entry>> stacks_;
};

/// Phase 2: hash-joins `left` with `right` on their shared pattern-node
/// columns (for root-to-leaf paths of one pattern, always a shared prefix
/// containing at least the root).
TupleSet MergeOnSharedSlots(const TupleSet& left, const TupleSet& right,
                            TwigJoinStats* stats) {
  std::vector<size_t> left_key;   // key slot indices in left
  std::vector<size_t> right_key;  // matching slot indices in right
  std::vector<size_t> right_extra;
  for (size_t rs = 0; rs < right.arity(); ++rs) {
    int ls = left.SlotOf(right.slots()[rs]);
    if (ls >= 0) {
      left_key.push_back(static_cast<size_t>(ls));
      right_key.push_back(rs);
    } else {
      right_extra.push_back(rs);
    }
  }

  std::vector<PatternNodeId> out_slots = left.slots();
  for (size_t rs : right_extra) out_slots.push_back(right.slots()[rs]);
  TupleSet out(std::move(out_slots));

  // Hash the (smaller) right side on the key columns.
  auto hash_key = [](const std::vector<NodeId>& key) {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (NodeId id : key) {
      h ^= id + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    }
    return h;
  };
  std::unordered_map<uint64_t, std::vector<uint32_t>> table;
  std::vector<NodeId> key(right_key.size());
  for (size_t r = 0; r < right.size(); ++r) {
    for (size_t i = 0; i < right_key.size(); ++i) {
      key[i] = right.At(r, right_key[i]);
    }
    table[hash_key(key)].push_back(static_cast<uint32_t>(r));
  }

  std::vector<NodeId> out_row(out.arity());
  for (size_t l = 0; l < left.size(); ++l) {
    for (size_t i = 0; i < left_key.size(); ++i) {
      key[i] = left.At(l, left_key[i]);
    }
    auto it = table.find(hash_key(key));
    if (it == table.end()) continue;
    for (uint32_t r : it->second) {
      // Confirm equality (hash buckets may collide).
      bool equal = true;
      for (size_t i = 0; i < left_key.size() && equal; ++i) {
        equal = left.At(l, left_key[i]) == right.At(r, right_key[i]);
      }
      if (!equal) continue;
      for (size_t c = 0; c < left.arity(); ++c) out_row[c] = left.At(l, c);
      for (size_t i = 0; i < right_extra.size(); ++i) {
        out_row[left.arity() + i] = right.At(r, right_extra[i]);
      }
      out.AppendRow(out_row.data());
      if (stats != nullptr) ++stats->merge_rows;
    }
  }
  return out;
}

}  // namespace

Result<TupleSet> TwigJoin(const Database& db, const Pattern& pattern,
                          TwigJoinStats* stats) {
  SJOS_RETURN_IF_ERROR(pattern.Validate());
  Timer timer;
  std::vector<std::vector<PatternNodeId>> paths = DecomposePaths(pattern);
  if (stats != nullptr) stats->num_paths = paths.size();

  std::vector<TupleSet> solutions;
  solutions.reserve(paths.size());
  for (const auto& path : paths) {
    PathStackRun run(db, pattern, path, stats);
    solutions.push_back(run.Run());
  }

  TupleSet result = std::move(solutions[0]);
  for (size_t i = 1; i < solutions.size(); ++i) {
    result = MergeOnSharedSlots(result, solutions[i], stats);
  }
  if (stats != nullptr) stats->wall_ms = timer.ElapsedMs();
  return result;
}

}  // namespace sjos
