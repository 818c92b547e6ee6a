// Positional histograms (Wu, Patel, Jagadish — "Estimating Answer Sizes for
// XML Queries", EDBT 2002): per tag, 2-D grids over the (start, end)
// plane. Because pre-order intervals nest properly, element d is a
// descendant of element a iff d.start falls inside (a.start, a.end], so
// the ancestor-descendant join size between two tags is estimable from A's
// joint (start, end) grid and D's start marginal.
//
// This implementation keeps one grid per (tag, level) — the EDBT paper's
// level-aware variant — for ancestor-descendant estimates. Parent-child
// join sizes are not estimated at all: a parent-child tag-pair count
// matrix (tags x tags integers, one pass over the document, in the spirit
// of DataGuide-style path statistics) makes them exact. Uniformity
// assumptions fail badly for parents whose whole interval is smaller than
// a grid bucket, and PC edges dominate the workload's deep chains, so
// exactness here is what keeps multi-edge cluster estimates sane.

#ifndef SJOS_ESTIMATE_POSITIONAL_HISTOGRAM_H_
#define SJOS_ESTIMATE_POSITIONAL_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "estimate/estimator.h"
#include "storage/stats.h"
#include "storage/tag_index.h"
#include "xml/document.h"

namespace sjos {

/// The 2-D grid of one (tag, level): cell (i, j) counts elements with
/// start in bucket i and end in bucket j. Only j >= i cells can be
/// populated. Each cell additionally tracks the mean (end - start) span of
/// its elements, which keeps estimates sound for intervals smaller than a
/// bucket.
class PositionalGrid {
 public:
  PositionalGrid() = default;
  PositionalGrid(uint32_t grid_size, uint64_t domain);

  void Add(NodeId start, NodeId end);
  /// Inverse of Add for incremental maintenance; decrements saturate at
  /// zero so a stray remove can never corrupt the grid.
  void Remove(NodeId start, NodeId end);

  uint32_t grid_size() const { return grid_size_; }
  uint64_t total() const { return total_; }
  uint64_t CellCount(uint32_t i, uint32_t j) const {
    return cells_[static_cast<size_t>(i) * grid_size_ + j];
  }

  /// Mean (end - start) span of the elements in cell (i, j); 0 for an
  /// empty cell.
  double CellAvgSpan(uint32_t i, uint32_t j) const;

  /// Width of one bucket in start/end units.
  double BucketWidth() const;
  /// Center position of bucket `b`.
  double BucketCenter(uint32_t b) const;
  /// Count of elements with start in bucket `b` (marginal over end).
  uint64_t StartMarginal(uint32_t b) const { return start_marginal_[b]; }
  const std::vector<uint64_t>& start_marginal() const {
    return start_marginal_;
  }

 private:
  uint32_t grid_size_ = 0;
  uint64_t domain_ = 0;
  std::vector<uint64_t> cells_;
  std::vector<uint64_t> span_sums_;  // per cell: sum of (end - start)
  std::vector<uint64_t> start_marginal_;
  uint64_t total_ = 0;
};

/// Tuning for histogram construction.
struct PositionalHistogramConfig {
  /// Buckets per axis; memory/build cost is O(levels * grid_size^2) per
  /// tag. Note the error has two components: a resolution-limited part
  /// that shrinks with the grid, and a correlation-limited part (ancestors
  /// whose whole interval is smaller than one bucket, with children placed
  /// deterministically inside) that does not — the intrinsic limit of
  /// uniformity-assumption histograms. bench_estimate_micro quantifies
  /// both.
  uint32_t grid_size = 64;
};

/// Estimator backed by per-(tag, level) positional grids; build once per
/// document.
class PositionalHistogramEstimator : public CardinalityEstimator {
 public:
  static PositionalHistogramEstimator Build(
      const Document& doc, const TagIndex& index, const DocumentStats& stats,
      const PositionalHistogramConfig& config = {});

  double TagCardinality(TagId tag) const override;
  double EstimateEdgeJoin(TagId ancestor_tag, TagId descendant_tag,
                          Axis axis) const override;
  /// Value-statistic estimate: equals => text fraction / distinct values
  /// (uniform-value assumption); contains => a damped heuristic on the
  /// text fraction. Distinct counts are capped during collection.
  double PredicateSelectivity(TagId tag,
                              const ValuePredicate& predicate) const override;
  /// From the per-tag interval-span totals collected at build time.
  double AvgSubtreeSize(TagId tag) const override;
  const char* name() const override { return "positional-histogram"; }

  /// The level-l grid of `tag` (levels without elements have empty grids).
  const PositionalGrid& GridOf(TagId tag, size_t level) const {
    return level_grids_[tag][level];
  }

  /// Incremental maintenance for differential-overlay mutations: folds one
  /// inserted (removed) element into (out of) the grids, marginals, and the
  /// exact parent-child matrix without a rebuild. Coordinates are order
  /// keys in the same domain the estimator was built over — a respace or
  /// flush changes the domain and requires a full rebuild instead.
  /// `distinct_values_` is approximate under maintenance: inserts with text
  /// increment it (capped), removes leave it alone.
  void ApplyInsert(TagId tag, TagId parent_tag, uint16_t level,
                   NodeId start_key, NodeId end_key, bool has_text);
  void ApplyRemove(TagId tag, TagId parent_tag, uint16_t level,
                   NodeId start_key, NodeId end_key, bool has_text);

 private:
  /// Grows every per-tag structure (including the pc matrix re-layout) so
  /// `tag` at `level` is addressable.
  void EnsureTagLevel(TagId tag, uint16_t level);
  /// Expected D starts (from `d_starts`) within A's cells' intervals.
  double EstimateFromGrids(TagId a, const std::vector<uint64_t>& d_starts,
                           double width) const;

  std::vector<std::vector<PositionalGrid>> level_grids_;  // [tag][level]
  std::vector<std::vector<uint64_t>> start_marginals_;    // [tag][bucket]
  std::vector<uint64_t> totals_;                          // [tag]
  std::vector<uint64_t> span_totals_;      // [tag]: sum of (end - start)
  std::vector<uint64_t> text_counts_;      // [tag]: elements with text
  std::vector<uint32_t> distinct_values_;  // [tag]: distinct texts (capped)
  /// pc_counts_[parent_tag * num_tags + child_tag]: exact parent-child
  /// pair counts.
  std::vector<uint64_t> pc_counts_;
  size_t num_tags_ = 0;
  double bucket_width_ = 1.0;
  uint32_t grid_size_cfg_ = 64;  // bucket count for grids made post-build
  uint64_t domain_ = 1;          // key domain the grids were built over
};

}  // namespace sjos

#endif  // SJOS_ESTIMATE_POSITIONAL_HISTOGRAM_H_
