#include "storage/stats.h"

#include <algorithm>

#include "common/str_util.h"

namespace sjos {

uint64_t TagLevelHistogram::Total() const {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return total;
}

double TagLevelHistogram::FractionAtLevel(size_t lv) const {
  uint64_t total = Total();
  if (total == 0 || lv >= counts.size()) return 0.0;
  return static_cast<double>(counts[lv]) / static_cast<double>(total);
}

DocumentStats DocumentStats::Collect(const Document& doc,
                                     const TagIndex& index) {
  DocumentStats stats;
  stats.num_nodes_ = doc.NumNodes();
  stats.max_level_ = doc.MaxLevel();
  stats.tag_counts_.resize(doc.dict().size(), 0);
  stats.tag_levels_.resize(doc.dict().size());
  for (TagId t = 0; t < doc.dict().size(); ++t) {
    stats.tag_counts_[t] = index.Cardinality(t);
    stats.tag_levels_[t].counts.assign(stats.max_level_ + 1, 0);
  }
  uint64_t level_sum = 0;
  const NodeId n = static_cast<NodeId>(doc.NumNodes());
  const TagId* tags = doc.TagData();
  const uint16_t* levels = doc.LevelData();
  for (NodeId id = 0; id < n; ++id) {
    uint16_t lv = levels[id];
    level_sum += lv;
    ++stats.tag_levels_[tags[id]].counts[lv];
  }
  stats.level_sum_ = level_sum;
  stats.avg_level_ =
      n == 0 ? 0.0 : static_cast<double>(level_sum) / static_cast<double>(n);
  return stats;
}

void DocumentStats::EnsureTagLevel(TagId tag, uint16_t level) {
  if (tag >= tag_counts_.size()) {
    tag_counts_.resize(tag + 1, 0);
    tag_levels_.resize(tag + 1);
  }
  if (level > max_level_) max_level_ = level;
  for (TagLevelHistogram& h : tag_levels_) {
    if (h.counts.size() <= max_level_) h.counts.resize(max_level_ + 1, 0);
  }
}

void DocumentStats::ApplyInsert(TagId tag, uint16_t level) {
  EnsureTagLevel(tag, level);
  ++num_nodes_;
  ++tag_counts_[tag];
  ++tag_levels_[tag].counts[level];
  level_sum_ += level;
  avg_level_ = num_nodes_ == 0 ? 0.0
                               : static_cast<double>(level_sum_) /
                                     static_cast<double>(num_nodes_);
}

void DocumentStats::ApplyRemove(TagId tag, uint16_t level) {
  EnsureTagLevel(tag, level);
  if (num_nodes_ > 0) --num_nodes_;
  if (tag_counts_[tag] > 0) --tag_counts_[tag];
  if (tag_levels_[tag].counts[level] > 0) --tag_levels_[tag].counts[level];
  if (level_sum_ >= level) level_sum_ -= level;
  avg_level_ = num_nodes_ == 0 ? 0.0
                               : static_cast<double>(level_sum_) /
                                     static_cast<double>(num_nodes_);
}

uint64_t DocumentStats::TagCount(TagId tag) const {
  if (tag >= tag_counts_.size()) return 0;
  return tag_counts_[tag];
}

const TagLevelHistogram& DocumentStats::LevelsOf(TagId tag) const {
  if (tag >= tag_levels_.size()) return empty_;
  return tag_levels_[tag];
}

std::string DocumentStats::ToString(const Document& doc,
                                    size_t max_tags) const {
  std::string out = StrFormat(
      "nodes=%llu max_level=%u avg_level=%.2f tags=%zu\n",
      static_cast<unsigned long long>(num_nodes_), max_level_, avg_level_,
      tag_counts_.size());
  // Report the most frequent tags first.
  std::vector<TagId> order(tag_counts_.size());
  for (TagId t = 0; t < order.size(); ++t) order[t] = t;
  std::sort(order.begin(), order.end(), [&](TagId a, TagId b) {
    return tag_counts_[a] > tag_counts_[b];
  });
  for (size_t i = 0; i < order.size() && i < max_tags; ++i) {
    TagId t = order[i];
    out += StrFormat("  %-20s %llu\n", doc.dict().Name(t).c_str(),
                     static_cast<unsigned long long>(tag_counts_[t]));
  }
  return out;
}

}  // namespace sjos
