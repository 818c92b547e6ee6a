// Database: one loaded document plus its access structures (tag index,
// statistics, differential overlay). This is the unit the optimizer and
// executor operate against — the moral equivalent of a Timber database
// instance. Mutations (subtree insert/delete, flush) go through the
// methods here under the caller's writer lock; readers consume the
// overlay through View().

#ifndef SJOS_STORAGE_CATALOG_H_
#define SJOS_STORAGE_CATALOG_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/differential_index.h"
#include "storage/stats.h"
#include "storage/tag_index.h"
#include "xml/document.h"

namespace sjos {

/// Owns a document and its derived access structures.
class Database {
 public:
  /// Per-mutation change record handed back to callers that maintain
  /// derived state (histograms, plan caches) incrementally.
  struct MutationDelta {
    std::vector<DifferentialIndex::InsertedNode> added;
    std::vector<DifferentialIndex::InsertedNode> removed;
    /// Tags of mutated nodes and of their parents, sorted and unique.
    std::vector<TagId> touched_tags;
    /// True when the mutation renumbered the base keys (first insert on a
    /// dense document): derived structures need a full rebuild.
    bool respaced = false;
  };

  /// Takes ownership of `doc`, builds the tag index and statistics.
  static Database Open(Document doc, std::string name = "db");

  const std::string& name() const { return name_; }
  const Document& doc() const { return *doc_; }
  const TagIndex& index() const { return index_; }
  const DocumentStats& stats() const { return stats_; }

  /// Overlay-aware read view. The overlay pointer is null until the first
  /// mutation, so overlay-free reads stay on the fast path.
  DocView View() const { return DocView(doc_.get(), diff_.get()); }
  const DifferentialIndex* diff() const { return diff_.get(); }
  bool HasOverlay() const { return diff_ != nullptr && !diff_->Empty(); }

  /// Nodes visible to readers: base minus deleted plus inserted.
  size_t LiveNodeCount() const;

  /// Cardinality of a tag by name; 0 for unknown tags.
  uint64_t CardinalityOf(std::string_view tag_name) const;

  /// Grafts a parsed fragment under `parent_key` as its `position`-th
  /// child (SIZE_MAX appends). Interns the fragment's tags, spaces the
  /// key domain on the first insert (reported via delta->respaced, also
  /// when the insert then fails: a dense `parent_key` now lives at
  /// doc().KeyOfSlot(parent_key)), and records the new nodes in `delta`.
  /// ResourceExhausted when the key gap is full — callers flush and
  /// retry.
  Status InsertSubtree(NodeId parent_key, size_t position,
                       const Document& fragment, MutationDelta* delta);

  /// Deletes the subtree rooted at `key`, recording removed nodes in
  /// `delta`.
  Status DeleteSubtreeAt(NodeId key, MutationDelta* delta);

  /// Folds the overlay into a fresh document + tag index + statistics and
  /// swaps them in atomically (build-then-swap; the `diff.flush`
  /// failpoint fires between build and swap, proving a failed flush
  /// leaves the old state intact). Idempotent: a clean overlay is a
  /// no-op. The flushed document keeps a spaced key domain.
  Status FlushDifferential();

  /// Dense (unspaced) document equal to the merged base + overlay view.
  Result<Document> MaterializeMerged() const;

  /// Live node keys in document order — the canonical key → pre-order
  /// rank mapping used to compare results across renumberings.
  std::vector<NodeId> MergedOrder() const;

 private:
  Status EnsureSpaced();

  std::string name_;
  std::unique_ptr<Document> doc_;
  TagIndex index_;
  DocumentStats stats_;
  std::unique_ptr<DifferentialIndex> diff_;
};

}  // namespace sjos

#endif  // SJOS_STORAGE_CATALOG_H_
