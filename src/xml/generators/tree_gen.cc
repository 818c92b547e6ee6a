#include "xml/generators/tree_gen.h"

#include "common/rng.h"
#include "common/str_util.h"
#include "xml/builder.h"

namespace sjos {

namespace {

void Grow(const TreeGenConfig& config, Rng* rng, DocumentBuilder* builder,
          uint32_t depth, uint64_t* budget) {
  if (depth >= config.max_depth || *budget == 0) return;
  uint64_t fanout = static_cast<uint64_t>(
      rng->NextInRange(config.min_fanout, config.max_fanout));
  for (uint64_t i = 0; i < fanout && *budget > 0; ++i) {
    uint64_t tag = rng->NextZipf(config.num_tags, config.tag_skew);
    builder->OpenElement(
        StrFormat("t%llu", static_cast<unsigned long long>(tag)));
    --*budget;
    Grow(config, rng, builder, depth + 1, budget);
    builder->CloseElement();
  }
}

}  // namespace

Result<Document> GenerateTree(const TreeGenConfig& config) {
  if (config.target_nodes == 0) {
    return Status::InvalidArgument("target_nodes must be >= 1");
  }
  if (config.min_fanout > config.max_fanout) {
    return Status::InvalidArgument("min_fanout > max_fanout");
  }
  Rng rng(config.seed);
  DocumentBuilder builder;
  builder.OpenElement(config.root_tag);
  uint64_t budget = config.target_nodes - 1;
  // Keep sprouting top-level subtrees until the budget is used, so small
  // max_depth values still reach target_nodes.
  while (budget > 0) {
    uint64_t before = budget;
    Grow(config, &rng, &builder, 1, &budget);
    if (budget == before) {
      // Fan-out sampled 0 at the root; force one child to make progress.
      builder.OpenElement("t0");
      --budget;
      builder.CloseElement();
    }
  }
  builder.CloseElement();
  return std::move(builder).Build();
}

}  // namespace sjos
