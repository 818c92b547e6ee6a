#include "xml/generators/mbench_gen.h"

#include <cmath>

#include "common/rng.h"
#include "common/str_util.h"
#include "xml/builder.h"

namespace sjos {

namespace {

/// The Michigan benchmark fixes per-level fan-outs so that each level's
/// population is controlled (most nodes live in the deepest levels). We
/// compute a geometric fan-out that hits `target_nodes` for the configured
/// depth, then follow the benchmark's convention of fan-out 2 for the first
/// four levels.
double SolveFanout(uint64_t target_nodes, uint32_t levels) {
  // nodes(f) = sum_{k=0}^{levels-1} f^k  (roughly, with the first levels at 2)
  double lo = 1.01;
  double hi = 64.0;
  auto count = [&](double f) {
    double total = 0;
    double width = 1;
    for (uint32_t k = 0; k < levels; ++k) {
      total += width;
      width *= (k < 4 ? 2.0 : f);
    }
    return total;
  };
  for (int iter = 0; iter < 60; ++iter) {
    double mid = 0.5 * (lo + hi);
    if (count(mid) < static_cast<double>(target_nodes)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

class MbenchGrower {
 public:
  MbenchGrower(const MbenchGenConfig& config, Rng* rng,
               DocumentBuilder* builder, double fanout, uint64_t budget)
      : config_(config),
        rng_(rng),
        builder_(builder),
        fanout_(fanout),
        budget_(budget) {}

  bool Spend(uint64_t amount = 1) {
    if (budget_ < amount) return false;
    budget_ -= amount;
    return true;
  }
  bool HasBudget() const { return budget_ > 0; }

  void EmitAttributes(uint32_t level) {
    if (!config_.with_attributes) return;
    if (Spend()) {
      builder_->OpenElement("@aLevel");
      builder_->Text(StrFormat("%u", level));
      builder_->CloseElement();
    }
    if (Spend()) {
      builder_->OpenElement("@aUnique1");
      builder_->Text(
          StrFormat("%llu", static_cast<unsigned long long>(serial_++)));
      builder_->CloseElement();
    }
    if (Spend()) {
      builder_->OpenElement("@aSixtyFour");
      builder_->Text(StrFormat("%llu",
                               static_cast<unsigned long long>(serial_ % 64)));
      builder_->CloseElement();
    }
  }

  void EmitNest(uint32_t level) {
    builder_->OpenElement("eNest");
    EmitAttributes(level);
    if (rng_->NextBool(config_.occasional_prob) && Spend()) {
      builder_->OpenElement("eOccasional");
      builder_->CloseElement();
    }
    if (level < config_.levels) {
      double mean = level <= 4 ? 2.0 : fanout_;
      uint64_t base = static_cast<uint64_t>(mean);
      uint64_t kids =
          base + (rng_->NextBool(mean - static_cast<double>(base)) ? 1 : 0);
      for (uint64_t i = 0; i < kids; ++i) {
        if (!Spend()) break;
        EmitNest(level + 1);
      }
    }
    builder_->CloseElement();
  }

 private:
  const MbenchGenConfig& config_;
  Rng* rng_;
  DocumentBuilder* builder_;
  double fanout_;
  uint64_t budget_;
  uint64_t serial_ = 0;
};

}  // namespace

Result<Document> GenerateMbench(const MbenchGenConfig& config) {
  if (config.target_nodes < 2) {
    return Status::InvalidArgument("target_nodes must be >= 2");
  }
  if (config.levels < 2) {
    return Status::InvalidArgument("levels must be >= 2");
  }
  Rng rng(config.seed);
  // Attributes consume ~3 extra nodes per eNest; shrink the structural
  // budget accordingly before solving for fan-out.
  uint64_t structural_target =
      config.with_attributes ? config.target_nodes / 4 : config.target_nodes;
  if (structural_target < 2) structural_target = 2;
  double fanout = SolveFanout(structural_target, config.levels);
  DocumentBuilder builder;
  MbenchGrower grower(config, &rng, &builder, fanout, config.target_nodes - 1);
  grower.EmitNest(/*level=*/1);
  // Root eNest counted implicitly; re-seed additional top-level subtrees is
  // not allowed (single root), so any unused budget is simply left unused.
  return std::move(builder).Build();
}

}  // namespace sjos
