#include "service/query_options.h"

#include <algorithm>
#include <string>

namespace sjos {

const char* OptimizerKindName(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kDp:
      return "dp";
    case OptimizerKind::kDpp:
      return "dpp";
    case OptimizerKind::kDpapEb:
      return "dpap-eb";
    case OptimizerKind::kDpapLd:
      return "dpap-ld";
    case OptimizerKind::kFp:
      return "fp";
  }
  return "?";
}

Result<OptimizerKind> ParseOptimizerKind(std::string_view name) {
  for (OptimizerKind kind : kAllOptimizerKinds) {
    if (name == OptimizerKindName(kind)) return kind;
  }
  return Status::InvalidArgument(
      "unknown optimizer '" + std::string(name) +
      "' (expected dp, dpp, dpap-eb, dpap-ld, or fp)");
}

std::unique_ptr<Optimizer> MakeOptimizer(OptimizerKind kind,
                                         size_t num_edges) {
  switch (kind) {
    case OptimizerKind::kDp:
      return MakeDpOptimizer();
    case OptimizerKind::kDpp:
      return MakeDppOptimizer();
    case OptimizerKind::kDpapEb:
      return MakeDpapEbOptimizer(
          static_cast<uint32_t>(std::max<size_t>(1, num_edges)));
    case OptimizerKind::kDpapLd:
      return MakeDpapLdOptimizer();
    case OptimizerKind::kFp:
      return MakeFpOptimizer();
  }
  return nullptr;
}

ExecOptions QueryOptions::ExecView() const {
  ExecOptions exec;
  exec.max_join_output_rows = max_join_output_rows;
  exec.batch_rows = batch_rows;
  exec.deadline_ms = deadline_ms;
  exec.max_live_bytes = max_live_bytes;
  exec.query_id = query_id;
  return exec;
}

OptimizerOptions QueryOptions::OptimizerView() const {
  OptimizerOptions opt;
  opt.deadline_ms = static_cast<double>(deadline_ms);
  return opt;
}

}  // namespace sjos
