#include "service/query_options.h"

namespace sjos {

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
