#include "plan/plan_printer.h"

#include "common/str_util.h"
#include "plan/plan_props.h"

namespace sjos {

namespace {

std::string NodeLabel(const Pattern& pattern, PatternNodeId id) {
  if (id == kNoPatternNode) return "?";
  return StrFormat("#%d(%s)", id, pattern.node(id).tag.c_str());
}

void PrintNode(const PhysicalPlan& plan, const Pattern& pattern,
               const std::vector<OpStats>* op_stats, int index, int depth,
               std::string* out) {
  const PlanNode& node = plan.At(index);
  out->append(static_cast<size_t>(depth) * 2, ' ');
  switch (node.op) {
    case PlanOp::kIndexScan:
      *out += StrFormat("IndexScan %s",
                        NodeLabel(pattern, node.scan_node).c_str());
      break;
    case PlanOp::kSort:
      *out += StrFormat("Sort by %s", NodeLabel(pattern, node.sort_by).c_str());
      break;
    case PlanOp::kNavigate:
      *out += StrFormat("Navigate %s %s %s",
                        NodeLabel(pattern, node.anc_node).c_str(),
                        AxisToken(node.axis),
                        NodeLabel(pattern, node.desc_node).c_str());
      break;
    case PlanOp::kStackTreeAnc:
    case PlanOp::kStackTreeDesc:
      *out += StrFormat("%s %s %s %s", PlanOpName(node.op),
                        NodeLabel(pattern, node.anc_node).c_str(),
                        AxisToken(node.axis),
                        NodeLabel(pattern, node.desc_node).c_str());
      break;
  }
  if (op_stats != nullptr && static_cast<size_t>(index) < op_stats->size()) {
    const OpStats& os = (*op_stats)[static_cast<size_t>(index)];
    // A node that never opened (batches == 0) has no meaningful average;
    // print `-` rather than dividing by zero.
    std::string avg = os.batches == 0
                          ? "-"
                          : StrFormat("%.1f",
                                      static_cast<double>(os.rows) /
                                          static_cast<double>(os.batches));
    *out += StrFormat(
        "  [rows=%llu batches=%llu avg=%s time=%.3fms self=%.3fms "
        "peak-live=%llu",
        static_cast<unsigned long long>(os.rows),
        static_cast<unsigned long long>(os.batches), avg.c_str(), os.time_ms,
        os.self_ms, static_cast<unsigned long long>(os.peak_live_rows));
    const bool is_join = node.op == PlanOp::kStackTreeAnc ||
                         node.op == PlanOp::kStackTreeDesc;
    if (is_join && node.est_rows >= 0.0) {
      if (os.batches == 0) {
        *out += StrFormat(" est=%.0f q=-", node.est_rows);
      } else {
        *out += StrFormat(" est=%.0f q=%.2f", node.est_rows,
                          QError(node.est_rows, static_cast<double>(os.rows)));
      }
    }
    *out += ']';
  }
  *out += '\n';
  if (node.left >= 0) {
    PrintNode(plan, pattern, op_stats, node.left, depth + 1, out);
  }
  if (node.right >= 0) {
    PrintNode(plan, pattern, op_stats, node.right, depth + 1, out);
  }
}

void SignatureOf(const PhysicalPlan& plan, const Pattern& pattern, int index,
                 std::string* out) {
  const PlanNode& node = plan.At(index);
  switch (node.op) {
    case PlanOp::kIndexScan:
      *out += pattern.node(node.scan_node).tag;
      *out += StrFormat("#%d", node.scan_node);
      break;
    case PlanOp::kSort:
      *out += "sort_";
      *out += pattern.node(node.sort_by).tag;
      *out += '(';
      SignatureOf(plan, pattern, node.left, out);
      *out += ')';
      break;
    case PlanOp::kNavigate:
      *out += '(';
      SignatureOf(plan, pattern, node.left, out);
      *out += " NAV ";
      *out += pattern.node(node.desc_node).tag;
      *out += StrFormat("#%d", node.desc_node);
      *out += ')';
      break;
    case PlanOp::kStackTreeAnc:
    case PlanOp::kStackTreeDesc:
      *out += '(';
      SignatureOf(plan, pattern, node.left, out);
      *out += node.op == PlanOp::kStackTreeAnc ? " STA " : " STD ";
      SignatureOf(plan, pattern, node.right, out);
      *out += ')';
      break;
  }
}

}  // namespace

std::string PrintPlan(const PhysicalPlan& plan, const Pattern& pattern) {
  if (plan.Empty()) return "<empty plan>\n";
  std::string out;
  PrintNode(plan, pattern, nullptr, plan.root(), 0, &out);
  return out;
}

std::string PrintPlanAnalyze(const PhysicalPlan& plan, const Pattern& pattern,
                             const std::vector<OpStats>& op_stats) {
  if (plan.Empty()) return "<empty plan>\n";
  std::string out;
  PrintNode(plan, pattern, &op_stats, plan.root(), 0, &out);
  const double max_q = MaxJoinQError(plan, op_stats);
  if (max_q > 0.0) out += StrFormat("max join q-error: %.2f\n", max_q);
  if (!plan.note().empty()) out += "note: " + plan.note() + "\n";
  return out;
}

std::string PlanSignature(const PhysicalPlan& plan, const Pattern& pattern) {
  if (plan.Empty()) return "<empty>";
  std::string out;
  SignatureOf(plan, pattern, plan.root(), &out);
  return out;
}

}  // namespace sjos
