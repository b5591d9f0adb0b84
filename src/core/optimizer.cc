#include "core/optimizer.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"
#include "util/string_util.h"

namespace jigsaw {

double ExtractMetric(const OutputMetrics& metrics, MetricSelector selector) {
  switch (selector) {
    case MetricSelector::kExpect:
      return metrics.mean;
    case MetricSelector::kStdDev:
      return metrics.stddev;
    case MetricSelector::kStdError:
      return metrics.std_error;
    case MetricSelector::kMin:
      return metrics.min;
    case MetricSelector::kMax:
      return metrics.max;
    case MetricSelector::kMedian:
      return metrics.p50;
    case MetricSelector::kP95:
      return metrics.p95;
  }
  return 0.0;
}

bool MetricConstraint::Compare(double lhs) const {
  switch (cmp) {
    case CmpOp::kLt:
      return lhs < threshold;
    case CmpOp::kLe:
      return lhs <= threshold;
    case CmpOp::kGt:
      return lhs > threshold;
    case CmpOp::kGe:
      return lhs >= threshold;
  }
  return false;
}

std::string OptimizeResult::ToString() const {
  if (!found) return "OPTIMIZE: no feasible parameter valuation";
  std::string out = "OPTIMIZE: best valuation {";
  for (std::size_t i = 0; i < group_param_names.size(); ++i) {
    if (i > 0) out += ", ";
    out += "@" + group_param_names[i] + "=" +
           DoubleToString(best_valuation[i]);
  }
  out += StrFormat("} (%zu/%zu groups feasible)",
                   static_cast<std::size_t>(std::count_if(
                       groups.begin(), groups.end(),
                       [](const GroupEvaluation& g) { return g.feasible; })),
                   groups.size());
  return out;
}

Selector::Selector(std::vector<ObjectiveTerm> objectives,
                   std::vector<std::string> group_param_names) {
  for (const auto& term : objectives) {
    bool found = false;
    for (std::size_t i = 0; i < group_param_names.size(); ++i) {
      if (EqualsIgnoreCase(group_param_names[i], term.param)) {
        terms_.push_back(ResolvedTerm{i, term.maximize});
        found = true;
        break;
      }
    }
    JIGSAW_CHECK_MSG(found, "objective parameter '@"
                                << term.param
                                << "' is not a GROUP BY parameter");
  }
}

bool Selector::Better(const std::vector<double>& candidate,
                      const std::vector<double>& incumbent) const {
  for (const auto& term : terms_) {
    const double c = candidate[term.index];
    const double i = incumbent[term.index];
    if (c == i) continue;
    return term.maximize ? c > i : c < i;
  }
  return false;  // tie: keep the incumbent (first found wins)
}

namespace {

/// Splits the scenario's parameters into group and sweep dimensions and
/// produces the valuation composer.
struct SpaceSplit {
  std::vector<std::size_t> group_idx;  // scenario param index per group dim
  std::vector<std::size_t> sweep_idx;  // scenario param index per sweep dim
  ParameterSpace group_space;
  ParameterSpace sweep_space;
};

Result<SpaceSplit> SplitSpace(const ParameterSpace& params,
                              const std::vector<std::string>& group_params) {
  SpaceSplit split;
  for (const auto& name : group_params) {
    auto idx = params.IndexOf(name);
    if (!idx) {
      return Status::BindError("GROUP BY references undeclared parameter '@" +
                               name + "'");
    }
    if (params.def(*idx).is_chain()) {
      return Status::BindError("GROUP BY parameter '@" + name +
                               "' is a CHAIN parameter");
    }
    split.group_idx.push_back(*idx);
    JIGSAW_RETURN_IF_ERROR(split.group_space.Add(params.def(*idx)));
  }
  for (std::size_t i = 0; i < params.num_params(); ++i) {
    if (params.def(i).is_chain()) {
      return Status::Unimplemented(
          "OPTIMIZE over CHAIN parameters requires the Markov executor; "
          "evaluate the chain scenario via MarkovJumpRunner instead");
    }
    const bool is_group =
        std::find(split.group_idx.begin(), split.group_idx.end(), i) !=
        split.group_idx.end();
    if (!is_group) {
      split.sweep_idx.push_back(i);
      JIGSAW_RETURN_IF_ERROR(split.sweep_space.Add(params.def(i)));
    }
  }
  return split;
}

double FoldInit(SweepAgg agg) {
  switch (agg) {
    case SweepAgg::kMax:
      return -std::numeric_limits<double>::infinity();
    case SweepAgg::kMin:
      return std::numeric_limits<double>::infinity();
    case SweepAgg::kAvg:
    case SweepAgg::kSum:
      return 0.0;
  }
  return 0.0;
}

double FoldStep(SweepAgg agg, double acc, double x) {
  switch (agg) {
    case SweepAgg::kMax:
      return std::max(acc, x);
    case SweepAgg::kMin:
      return std::min(acc, x);
    case SweepAgg::kAvg:
    case SweepAgg::kSum:
      return acc + x;
  }
  return acc;
}

}  // namespace

Result<OptimizeResult> Optimizer::Run(const Scenario& scenario,
                                      const OptimizeSpec& spec) {
  if (spec.group_params.empty()) {
    return Status::BindError("OPTIMIZE requires a GROUP BY parameter list");
  }
  JIGSAW_ASSIGN_OR_RETURN(SpaceSplit split,
                          SplitSpace(scenario.params, spec.group_params));

  // Resolve constraint columns up front.
  std::vector<const ScenarioColumn*> constraint_columns;
  constraint_columns.reserve(spec.constraints.size());
  for (const auto& c : spec.constraints) {
    JIGSAW_ASSIGN_OR_RETURN(const ScenarioColumn* col,
                            scenario.FindColumn(c.column));
    constraint_columns.push_back(col);
  }

  OptimizeResult result;
  result.group_param_names = spec.group_params;
  Selector selector(spec.objectives, spec.group_params);

  const std::size_t num_groups = split.group_space.NumPoints();
  const std::size_t num_sweep = split.sweep_space.NumPoints();

  std::vector<double> full(scenario.params.num_params(), 0.0);
  for (std::size_t g = 0; g < num_groups; ++g) {
    const auto group_val = split.group_space.ValuationAt(g);
    GroupEvaluation eval;
    eval.group_valuation = group_val;
    eval.constraint_lhs.assign(spec.constraints.size(), 0.0);

    std::vector<double> acc(spec.constraints.size());
    for (std::size_t c = 0; c < acc.size(); ++c) {
      acc[c] = FoldInit(spec.constraints[c].agg);
    }

    for (std::size_t s = 0; s < num_sweep; ++s) {
      const auto sweep_val = split.sweep_space.ValuationAt(s);
      for (std::size_t i = 0; i < split.group_idx.size(); ++i) {
        full[split.group_idx[i]] = group_val[i];
      }
      for (std::size_t i = 0; i < split.sweep_idx.size(); ++i) {
        full[split.sweep_idx[i]] = sweep_val[i];
      }
      // Evaluate each referenced column once per full valuation; the
      // runner's basis store makes repeats cheap.
      for (std::size_t c = 0; c < spec.constraints.size(); ++c) {
        const PointResult point =
            runner_->RunPoint(*constraint_columns[c]->fn, full);
        ++result.points_simulated;
        const double metric =
            ExtractMetric(point.metrics, spec.constraints[c].metric);
        acc[c] = FoldStep(spec.constraints[c].agg, acc[c], metric);
      }
    }

    eval.feasible = true;
    for (std::size_t c = 0; c < spec.constraints.size(); ++c) {
      double lhs = acc[c];
      if (spec.constraints[c].agg == SweepAgg::kAvg) {
        lhs /= static_cast<double>(num_sweep);
      }
      eval.constraint_lhs[c] = lhs;
      if (!spec.constraints[c].Compare(lhs)) eval.feasible = false;
    }

    if (eval.feasible &&
        (!result.found || selector.Better(group_val, result.best_valuation))) {
      result.found = true;
      result.best_valuation = group_val;
    }
    result.groups.push_back(std::move(eval));
  }

  return result;
}

}  // namespace jigsaw
