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
  const std::size_t num_params = scenario.params.num_params();
  const std::size_t num_constraints = spec.constraints.size();
  // Sweep points per RunPoints call: a point's requests never split, and
  // a window holds at most kRequestWindow of them unless one point does.
  const std::size_t window = std::max<std::size_t>(
      1, kRequestWindow / std::max<std::size_t>(1, num_constraints));

  std::vector<double> valuations;  // one full valuation per window point
  std::vector<PointRequest> requests;
  for (std::size_t g = 0; g < num_groups; ++g) {
    const auto group_val = split.group_space.ValuationAt(g);
    GroupEvaluation eval;
    eval.group_valuation = group_val;
    eval.constraint_lhs.assign(num_constraints, 0.0);

    std::vector<double> acc(num_constraints);
    for (std::size_t c = 0; c < acc.size(); ++c) {
      acc[c] = FoldInit(spec.constraints[c].agg);
    }

    for (std::size_t first = 0; first < num_sweep; first += window) {
      const std::size_t last = std::min(first + window, num_sweep);
      valuations.resize((last - first) * num_params);
      requests.clear();
      for (std::size_t s = first; s < last; ++s) {
        const auto sweep_val = split.sweep_space.ValuationAt(s);
        double* full = valuations.data() + (s - first) * num_params;
        for (std::size_t i = 0; i < split.group_idx.size(); ++i) {
          full[split.group_idx[i]] = group_val[i];
        }
        for (std::size_t i = 0; i < split.sweep_idx.size(); ++i) {
          full[split.sweep_idx[i]] = sweep_val[i];
        }
        for (const ScenarioColumn* column : constraint_columns) {
          requests.push_back({column->fn.get(), {full, num_params}});
        }
      }
      const std::vector<PointResult> points = runner_->RunPoints(requests);
      for (std::size_t r = 0; r < points.size(); ++r) {
        const std::size_t c = r % num_constraints;
        const double metric =
            ExtractMetric(points[r].metrics, spec.constraints[c].metric);
        acc[c] = FoldStep(spec.constraints[c].agg, acc[c], metric);
      }
      result.points_simulated += points.size();
    }

    eval.feasible = true;
    for (std::size_t c = 0; c < num_constraints; ++c) {
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
