#include "sql/script_runner.h"

#include <algorithm>
#include <optional>

#include "pdb/join.h"
#include "pdb/layered_engine.h"
#include "pdb/monte_carlo.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace jigsaw::sql {

namespace {

/// The layered engine's per-world plan over the scenario's row program:
/// a one-row scan that evaluates every outer column for the context's
/// (params, world) pair, compiled or interpreted. The node carries no
/// shared mutable state, so a fresh one per world is safe under the
/// engine's world fan-out.
pdb::PlanNodePtr MakeRowProgramScan(
    std::shared_ptr<const RowProgram> program) {
  std::vector<pdb::Column> cols;
  cols.reserve(program->outer_names.size());
  for (const auto& name : program->outer_names) {
    cols.push_back({name, pdb::ValueType::kDouble});
  }
  auto fill = [program = std::move(program)](
                  pdb::EvalContext& ctx, std::vector<double>* out) {
    out->resize(program->outer_names.size());
    std::vector<double*> columns;
    for (double& v : *out) columns.push_back(&v);
    return program->EvalAllColumnsSpan(ctx.params, ctx.sample_id, 1,
                                       *ctx.seeds, ctx.stream_salt, columns);
  };
  return pdb::MakeSingleRowScan(pdb::Schema(std::move(cols)),
                                std::move(fill));
}

/// Fixes every parameter: overrides first, then its value at
/// ValuationAt(0) — the first value of its domain, or a CHAIN
/// parameter's INITIAL VALUE (the same convention the GRAPH sweep uses
/// for non-x params).
Result<std::vector<double>> BaseValuation(
    const ParameterSpace& params,
    const std::vector<std::pair<std::string, double>>& overrides) {
  std::vector<double> valuation = params.ValuationAt(0);
  for (const auto& [name, value] : overrides) {
    auto idx = params.IndexOf(name);
    if (!idx) {
      return Status::InvalidArgument("override for undeclared '@" + name +
                                     "'");
    }
    valuation[*idx] = value;
  }
  return valuation;
}

}  // namespace

std::string ScriptOutcome::Report() const {
  std::string out;
  if (bound.program != nullptr) {
    // Surface the expression-execution mode: silent de-optimization to
    // the interpreter would otherwise be invisible.
    if (bound.program->compiled()) {
      out += "expressions: compiled (vectorized batch programs)\n";
    } else {
      out += "expressions: interpreted";
      if (!bound.program->batch_fallback_reason.empty()) {
        out += " (fallback: " + bound.program->batch_fallback_reason + ")";
      }
      out += "\n";
    }
  }
  if (optimize) {
    out += optimize->ToString() + "\n";
  }
  if (graph) {
    out += StrFormat("GRAPH over @%s: %zu points x %zu series\n",
                     graph->spec.x_param.c_str(), graph->points.size(),
                     graph->spec.series.size());
  }
  if (montecarlo) {
    if (!montecarlo->join.empty()) {
      out += "MONTECARLO join: " + montecarlo->join + "\n";
    }
    if (!montecarlo->sweep_param.empty()) {
      out += StrFormat(
          "MONTECARLO OVER @%s (%s engine, %zu points x %zu worlds, %zu "
          "thread%s):\n",
          montecarlo->sweep_param.c_str(),
          montecarlo->layered ? "layered" : "direct",
          montecarlo->points.size(), montecarlo->worlds,
          montecarlo->num_threads, montecarlo->num_threads == 1 ? "" : "s");
      const MonteCarloPoint* prev = nullptr;
      for (const auto& point : montecarlo->points) {
        out += StrFormat("  @%s = %s:\n", montecarlo->sweep_param.c_str(),
                         DoubleToString(point.value).c_str());
        for (const auto& [name, metrics] : point.columns) {
          out += "    " + name + " " + metrics.ToString();
          // Point-vs-point deltas: how the column's expectation moved
          // relative to the previous sweep point.
          if (prev != nullptr) {
            auto it = prev->columns.find(name);
            if (it != prev->columns.end()) {
              out += StrFormat(" (dmean %+g vs prev point)",
                               metrics.mean - it->second.mean);
            }
          }
          out += "\n";
        }
        prev = &point;
      }
    } else {
      out += StrFormat("MONTECARLO (%s engine, %zu worlds, %zu thread%s):\n",
                       montecarlo->layered ? "layered" : "direct",
                       montecarlo->worlds, montecarlo->num_threads,
                       montecarlo->num_threads == 1 ? "" : "s");
      for (const auto& [name, metrics] : montecarlo->columns) {
        out += "  " + name + " " + metrics.ToString() + "\n";
      }
    }
  }
  out += StrFormat(
      "points evaluated: %llu, reused: %llu (%.1f%%), basis "
      "distributions: %zu, black-box invocations: %llu\n",
      static_cast<unsigned long long>(runner_stats.points_evaluated),
      static_cast<unsigned long long>(runner_stats.points_reused),
      runner_stats.points_evaluated
          ? 100.0 * static_cast<double>(runner_stats.points_reused) /
                static_cast<double>(runner_stats.points_evaluated)
          : 0.0,
      basis_count,
      static_cast<unsigned long long>(runner_stats.blackbox_invocations));
  return out;
}

Result<ScriptOutcome> ScriptRunner::Run(const std::string& text) {
  return Run(text, {});
}

Result<ScriptOutcome> ScriptRunner::Run(
    const std::string& text,
    const std::vector<std::pair<std::string, double>>& overrides) {
  JIGSAW_ASSIGN_OR_RETURN(BoundScript bound, ParseAndBind(text, *registry_));
  return RunBound(std::move(bound), overrides);
}

Result<ScriptOutcome> ScriptRunner::RunBound(
    BoundScript bound,
    const std::vector<std::pair<std::string, double>>& overrides,
    pdb::WorldCache* world_cache) {
  ScriptOutcome outcome;
  // Only OPTIMIZE and GRAPH sample through the fingerprint runner, so only
  // they need fingerprint_size <= num_samples; a MONTECARLO statement
  // builds no runner (nor its private pool) and runs at any world count.
  std::optional<SimulationRunner> runner;
  if (bound.optimize || bound.graph) {
    JIGSAW_RETURN_IF_ERROR(SimulationRunner::ValidateConfig(config_));
    runner.emplace(config_);
  }

  if (bound.optimize) {
    if (bound.chain) {
      return Status::Unimplemented(
          "OPTIMIZE over CHAIN scenarios is not supported; use "
          "RunChainScenario");
    }
    Optimizer optimizer(&*runner);
    JIGSAW_ASSIGN_OR_RETURN(OptimizeResult result,
                            optimizer.Run(bound.scenario, *bound.optimize));
    outcome.optimize = std::move(result);
  }

  if (bound.graph) {
    if (bound.chain) {
      return Status::Unimplemented(
          "GRAPH over CHAIN scenarios is not supported; use "
          "RunChainScenario per step");
    }
    const auto& params = bound.scenario.params;
    auto xidx = params.IndexOf(bound.graph->x_param);
    JIGSAW_CHECK(xidx.has_value());

    // Fix every non-x parameter: overrides first, then the first value of
    // its domain.
    JIGSAW_ASSIGN_OR_RETURN(std::vector<double> valuation,
                            BaseValuation(params, overrides));

    // Resolve series columns to SimFunctions once.
    std::vector<const ScenarioColumn*> cols;
    for (const auto& s : bound.graph->series) {
      JIGSAW_ASSIGN_OR_RETURN(const ScenarioColumn* col,
                              bound.scenario.FindColumn(s.column));
      cols.push_back(col);
    }

    GraphData data;
    data.spec = *bound.graph;
    for (double x : params.def(*xidx).Values()) {
      valuation[*xidx] = x;
      GraphPoint point;
      point.x = x;
      for (std::size_t s = 0; s < cols.size(); ++s) {
        const PointResult r = runner->RunPoint(*cols[s]->fn, valuation);
        point.y.push_back(
            ExtractMetric(r.metrics, bound.graph->series[s].metric));
      }
      data.points.push_back(std::move(point));
    }
    outcome.graph = std::move(data);
  }

  if (bound.montecarlo) {
    JIGSAW_ASSIGN_OR_RETURN(
        std::vector<double> valuation,
        BaseValuation(bound.scenario.params, overrides));
    std::shared_ptr<const RowProgram> program = bound.program;

    MonteCarloOutcome mc;
    mc.layered = bound.montecarlo->layered;
    mc.worlds = config_.num_samples;
    mc.num_threads = std::max<std::size_t>(1, config_.num_threads);
    mc.master_seed = config_.master_seed;
    mc.base_valuation = valuation;

    // The standalone statement is the one-point case of the sweep: OVER
    // @p pins the swept parameter to each point value on top of the base
    // valuation (overrides still fix the other parameters), and every
    // point runs with the standalone statement's seeds — point k's
    // draws are identical to a standalone MONTECARLO at that valuation,
    // and a one-point "sweep" keeps standalone error messages verbatim
    // (the sweep folds only name points past one).
    std::vector<std::vector<double>> valuations;
    if (bound.montecarlo->over) {
      const MonteCarloSweepSpec& sweep = *bound.montecarlo->over;
      mc.sweep_param = sweep.param_name;
      mc.sweep_param_index = sweep.param_index;
      valuations.reserve(sweep.points.size());
      for (double v : sweep.points) {
        valuations.push_back(valuation);
        valuations.back()[sweep.param_index] = v;
      }
    } else {
      valuations.push_back(valuation);
    }

    std::vector<std::map<std::string, OutputMetrics>> per_point;
    if (bound.montecarlo->layered && !bound.montecarlo->join) {
      // Layered path: the prototype's per-point engine with its own seeds
      // and pool, one plan per world fanned out within each point, and
      // the WorldCache shared across points (and, when the snapshot
      // publishes one, across sessions).
      pdb::LayeredEngine engine(config_, world_cache);
      JIGSAW_ASSIGN_OR_RETURN(
          auto results,
          engine.RunSweep(
              [program]() -> Result<pdb::PlanNodePtr> {
                return MakeRowProgramScan(program);
              },
              valuations));
      for (auto& r : results) per_point.push_back(std::move(r.columns));
    } else {
      const SeedVector seeds(config_.master_seed, config_.num_samples);
      // Whichever pool ResolvePool picks (the session server's shared
      // one or a private one), chunk scheduling cannot perturb a draw.
      std::unique_ptr<ThreadPool> owned_pool;
      ThreadPool* const pool = ResolvePool(config_, &owned_pool);
      if (bound.montecarlo->join) {
        // FROM ... JOIN: fold the world-partitioned equi-join of the two
        // bound VG tables instead of the row program. The join consumes
        // no script parameters, so every sweep point would re-run the
        // identical standalone fold: it runs once, and each point gets a
        // copy of its metrics — bit-identical to a one-point statement,
        // which is exactly the sweep contract. A failure is the one
        // point 0 would report first.
        const MonteCarloJoinSpec& join = *bound.montecarlo->join;
        mc.join = join.description;
        // Summarize every numeric column of the joined schema, in schema
        // order; strings have no distribution summary.
        std::vector<std::string> columns;
        for (const auto& col : join.resolved.output.columns()) {
          if (col.type != pdb::ValueType::kString) {
            columns.push_back(col.name);
          }
        }
        // USING LAYERED realizes through the WorldCache (the snapshot's
        // shared cache when published, else a statement-local one);
        // DIRECT realizes per-fold extents.
        pdb::WorldCache local_cache;
        pdb::WorldCache* cache = nullptr;
        if (bound.montecarlo->layered) {
          cache = world_cache != nullptr ? world_cache : &local_cache;
        }
        auto folded = pdb::FoldJoinedVGColumns(
            join.left, join.right, join.keys, columns, config_.num_samples,
            seeds, config_, pool, cache);
        if (!folded.ok()) {
          if (valuations.size() > 1) {
            return pdb::NameSweepPoint(0, folded.status());
          }
          return folded.status();
        }
        // Copies for all points but the last, which takes the fold
        // itself: with keep_samples a copy carries every joined tuple's
        // samples.
        per_point.assign(valuations.size() - 1, folded.value());
        per_point.push_back(std::move(folded).value());
      } else {
        // The row program over the two-axis cell grid: every (point,
        // world-chunk) cell is one EvalAllColumnsSpan call — a single
        // BatchProgram run when the program compiled, the interpreter's
        // world-at-a-time loop otherwise — and all cells spread across
        // the pool at once. Only the valuation varies by point.
        auto run_span = [&](std::size_t point, std::size_t begin,
                            std::size_t count,
                            std::span<double* const> columns) {
          return program->EvalAllColumnsSpan(valuations[point], begin,
                                             count, seeds,
                                             /*stream_salt=*/0, columns);
        };
        JIGSAW_ASSIGN_OR_RETURN(
            per_point,
            pdb::FoldPointWorldSpans(program->outer_names, valuations.size(),
                                     config_.num_samples, config_, pool,
                                     run_span));
      }
    }

    if (bound.montecarlo->over) {
      mc.points.reserve(per_point.size());
      for (std::size_t k = 0; k < per_point.size(); ++k) {
        mc.points.push_back(MonteCarloPoint{
            bound.montecarlo->over->points[k], std::move(per_point[k])});
      }
    } else {
      mc.columns = std::move(per_point[0]);
    }
    outcome.montecarlo = std::move(mc);
  }

  if (runner) {
    outcome.runner_stats = runner->stats();
    outcome.basis_count = runner->basis_store().size();
  }
  outcome.bound = std::move(bound);
  return outcome;
}

}  // namespace jigsaw::sql
