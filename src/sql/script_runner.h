#pragma once

/// \file script_runner.h
/// End-to-end execution of Jigsaw scripts: parse -> bind -> run. A script
/// contains DECLARE PARAMETER statements, one scenario SELECT, and
/// optionally an OPTIMIZE (batch mode, Figure 1) and/or a GRAPH query
/// (interactive mode's presentation, Section 2.2). This is the highest-
/// level entry point of the library; the examples and the REPL sit on it.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/graph_spec.h"
#include "core/metrics.h"
#include "core/optimizer.h"
#include "core/run_config.h"
#include "core/sim_runner.h"
#include "models/black_box.h"
#include "sql/binder.h"
#include "util/status.h"

namespace jigsaw::pdb {
class WorldCache;
}  // namespace jigsaw::pdb

namespace jigsaw::sql {

struct GraphPoint {
  double x = 0.0;
  std::vector<double> y;  ///< one value per series
};

struct GraphData {
  GraphSpec spec;
  std::vector<GraphPoint> points;
};

/// One point of a MONTECARLO OVER sweep: the swept parameter's value and
/// the per-column summaries at that valuation — bit-identical to a
/// standalone MONTECARLO run with the parameter pinned to `value`.
struct MonteCarloPoint {
  double value = 0.0;
  std::map<std::string, OutputMetrics> columns;
};

/// Result of a MONTECARLO statement: full per-column distribution
/// summaries over the sampled possible worlds — at one valuation, or
/// (OVER @p) one summary table per sweep point.
struct MonteCarloOutcome {
  std::map<std::string, OutputMetrics> columns;  ///< single-valuation run
  std::size_t worlds = 0;
  std::size_t num_threads = 1;  ///< worker threads the worlds fanned over
  bool layered = false;         ///< true if run through LayeredEngine
  std::string join;  ///< FROM...JOIN description ("" for row-program runs)
  std::string sweep_param;      ///< OVER parameter name ("" if no sweep)
  std::vector<MonteCarloPoint> points;  ///< one per OVER point, in order

  // Provenance for downstream consumers (MakeSessionFromOutcome): which
  // seed namespace the worlds drew from and which valuation each sweep
  // point pinned, so an interactive session can verify the outcome's
  // world ids are its own sample ids before importing them.
  std::uint64_t master_seed = 0;         ///< seed namespace of the draws
  std::vector<double> base_valuation;    ///< valuation before OVER pinning
  std::optional<std::size_t> sweep_param_index;  ///< OVER param's index
};

struct ScriptOutcome {
  BoundScript bound;
  std::optional<OptimizeResult> optimize;
  std::optional<GraphData> graph;
  std::optional<MonteCarloOutcome> montecarlo;
  RunnerStats runner_stats;
  std::size_t basis_count = 0;

  /// Human-readable summary of whatever the script produced.
  std::string Report() const;
};

class ScriptRunner {
 public:
  ScriptRunner(const ModelRegistry* registry, const RunConfig& config)
      : registry_(registry), config_(config) {}

  /// Runs a full script. `overrides` pins specific parameters (by name)
  /// for GRAPH and MONTECARLO; unspecified parameters take their value at
  /// ParameterSpace::ValuationAt(0): the first value of their domain, or
  /// a CHAIN parameter's INITIAL VALUE.
  Result<ScriptOutcome> Run(const std::string& text);
  Result<ScriptOutcome> Run(const std::string& text,
                            const std::vector<std::pair<std::string, double>>&
                                overrides);

  /// Executes an already-bound script — the session-server path, where
  /// parse+bind happened once at publish time and every client run
  /// replays the frozen plan. `bound` is taken by value (snapshot callers
  /// pass a copy of the published plan; the copy is cheap — columns and
  /// programs are shared_ptrs) and runs as bound: a plan passed through
  /// UseInterpretedExpressions runs on the interpreter, the reference
  /// twin tests and benches diff the compiled plan against.
  ///
  /// `world_cache`, when set, is a published snapshot's shared cache of
  /// VG realizations (see serve/session_server.h): non-owning, it must
  /// outlive the run. It memoizes realizations that are pure functions of
  /// (table, seed namespace, world), so results are bit-identical to Run()
  /// on the same script text with the same config, with or without it.
  Result<ScriptOutcome> RunBound(
      BoundScript bound,
      const std::vector<std::pair<std::string, double>>& overrides,
      pdb::WorldCache* world_cache = nullptr);

 private:
  const ModelRegistry* registry_;
  RunConfig config_;
};

}  // namespace jigsaw::sql
