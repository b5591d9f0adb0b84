#include "interactive/auto_prime.h"

#include <utility>
#include <vector>

#include "util/string_util.h"

namespace jigsaw {

Result<std::unique_ptr<InteractiveSession>> MakeSessionFromOutcome(
    const sql::ScriptOutcome& outcome, const std::string& column,
    const InteractiveConfig& config) {
  if (!outcome.montecarlo) {
    return Status::InvalidArgument(
        "script produced no MONTECARLO result to prime from");
  }
  const sql::MonteCarloOutcome& mc = *outcome.montecarlo;
  if (mc.master_seed != config.run.master_seed) {
    return Status::InvalidArgument(StrFormat(
        "seed namespace mismatch: the sweep drew its worlds under master "
        "seed %llu but the session would sample under %llu; world ids are "
        "only this session's sample ids when both match",
        static_cast<unsigned long long>(mc.master_seed),
        static_cast<unsigned long long>(config.run.master_seed)));
  }
  JIGSAW_ASSIGN_OR_RETURN(const ScenarioColumn* col,
                          outcome.bound.scenario.FindColumn(column));
  const ParameterSpace& space = outcome.bound.scenario.params;

  // Resolve every (enumeration index, metrics) pair before constructing
  // the session: a bad point must not leave a half-primed session behind.
  struct Prime {
    std::size_t point_index;
    const OutputMetrics* metrics;
  };
  std::vector<Prime> primes;
  if (mc.sweep_param_index) {
    std::vector<double> valuation = mc.base_valuation;
    primes.reserve(mc.points.size());
    for (const sql::MonteCarloPoint& point : mc.points) {
      valuation[*mc.sweep_param_index] = point.value;
      JIGSAW_ASSIGN_OR_RETURN(std::size_t idx, space.PointIndexOf(valuation));
      auto it = point.columns.find(column);
      if (it == point.columns.end()) {
        return Status::InvalidArgument(
            "column '" + column + "' is not in the MONTECARLO result");
      }
      primes.push_back(Prime{idx, &it->second});
    }
  } else {
    JIGSAW_ASSIGN_OR_RETURN(std::size_t idx,
                            space.PointIndexOf(mc.base_valuation));
    auto it = mc.columns.find(column);
    if (it == mc.columns.end()) {
      return Status::InvalidArgument(
          "column '" + column + "' is not in the MONTECARLO result");
    }
    primes.push_back(Prime{idx, &it->second});
  }

  auto session =
      std::make_unique<InteractiveSession>(col->fn, space, config);
  for (const Prime& p : primes) {
    JIGSAW_RETURN_IF_ERROR(session->PrimeFromSweep(p.point_index,
                                                   *p.metrics));
  }
  return session;
}

}  // namespace jigsaw
