#pragma once

/// \file markov_models.h
/// The Markovian workloads of Figure 6 plus helpers used in tests.
///
///  - MarkovStep: the Figure 5 scenario. State = the release week of a
///    feature. Each week, demand is forecast given the current planned
///    release; if demand crosses a threshold before the release has been
///    moved up, management pulls the release in ("sufficiently high
///    demand might convince management to allocate additional development
///    resources"). The discontinuity is infrequent and closely correlated
///    across instances — the ideal case for Markov jumps.
///
///  - MarkovBranch: the Figure 12 synthetic. State = a counter that
///    increments with probability `branching` per step; its estimator
///    "simply assumes that the state stays the same", so the expected
///    distance between estimator invalidations is 1/branching steps.

#include <memory>
#include <string>

#include "markov/markov_process.h"

namespace jigsaw {

struct MarkovStepConfig {
  double initial_release_week = 52.0;
  double demand_mean_rate = 1.0;     ///< Algorithm 1 constants
  double demand_var_rate = 0.1;
  double feature_mean_rate = 0.2;
  double feature_var_rate = 0.2;
  double demand_threshold = 26.0;    ///< demand that triggers a pull-in
  double pull_in_lead_weeks = 4.0;   ///< new release = week + lead
};

class MarkovStepProcess : public MarkovProcess {
 public:
  explicit MarkovStepProcess(const MarkovStepConfig& cfg = {}) : cfg_(cfg) {}

  const std::string& name() const override {
    static const std::string kName = "MarkovStep";
    return kName;
  }

  double initial_state() const override { return cfg_.initial_release_week; }

  /// Transition: forecast this week's demand under the current planned
  /// release, then decide whether the release moves.
  double Step(double prev_release, std::int64_t step,
              RandomStream& rng) const override;

  /// Observable: the demand forecast for `step` given the final release.
  double Output(double release, std::int64_t step,
                RandomStream& rng) const override;

  /// Demand model shared by Step/Output (Algorithm 1 with the release
  /// week as the feature date).
  double Demand(double week, double release, RandomStream& rng) const;

 private:
  MarkovStepConfig cfg_;
};

struct MarkovBranchConfig {
  double branching = 0.001;  ///< per-step divergence probability
  double state_jump = 10.0;  ///< how far states diverge per branch event
};

class MarkovBranchProcess : public MarkovProcess {
 public:
  explicit MarkovBranchProcess(const MarkovBranchConfig& cfg = {})
      : cfg_(cfg) {}

  const std::string& name() const override {
    static const std::string kName = "MarkovBranch";
    return kName;
  }

  double initial_state() const override { return 0.0; }

  double Step(double prev_state, std::int64_t step,
              RandomStream& rng) const override;

  /// "The state stays the same" estimator: no randomness consumed, so
  /// estimator fingerprints never spuriously mismatch.
  double Estimate(double anchor_state, std::int64_t anchor_step,
                  std::int64_t step, RandomStream& rng) const override;

  /// A straight copy: the estimator draws nothing, so no streams are
  /// built at all (the default loop constructs one per instance just to
  /// ignore it).
  void EstimateBatch(std::span<const double> anchor_states,
                     std::int64_t anchor_step, std::int64_t step,
                     std::size_t k_begin, const SeedVector& seeds,
                     std::span<double> out) const override;

 private:
  MarkovBranchConfig cfg_;
};

/// Test helper: state advances deterministically by `drift` per step —
/// every step is estimator-mappable, so a single jump reaches any target.
class DriftProcess : public MarkovProcess {
 public:
  explicit DriftProcess(double drift) : drift_(drift) {}

  const std::string& name() const override {
    static const std::string kName = "Drift";
    return kName;
  }
  double initial_state() const override { return 0.0; }
  double Step(double prev_state, std::int64_t /*step*/,
              RandomStream& /*rng*/) const override {
    return prev_state + drift_;
  }
  /// Exact closed form; the mapping test then validates identity.
  double Estimate(double anchor_state, std::int64_t anchor_step,
                  std::int64_t step, RandomStream& /*rng*/) const override {
    return anchor_state +
           drift_ * static_cast<double>(step - anchor_step);
  }

 private:
  double drift_;
};

}  // namespace jigsaw
