#pragma once

/// \file cloud_models.h
/// The black-box workload models of the paper's evaluation (Figure 6).
/// "Specific numbers ... have been replaced by ad-hoc values, but the
/// structure of these models remains intact" — we implement exactly those
/// structures:
///
///  - Demand(current_week, feature_release): Algorithm 1. Linearly growing
///    gaussian demand whose growth rate changes at the feature release.
///  - Capacity(current_week, purchase1, purchase2): a series of purchases,
///    each adding capacity after an exponentially distributed delay,
///    minus an accumulated failure process.
///  - Overload(current_week, purchase1, purchase2): 1 if Demand > Capacity
///    (feature release ignored), else 0.
///  - UserSelection(current_week): per-user requirement simulation over a
///    synthetic user population (the data-heavy workload).
///  - SynthBasis(point): Demand-like model engineered to produce an exact,
///    configurable number of basis distributions (indexing experiments).
///
/// The Markovian models (MarkovStep, MarkovBranch) live in src/markov.

#include <cstdint>
#include <memory>

#include "models/black_box.h"

namespace jigsaw {

/// Tunable constants for the cloud scenario models. Defaults follow the
/// paper's narrative: a cluster measured in CPU cores, weekly timesteps,
/// purchases that settle over a few weeks.
struct CloudModelConfig {
  // Demand (Algorithm 1 of the paper, verbatim structure).
  double demand_mean_rate = 1.0;    ///< mu = rate * current_week
  double demand_var_rate = 0.1;     ///< sigma^2 = var_rate * current_week
  double feature_mean_rate = 0.2;   ///< extra growth after feature release
  double feature_var_rate = 0.2;

  // Capacity. Defaults are calibrated so the Figure 1 scenario has real
  // tension over a 52-week horizon: demand (mean ~ week, plus feature
  // growth) starts below the base capacity of 40 cores, crosses it around
  // week 35-40, and needs both purchases settled to stay safe - so late
  // purchase dates genuinely risk overload.
  double base_capacity = 40.0;      ///< cores online at week 0
  double purchase_volume = 18.0;    ///< cores added per purchase order
  double settle_weeks = 2.0;        ///< mean of the exponential online delay
  double failure_rate = 0.02;       ///< per-week per-100-cores failure rate
  double failure_cores = 1.0;       ///< cores lost per failure event

  // UserSelection.
  int num_users = 2000;             ///< synthetic user population size
  double user_arrival_rate = 0.05;  ///< per-week probability a user joined
  double user_base_demand = 0.05;   ///< cores per active user (mean)
  double user_demand_spread = 0.3;  ///< lognormal sigma of per-user demand
  /// Sub-draws per user per sample: each user's weekly requirement is the
  /// peak of `user_sim_depth` intra-week usage draws. This is what makes
  /// UserSelection generation-bound — the workload where set-oriented
  /// engines win Figure 7 by materializing each sampled population once.
  int user_sim_depth = 16;

  // SynthBasis.
  int synth_num_basis = 10;         ///< exact number of basis classes
};

/// Demand(current_week, feature_release) — Algorithm 1.
BlackBoxPtr MakeDemandModel(const CloudModelConfig& cfg = {});

/// Capacity(current_week, purchase1, purchase2).
BlackBoxPtr MakeCapacityModel(const CloudModelConfig& cfg = {});

/// Overload(current_week, purchase1, purchase2) — composed of Demand and
/// Capacity; returns a boolean (0/1) sample.
BlackBoxPtr MakeOverloadModel(const CloudModelConfig& cfg = {});

/// UserSelection(current_week) — sums simulated per-user requirements over
/// the whole synthetic population; cost is O(num_users) per sample, which
/// is what makes it the data-bound workload of Figure 7. Each active
/// user's requirement is its base demand times the peak of
/// `user_sim_depth` LogNormal(0, user_demand_spread) draws. `Eval` and
/// `EvalBatch` take the peaks through RandomStream::MaxLogNormal, as the
/// `users` VG table does, so both engines of Figure 7 pay the same
/// per-draw cost: libm only on the draws that can win (about 6% at the
/// default depth 16), the plain draw loop below depth 3.
BlackBoxPtr MakeUserSelectionModel(const CloudModelConfig& cfg = {});

/// SynthBasis(point) — partitions its parameter domain into exactly
/// `synth_num_basis` equivalence classes. Points within a class are
/// linearly mappable (alpha = (p+1)/(q+1)); points across classes draw
/// from differently-shaped mixtures and are not.
BlackBoxPtr MakeSynthBasisModel(const CloudModelConfig& cfg = {});

/// Extra models used by the examples (not part of Figure 6):
/// seasonal demand with weekly periodicity and a long-term trend.
BlackBoxPtr MakeSeasonalDemandModel(const CloudModelConfig& cfg = {});

/// Outage model: number of concurrently failed racks in a given week.
BlackBoxPtr MakeOutageModel(const CloudModelConfig& cfg = {});

/// Registers every model above into `registry` (used by examples, the SQL
/// front end and the benchmark harness).
Status RegisterCloudModels(ModelRegistry* registry,
                           const CloudModelConfig& cfg = {});

/// Deterministic per-user population attributes shared by the
/// UserSelection black box and the `users` VG table (both engines of
/// Figure 7 must simulate the same population). Attributes are data, not
/// randomness: they derive from the user id alone.
void DeriveUserProfile(int user, double arrival_rate, double base_demand,
                       double* signup_week, double* base);

}  // namespace jigsaw
