#pragma once

/// \file black_box.h
/// The stochastic black-box function abstraction of Section 2.2. A black
/// box takes a vector of (discrete, finite-domain) parameters plus a
/// RandomStream and returns one sample of its output distribution. Jigsaw
/// never inspects a black box's internals — only its sampled outputs —
/// which is what makes the fingerprinting technique necessary.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "random/random_stream.h"
#include "random/seed_vector.h"
#include "util/status.h"

namespace jigsaw {

class BlackBox {
 public:
  virtual ~BlackBox() = default;

  /// Registry name used by the SQL front end (case-insensitive lookup).
  virtual const std::string& name() const = 0;

  /// Parameter names, in positional order.
  virtual const std::vector<std::string>& param_names() const = 0;

  std::size_t arity() const { return param_names().size(); }

  /// Draws one sample of the output distribution for `params`. All
  /// randomness must come from `rng` (the seed-substitution requirement of
  /// Section 3.1).
  virtual double Eval(std::span<const double> params,
                      RandomStream& rng) const = 0;

  /// Draws `out.size()` samples, one per entry of `seeds`, into `out`.
  /// Sample i must equal InvokeSeeded(*this, params, seeds[i], call_site)
  /// bit-for-bit — batching may hoist parameter-dependent work out of the
  /// per-sample loop but never changes any draw. The default loops over
  /// Eval, so scalar-only models work unchanged; the cloud models derive
  /// both from one Prepare/Draw pair (see cloud_models.cc).
  virtual void EvalBatch(std::span<const double> params, SeedSpan seeds,
                         std::uint64_t call_site,
                         std::span<double> out) const;

  /// Appends the words that alone decide this model's draws at `params`:
  /// two valuations that append the same words get the same EvalBatch
  /// bits from every seed span and call site. A SimulationRunner's
  /// DrawMemo keys fingerprint draws by them. The default appends the
  /// bits of `params`, which Section 3.1's contract makes exact for every
  /// black box; the cloud models append their prepared point when it is
  /// made only of doubles (see cloud_models.cc).
  virtual void AppendDrawKey(std::span<const double> params,
                             std::vector<std::uint64_t>* key) const;
};

using BlackBoxPtr = std::shared_ptr<const BlackBox>;

/// Evaluates `f` once under a specific sample seed, as F(P, sigma).
/// `call_site` distinguishes multiple uses of black boxes within one query
/// so their streams stay independent.
inline double InvokeSeeded(const BlackBox& f, std::span<const double> params,
                           std::uint64_t sigma, std::uint64_t call_site = 0) {
  RandomStream rng = StreamForSigma(sigma, call_site);
  return f.Eval(params, rng);
}

/// Adapts a lambda / std::function as a BlackBox (used heavily in tests).
class CallableBlackBox : public BlackBox {
 public:
  using Fn = std::function<double(std::span<const double>, RandomStream&)>;

  CallableBlackBox(std::string name, std::vector<std::string> param_names,
                   Fn fn)
      : name_(std::move(name)),
        param_names_(std::move(param_names)),
        fn_(std::move(fn)) {}

  const std::string& name() const override { return name_; }
  const std::vector<std::string>& param_names() const override {
    return param_names_;
  }
  double Eval(std::span<const double> params,
              RandomStream& rng) const override {
    return fn_(params, rng);
  }

 private:
  std::string name_;
  std::vector<std::string> param_names_;
  Fn fn_;
};

/// Name-keyed registry the SQL binder resolves model calls against.
class ModelRegistry {
 public:
  /// Registers a model; fails on duplicate (case-insensitive) names.
  Status Register(BlackBoxPtr model);

  /// Replaces or inserts.
  void RegisterOrReplace(BlackBoxPtr model);

  /// Case-insensitive lookup.
  Result<BlackBoxPtr> Lookup(const std::string& name) const;

  bool Contains(const std::string& name) const;

  std::vector<std::string> ModelNames() const;

 private:
  // Few models; linear scan keeps iteration order deterministic.
  std::vector<BlackBoxPtr> models_;
};

}  // namespace jigsaw
