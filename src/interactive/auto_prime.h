#pragma once

/// \file auto_prime.h
/// Bridges batch results into online exploration: builds an
/// InteractiveSession over a script outcome's scenario, pre-seeded with
/// the retained possible-worlds samples of its MONTECARLO result. The
/// user runs one `MONTECARLO OVER @p` sweep (keep_samples=true), then
/// starts exploring with every swept point already bound and estimated —
/// no cold-start ticks. Section 5's progressive refinement takes over
/// from there.

#include <memory>
#include <string>

#include "interactive/interactive_session.h"
#include "sql/script_runner.h"
#include "util/status.h"

namespace jigsaw {

/// Creates a session over `outcome`'s scenario exploring `column`, primed
/// from its MONTECARLO result via InteractiveSession::PrimeFromSweep —
/// one prime per sweep point (or one for the single valuation when the
/// statement had no OVER clause).
///
/// Soundness gate: world id k of the sweep is sample id k of the session
/// only when both draw from the same seed namespace, so
/// `config.run.master_seed` must equal the master seed the outcome ran
/// under (recorded in MonteCarloOutcome::master_seed); the session-server
/// path satisfies this by construction because a session's runs and its
/// interactive explorations share the session seed. Fails with
/// kInvalidArgument on a namespace mismatch, when the script produced no
/// MONTECARLO result, when `column` is absent from the scenario or the
/// result, when a sweep point's valuation is not on the declared
/// parameter grid (explicit OVER IN lists may sweep off-grid values,
/// which have no enumeration index to prime; ParameterSpace::PointIndexOf
/// names the parameter), or — from PrimeFromSweep —
/// when the sweep retained no samples or more than config.max_samples.
/// All points are validated before any priming, so a failed call never
/// returns a half-primed session.
Result<std::unique_ptr<InteractiveSession>> MakeSessionFromOutcome(
    const sql::ScriptOutcome& outcome, const std::string& column,
    const InteractiveConfig& config);

}  // namespace jigsaw
