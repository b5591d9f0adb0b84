#pragma once

/// \file parameter_space.h
/// Parameter declarations and enumeration (Figure 1 / Figure 3). Each
/// query parameter has a discrete finite domain — a RANGE with a step, an
/// explicit SET, or a CHAIN (Figure 5's Markovian feedback parameter,
/// which is not enumerated but driven by the chain executor). The
/// Parameter Enumerator walks the cartesian product of the non-chain
/// domains; "this brute force approach is necessary to guarantee that the
/// optimization converges to the global maximum for an arbitrary
/// black-box" (Section 2.3).
///
/// Every decision about a domain lives here: its rules (Validate), its
/// values (ValueAt, cardinality), the enumeration (ValuationAt) and the
/// enumeration's inverse (PointIndexOf). DECLARE and MONTECARLO OVER
/// both check their domains through Validate.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "util/status.h"

namespace jigsaw {

/// RANGE lo TO hi STEP BY step (inclusive of hi when it lies on the grid).
struct RangeDomain {
  double lo = 0.0;
  double hi = 0.0;
  double step = 1.0;
};

/// SET (v1, v2, ...).
struct SetDomain {
  std::vector<double> values;
};

/// CHAIN col FROM @driver : <expr> INITIAL VALUE v — the parameter takes
/// the previous step's value of result column `column` as the driver
/// parameter advances (Section 4, Figure 5).
struct ChainDomain {
  std::string column;        ///< result column fed back into the parameter
  std::string driver_param;  ///< the step parameter (e.g. @current_week)
  double initial = 0.0;
};

struct ParameterDef {
  std::string name;  // without the '@'
  std::variant<RangeDomain, SetDomain, ChainDomain> domain;

  bool is_chain() const {
    return std::holds_alternative<ChainDomain>(domain);
  }

  /// Materializes the discrete domain (empty for CHAIN parameters).
  std::vector<double> Values() const;

  /// The size of Values(), computed without building it.
  std::size_t cardinality() const;

  /// Values()[i] without building the domain: lo + i*step for a RANGE,
  /// the i'th listed value for a SET. `i` must be below cardinality().
  double ValueAt(std::size_t i) const;

  /// The rules every declared or swept domain obeys: a RANGE has a
  /// positive STEP, lo <= hi and finite bounds; a SET is non-empty and
  /// every value is finite; and neither holds more than `max_values`
  /// values. A CHAIN domain passes. InvalidArgument names the parameter.
  Status Validate(std::size_t max_values) const;
};

/// An ordered collection of parameters plus cartesian-product enumeration.
class ParameterSpace {
 public:
  /// Appends `def` after checking its name is new, its domain passes
  /// Validate with a cap of 100,000,000 values and the grid still fits a
  /// size_t.
  Status Add(ParameterDef def);

  std::size_t num_params() const { return defs_.size(); }
  const ParameterDef& def(std::size_t i) const { return defs_[i]; }
  const std::vector<ParameterDef>& defs() const { return defs_; }

  /// Index of a parameter by name, or nullopt.
  std::optional<std::size_t> IndexOf(const std::string& name) const;

  /// Total number of points in the cartesian product of non-chain
  /// domains (chain parameters contribute a factor of 1).
  std::size_t NumPoints() const;

  /// The idx'th valuation in row-major order (last parameter varies
  /// fastest). Chain parameters receive their INITIAL VALUE.
  std::vector<double> ValuationAt(std::size_t idx) const;

  /// The inverse of ValuationAt: the point index whose valuation equals
  /// `valuation` in every non-chain parameter (chain entries are not
  /// compared). Values compare exactly, and a value listed twice maps to
  /// its first index. No domain is built: a RANGE is binary-searched
  /// (ValueAt is non-decreasing in i), a SET scanned. InvalidArgument
  /// names the first parameter whose value is not in its domain.
  Result<std::size_t> PointIndexOf(std::span<const double> valuation) const;

 private:
  std::vector<ParameterDef> defs_;
};

}  // namespace jigsaw
