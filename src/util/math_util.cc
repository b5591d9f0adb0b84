#include "util/math_util.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <memory>
#include <numeric>
#include <type_traits>

#include "util/logging.h"

namespace jigsaw {

namespace {

/// The order statistics a q-quantile interpolates between, as ranks of
/// one of `copies` copies of `count` values, and the weight of the upper
/// one: QuantileSorted's positions in the copies' order, where rank r is
/// rank r / copies of one copy.
struct QuantileRanks {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

QuantileRanks RanksOf(std::size_t count, std::size_t copies, double q) {
  const std::size_t size = count * copies;
  const double pos = q * static_cast<double>(size - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, size - 1);
  return {lo / copies, hi / copies, pos - static_cast<double>(lo)};
}

/// QuantileSorted's interpolation, term for term, so the bits match.
double Interpolate(double a, double b, double frac) {
  return a * (1.0 - frac) + b * frac;
}

}  // namespace

double QuantileSorted(const std::vector<double>& sorted, double q) {
  JIGSAW_CHECK_MSG(!sorted.empty(), "quantile of empty vector");
  JIGSAW_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q out of range: " << q);
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, q);
}

double QuantileSelect(std::vector<double>& values, double q,
                      std::size_t copies) {
  JIGSAW_CHECK_MSG(!values.empty(), "quantile of empty vector");
  JIGSAW_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q out of range: " << q);
  JIGSAW_CHECK_MSG(copies >= 1, "quantile of zero copies");
  if (values.size() * copies == 1) return values[0];
  const QuantileRanks ranks = RanksOf(values.size(), copies, q);
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(ranks.lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double a = *lo_it;
  // After the selection every element right of `lo_it` is >= it, so the
  // order statistic one rank up is the minimum of that tail. The
  // interpolation covers the degenerate hi == lo endpoint too.
  const double b = ranks.hi == ranks.lo
                       ? a
                       : *std::min_element(lo_it + 1, values.end());
  return Interpolate(a, b, ranks.frac);
}

namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// An order-preserving key: x < y implies OrderKey(x) < OrderKey(y) for
/// doubles that are not NaN, with -0.0 keyed just below +0.0. A negative
/// double flips every bit, any other sets the sign bit, so NaNs key
/// below OrderKey(-inf) or above OrderKey(+inf).
std::uint64_t OrderKey(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const auto negative =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(bits) >> 63);
  return bits ^ (negative | kSignBit);
}

double FromOrderKey(std::uint64_t key) {
  return std::bit_cast<double>((key & kSignBit) != 0 ? key ^ kSignBit : ~key);
}

/// The radix select behind SelectQuantiles: false, writing nothing, when
/// the values hold zeros of both signs.
///
/// Keys are taken relative to the least finite one, `base`, and bucketed
/// by their high bits: bucket (key - base) >> shift, with the shift that
/// fits [lo, hi] into at most 2^14 buckets (128 KiB of counts, which
/// stay in cache; 2^16 was no faster at 2^20 values) and at most one
/// bucket per 8 finite values, so the counts never weigh more than an
/// eighth of a copy of the values. A bucket spans an equal run of keys,
/// so an equal share of each binade: heavy-tailed values spread across
/// the buckets where equal-width ones would crowd into a few. Pass 1
/// counts each bucket's finite values, which locates the bucket of every
/// rank a quantile reads. Pass 2 gathers only those buckets' values, and
/// each rank is finished by nth_element within them.
bool RadixSelect(const FiniteParts& values, std::span<const double> qs,
                 std::span<double> out) {
  // At least one bucket bit, so the shift stays below 64.
  const int bucket_bits =
      std::clamp(static_cast<int>(std::bit_width(values.count)) - 4, 1, 14);
  // A zero bound widens to the zero of the outer sign, so both zeros key
  // inside the range whichever one the bound holds.
  const std::uint64_t base = OrderKey(values.lo == 0.0 ? -0.0 : values.lo);
  const std::uint64_t span =
      OrderKey(values.hi == 0.0 ? 0.0 : values.hi) - base;
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(span)) - bucket_bits);

  // Pass 1. Every non-finite key, and no finite one, falls outside
  // [0, span]: the keys below `base` wrap past it. Only a range holding
  // zero can hold both zeros, and noting them doubles the pass's cost.
  std::vector<std::size_t> counts((span >> shift) + 1, 0);
  unsigned zero_signs = 0;  // bit 0: +0.0 seen, bit 1: -0.0 seen
  auto count_keys = [&](auto note_zeros) {
    for (const std::span<const double> part : values.parts) {
      for (const double x : part) {
        const std::uint64_t key = OrderKey(x) - base;
        if (key <= span) ++counts[key >> shift];
        if constexpr (decltype(note_zeros)::value) {
          zero_signs |= static_cast<unsigned>(x == 0.0)
                        << (std::bit_cast<std::uint64_t>(x) >> 63);
        }
      }
    }
  };
  if (values.lo <= 0.0 && 0.0 <= values.hi) {
    count_keys(std::true_type{});
  } else {
    count_keys(std::false_type{});
  }
  JIGSAW_CHECK_MSG(
      std::accumulate(counts.begin(), counts.end(), std::size_t{0}) ==
          values.count,
      "the finite values do not match their stated count and range");
  if (zero_signs == 3) return false;

  // The ranks every quantile reads, ascending, each with its bucket and
  // the count of values in earlier buckets.
  struct Target {
    std::size_t rank;
    std::size_t bucket = 0;
    std::size_t before = 0;
  };
  std::vector<Target> targets;
  for (const double q : qs) {
    const QuantileRanks ranks = RanksOf(values.count, values.copies, q);
    targets.push_back({ranks.lo});
    targets.push_back({ranks.hi});
  }
  std::sort(targets.begin(), targets.end(),
            [](const Target& a, const Target& b) { return a.rank < b.rank; });
  std::size_t before = 0, bucket = 0;
  for (Target& target : targets) {
    while (before + counts[bucket] <= target.rank) before += counts[bucket++];
    target.bucket = bucket;
    target.before = before;
  }
  auto target_of = [&targets](std::size_t rank) -> const Target& {
    return *std::find_if(targets.begin(), targets.end(),
                         [rank](const Target& t) { return t.rank == rank; });
  };

  if (shift == 0) {
    // Each bucket is one key, so one double: no gather is needed.
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const QuantileRanks ranks = RanksOf(values.count, values.copies, qs[i]);
      out[i] = Interpolate(FromOrderKey(base + target_of(ranks.lo).bucket),
                           FromOrderKey(base + target_of(ranks.hi).bucket),
                           ranks.frac);
    }
    return true;
  }

  // One gather per run of targets in one bucket or at consecutive ranks
  // (a quantile's two ranks are consecutive or equal, and the buckets
  // between consecutive ranks are empty). A gather holds its buckets'
  // values, plus one slot that pass 2 overwrites freely. Gathers cover
  // disjoint buckets, so together they never hold more than the one copy
  // of the finite values that the fallback makes, and a slot per gather:
  // few distinct values are the worst case, where one bucket can hold
  // most of them.
  struct Gather {
    std::uint64_t key_lo = 0;    // relative to base, like the bucket keys
    std::uint64_t key_span = 0;  // it takes keys key_lo + [0, key_span]
    std::size_t before = 0;      // values in earlier buckets
    std::size_t size = 0;        // values in its buckets
    std::unique_ptr<double[]> values;
  };
  const std::uint64_t bucket_mask = (std::uint64_t{1} << shift) - 1;
  std::vector<Gather> gathers;
  for (std::size_t t = 0; t < targets.size();) {
    const Target& first = targets[t];
    std::size_t last = t;
    while (last + 1 < targets.size() &&
           (targets[last + 1].bucket == targets[last].bucket ||
            targets[last + 1].rank == targets[last].rank + 1)) {
      ++last;
    }
    Gather& gather = gathers.emplace_back();
    gather.key_lo = std::uint64_t{first.bucket} << shift;
    gather.key_span =
        std::min(span, (std::uint64_t{targets[last].bucket} << shift) |
                           bucket_mask) -
        gather.key_lo;
    gather.before = first.before;
    gather.size = std::accumulate(
        counts.begin() + static_cast<std::ptrdiff_t>(first.bucket),
        counts.begin() + static_cast<std::ptrdiff_t>(targets[last].bucket) + 1,
        std::size_t{0});
    gather.values = std::make_unique_for_overwrite<double[]>(gather.size + 1);
    t = last + 1;
  }

  // Pass 2, branch-free: every value is written to each gather's next
  // slot, which advances only past a value of the gather's buckets.
  std::vector<std::size_t> gathered(gathers.size(), 0);
  for (const std::span<const double> part : values.parts) {
    for (const double x : part) {
      const std::uint64_t key = OrderKey(x) - base;
      for (std::size_t g = 0; g < gathers.size(); ++g) {
        gathers[g].values[gathered[g]] = x;
        gathered[g] += static_cast<std::size_t>(key - gathers[g].key_lo <=
                                                gathers[g].key_span);
      }
    }
  }

  for (std::size_t i = 0; i < qs.size(); ++i) {
    const QuantileRanks ranks = RanksOf(values.count, values.copies, qs[i]);
    const Gather& gather = *std::find_if(
        gathers.begin(), gathers.end(), [&ranks](const Gather& g) {
          return g.before <= ranks.lo && ranks.lo < g.before + g.size;
        });
    double* const begin = gather.values.get();
    double* const end = begin + gather.size;
    if (std::all_of(begin, end, [begin](double x) { return x == *begin; })) {
      // One value repeated, as few distinct values leave a gather: it is
      // every rank (zeros of both signs never get here), so no selection
      // is needed.
      out[i] = Interpolate(*begin, *begin, ranks.frac);
      continue;
    }
    // As in QuantileSelect: nth_element places rank lo, and rank hi, one
    // up when it differs, is the minimum of the tail.
    double* const lo_it = begin + (ranks.lo - gather.before);
    std::nth_element(begin, lo_it, end);
    const double a = *lo_it;
    const double b =
        ranks.hi == ranks.lo ? a : *std::min_element(lo_it + 1, end);
    out[i] = Interpolate(a, b, ranks.frac);
  }
  return true;
}

}  // namespace

void SelectQuantiles(const FiniteParts& values, std::span<const double> qs,
                     std::span<double> out, std::vector<double>* in_place) {
  JIGSAW_CHECK_MSG(values.count >= 1, "quantile of no finite value");
  JIGSAW_CHECK_MSG(values.copies >= 1, "quantile of zero copies");
  JIGSAW_CHECK_MSG(out.size() == qs.size(), "one output per quantile");
  if (values.count >= kRadixSelectMinValues && RadixSelect(values, qs, out)) {
    return;
  }
  std::size_t size = 0;
  for (const std::span<const double> part : values.parts) size += part.size();
  std::vector<double> copy;
  std::vector<double>* finite = in_place;
  if (in_place != nullptr) {
    JIGSAW_CHECK_MSG(values.parts.size() == 1 &&
                         values.parts[0].data() == in_place->data(),
                     "an in-place selection reads one part, the vector");
    if (size != values.count) {
      std::erase_if(*in_place, [](double x) { return !std::isfinite(x); });
    }
  } else {
    copy.reserve(values.count);
    for (const std::span<const double> part : values.parts) {
      if (size == values.count) {
        copy.insert(copy.end(), part.begin(), part.end());
      } else {
        std::copy_if(part.begin(), part.end(), std::back_inserter(copy),
                     [](double x) { return std::isfinite(x); });
      }
    }
    finite = &copy;
  }
  for (std::size_t i = 0; i < qs.size(); ++i) {
    out[i] = QuantileSelect(*finite, qs[i], values.copies);
  }
}

}  // namespace jigsaw
