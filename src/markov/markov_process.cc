#include "markov/markov_process.h"

#include "util/hash.h"
#include "util/logging.h"

namespace jigsaw {

namespace {
constexpr std::uint64_t kStepTag = 0x6d61726b6f762d73ULL;    // "markov-s"
constexpr std::uint64_t kOutputTag = 0x6d61726b6f762d6fULL;  // "markov-o"
}  // namespace

std::uint64_t MarkovStepSalt(std::int64_t step) {
  return HashCombine(kStepTag, static_cast<std::uint64_t>(step));
}

std::uint64_t MarkovOutputSalt(std::int64_t step) {
  return HashCombine(kOutputTag, static_cast<std::uint64_t>(step));
}

double MarkovProcess::Step(double /*prev_state*/, std::int64_t /*step*/,
                           RandomStream& /*rng*/) const {
  JIGSAW_CHECK_MSG(false, "MarkovProcess '"
                              << name()
                              << "' overrides neither Step nor StepBatch");
  return 0.0;
}

void MarkovProcess::StepBatch(std::span<const double> prev_states,
                              std::int64_t step, std::size_t k_begin,
                              const SeedVector& seeds,
                              std::span<double> out) const {
  JIGSAW_DCHECK(prev_states.size() == out.size());
  const std::uint64_t salt = MarkovStepSalt(step);
  for (std::size_t i = 0; i < out.size(); ++i) {
    RandomStream rng = seeds.StreamFor(k_begin + i, salt);
    out[i] = Step(prev_states[i], step, rng);
  }
}

void MarkovProcess::EstimateBatch(std::span<const double> anchor_states,
                                  std::int64_t anchor_step, std::int64_t step,
                                  std::size_t k_begin, const SeedVector& seeds,
                                  std::span<double> out) const {
  JIGSAW_DCHECK(anchor_states.size() == out.size());
  const std::uint64_t salt = MarkovStepSalt(step);
  for (std::size_t i = 0; i < out.size(); ++i) {
    RandomStream rng = seeds.StreamFor(k_begin + i, salt);
    out[i] = Estimate(anchor_states[i], anchor_step, step, rng);
  }
}

void MarkovProcess::OutputBatch(std::span<const double> states,
                                std::int64_t step, std::size_t k_begin,
                                const SeedVector& seeds,
                                std::span<double> out) const {
  JIGSAW_DCHECK(states.size() == out.size());
  const std::uint64_t salt = MarkovOutputSalt(step);
  for (std::size_t i = 0; i < out.size(); ++i) {
    RandomStream rng = seeds.StreamFor(k_begin + i, salt);
    out[i] = Output(states[i], step, rng);
  }
}

}  // namespace jigsaw
