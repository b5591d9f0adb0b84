#include "random/draw_memo.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/hash.h"
#include "util/logging.h"

namespace jigsaw {

namespace internal {
std::size_t g_draw_memo_budget_override = 0;
}  // namespace internal

std::uint64_t DrawMemo::Hash(std::uint64_t model, std::uint64_t site,
                             std::span<const std::uint64_t> key) {
  std::uint64_t h = HashCombine(model, site);
  for (const std::uint64_t word : key) h = HashCombine(h, word);
  return h;
}

std::size_t DrawMemo::Budget() {
  return internal::g_draw_memo_budget_override != 0
             ? internal::g_draw_memo_budget_override
             : kBudgetBytes;
}

const std::uint64_t* DrawMemo::Find(
    std::uint64_t hash, std::uint64_t model, std::uint64_t site,
    std::span<const std::uint64_t> key) const {
  if (slots_.empty()) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint64_t* entry = slots_[i];
    if (entry == nullptr ||
        (entry[0] == model && entry[1] == site && entry[2] == key.size() &&
         std::equal(key.begin(), key.end(), entry + kHeaderWords))) {
      return entry;
    }
  }
}

bool DrawMemo::Lookup(const void* model, std::uint64_t site,
                      std::span<const std::uint64_t> key,
                      std::span<double> out) const {
  JIGSAW_DCHECK(out.size() == m_);
  const auto model_word = reinterpret_cast<std::uintptr_t>(model);
  const std::uint64_t* entry =
      Find(Hash(model_word, site, key), model_word, site, key);
  if (entry == nullptr) return false;
  std::memcpy(out.data(), entry + kHeaderWords + key.size(),
              m_ * sizeof(double));
  return true;
}

void DrawMemo::Stage(std::shared_ptr<const void> model, std::uint64_t site,
                     std::span<const std::uint64_t> key,
                     std::span<const double> values) {
  JIGSAW_DCHECK(values.size() == m_);
  const std::size_t words = kHeaderWords + key.size() + m_;
  MutexLock lock(&stage_mu_);
  // Stored and staged entries together stay within the budget, so every
  // commit does.
  if (bytes_ + (staged_.size() + words) * sizeof(std::uint64_t) > Budget()) {
    return;
  }
  const std::size_t at = staged_.size();
  staged_.resize(at + words);
  std::uint64_t* entry = staged_.data() + at;
  entry[0] = reinterpret_cast<std::uintptr_t>(model.get());
  entry[1] = site;
  entry[2] = key.size();
  std::copy(key.begin(), key.end(), entry + kHeaderWords);
  std::memcpy(entry + kHeaderWords + key.size(), values.data(),
              m_ * sizeof(double));
  const bool pinned =
      std::any_of(pins_.begin(), pins_.end(),
                  [&](const auto& pin) { return pin.get() == model.get(); });
  if (!pinned) pins_.push_back(std::move(model));
}

void DrawMemo::Insert(const std::uint64_t* staged, std::size_t words) {
  if (static_cast<std::size_t>(end_ - next_) < words) {
    const std::size_t chunk = std::max(kChunkWords, words);
    chunks_.push_back(std::make_unique_for_overwrite<std::uint64_t[]>(chunk));
    next_ = chunks_.back().get();
    end_ = next_ + chunk;
  }
  std::uint64_t* entry = next_;
  std::copy(staged, staged + words, entry);
  next_ += words;
  bytes_ += words * sizeof(std::uint64_t);
  ++size_;

  // Keep the index at most three quarters full: double it, then re-place
  // every entry.
  if (4 * size_ > 3 * slots_.size()) {
    const std::size_t grown = std::max<std::size_t>(64, 2 * slots_.size());
    const std::vector<const std::uint64_t*> old =
        std::exchange(slots_, std::vector<const std::uint64_t*>(grown));
    for (const std::uint64_t* e : old) {
      if (e != nullptr) Place(e);
    }
  }
  Place(entry);
}

void DrawMemo::Place(const std::uint64_t* entry) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i =
      Hash(entry[0], entry[1], {entry + kHeaderWords, entry[2]}) & mask;
  while (slots_[i] != nullptr) i = (i + 1) & mask;
  slots_[i] = entry;
}

void DrawMemo::Commit() {
  MutexLock lock(&stage_mu_);
  for (std::size_t at = 0; at < staged_.size();) {
    const std::uint64_t* staged = staged_.data() + at;
    const std::span<const std::uint64_t> key(staged + kHeaderWords,
                                             staged[2]);
    const std::size_t words = kHeaderWords + key.size() + m_;
    at += words;
    // A key staged twice holds the same draws both times.
    if (Find(Hash(staged[0], staged[1], key), staged[0], staged[1], key) ==
        nullptr) {
      Insert(staged, words);
    }
  }
  staged_.clear();
}

}  // namespace jigsaw
