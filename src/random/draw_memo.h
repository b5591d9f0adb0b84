#pragma once

/// \file draw_memo.h
/// A run's memo of fingerprint draws. Section 3.1 makes every black box a
/// pure function of its inputs and sigma_k, and a fingerprint is the first
/// m of those draws, so under one seed vector the m draws a model call
/// makes for samples [0, m) are fixed by (model, call site, draw key). The
/// draw key is the words that alone decide the model's draws
/// (BlackBox::AppendDrawKey): a prepared model's point, else its params.
///
/// A SimulationRunner owns one memo and its SeedVector carries it to the
/// batch kernels. A lane-uniform model call over the fingerprint range
/// copies a stored entry, or draws and stages one; the runner commits the
/// staged entries after its fingerprint phase.
///
/// Threads: Lookup takes no lock, Stage takes one, and Commit runs on the
/// owner's thread while no Lookup or Stage runs — the rule the runner's
/// BasisStore follows, so the memo changes only between pool phases.
///
/// Memory: entries are (kHeaderWords + key words + m) words each, stored
/// back to back in flat chunks that are never reallocated, behind an
/// open-addressing index of entry pointers kept at most three quarters
/// full. Once the entries fill the byte budget nothing more is staged, so
/// a commit stops inserting and later misses draw as if there were no
/// memo.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/annotations.h"
#include "util/mutex.h"

namespace jigsaw {

class DrawMemo {
 public:
  /// The entries' byte budget.
  static constexpr std::size_t kBudgetBytes = std::size_t{1} << 24;

  /// A memo of fingerprints of `m` draws.
  explicit DrawMemo(std::size_t m) : m_(m) {}

  DrawMemo(const DrawMemo&) = delete;
  DrawMemo& operator=(const DrawMemo&) = delete;

  std::size_t fingerprint_size() const { return m_; }

  /// Copies the m draws stored for (model, site, key) into `out` (m
  /// doubles) and returns true; returns false when none are stored.
  bool Lookup(const void* model, std::uint64_t site,
              std::span<const std::uint64_t> key,
              std::span<double> out) const;

  /// Queues `values`, the m draws of (model, site, key), for the next
  /// Commit, unless the stored and staged entries would then pass the
  /// budget. The memo holds `model` until it dies, so no other model can
  /// take its address while an entry names it.
  void Stage(std::shared_ptr<const void> model, std::uint64_t site,
             std::span<const std::uint64_t> key,
             std::span<const double> values) JIGSAW_EXCLUDES(stage_mu_);

  /// Stores every staged entry that is not stored yet, then empties the
  /// stage.
  void Commit() JIGSAW_EXCLUDES(stage_mu_);

  /// Stored entries, and the bytes they occupy (the budget's measure).
  std::size_t size() const { return size_; }
  std::size_t bytes() const { return bytes_; }

 private:
  /// An entry's words: model, site, key size, then the key, then the m
  /// draws' bits.
  static constexpr std::size_t kHeaderWords = 3;
  static constexpr std::size_t kChunkWords = 8192;

  static std::uint64_t Hash(std::uint64_t model, std::uint64_t site,
                            std::span<const std::uint64_t> key);
  static std::size_t Budget();

  /// The stored entry with this header and key, or null.
  const std::uint64_t* Find(std::uint64_t hash, std::uint64_t model,
                            std::uint64_t site,
                            std::span<const std::uint64_t> key) const;

  /// Copies an entry of `words` words into the arena and indexes it.
  void Insert(const std::uint64_t* staged, std::size_t words);
  void Place(const std::uint64_t* entry);

  std::size_t m_;
  std::vector<std::unique_ptr<std::uint64_t[]>> chunks_;
  std::uint64_t* next_ = nullptr;  ///< first free word of the last chunk
  std::uint64_t* end_ = nullptr;   ///< end of the last chunk
  std::vector<const std::uint64_t*> slots_;  ///< null or an entry
  std::size_t size_ = 0;
  std::size_t bytes_ = 0;

  Mutex stage_mu_;
  std::vector<std::uint64_t> staged_ JIGSAW_GUARDED_BY(stage_mu_);
  std::vector<std::shared_ptr<const void>> pins_ JIGSAW_GUARDED_BY(stage_mu_);
};

namespace internal {
/// Test hook: when nonzero, replaces DrawMemo::kBudgetBytes. Not
/// synchronized — set it while no memo stages or commits, and restore it
/// after.
extern std::size_t g_draw_memo_budget_override;
}  // namespace internal

}  // namespace jigsaw
