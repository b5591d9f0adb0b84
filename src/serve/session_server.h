#pragma once

/// \file session_server.h
/// The serving layer: many concurrent clients exploring the same
/// published scenario catalog, each bit-identical to a standalone run.
///
/// Jigsaw's batch pipeline is single-tenant — one ScriptRunner, one
/// script, one seed namespace. An interactive deployment (Section 2.2's
/// GUI sessions) is many-tenant: analysts connect, run MONTECARLO sweeps
/// and what-if ticks against the same scenario, and expect both isolation
/// (my draws are mine) and sharing (the expensive immutable artifacts —
/// bound plans, compiled batch programs, world realizations — are built
/// once, not per client).
///
/// The contract, in determinism terms:
///
///  * Publish() parses and binds a script ONCE, building an immutable
///    ScriptSnapshot: the bound plan (compiled where the binder could)
///    and a shared WorldCache. Snapshots hang off a copy-on-write
///    catalog: publishing swaps the catalog pointer, so a Run() that
///    already grabbed the old catalog keeps executing against unchanged
///    state.
///  * Connect() admits a client session. Each session owns a seed
///    namespace — SessionSeed(master, id) — so its draws are disjoint
///    from every sibling's by construction.
///  * Session::Run() executes a published snapshot. Every run is
///    bit-identical (values, draws, metrics, error text and ordering) to
///    a standalone serial ScriptRunner::Run of the same text under the
///    session's seed — no matter how many sibling sessions are running,
///    how the shared pool schedules their cells, or which sibling's error
///    aborted mid-flight. Shared state is either immutable (snapshots)
///    or memoization of pure functions (WorldCache), and every run's
///    basis store is its own, so concurrency cannot leak into results.
///
/// Threading model: SessionServer (Publish/Connect/catalog) is
/// thread-safe. A Session is owned by one client thread — calls on one
/// session are not synchronized against each other. Work fans out on ONE
/// shared ThreadPool: sessions submit world-chunk cells from their client
/// threads and never call each other's WaitIdle (ParallelFor tracks
/// completion per call), so a saturated pool degrades throughput, never
/// correctness.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/run_config.h"
#include "interactive/auto_prime.h"
#include "interactive/interactive_session.h"
#include "models/black_box.h"
#include "pdb/vg_table.h"
#include "sql/binder.h"
#include "sql/script_runner.h"
#include "util/annotations.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace jigsaw::serve {

/// Derives a session's seed namespace from the server's master seed.
/// Distinct session ids give statistically independent namespaces (one
/// SplitMix64 scramble), and the derivation is pure, so a standalone
/// twin of session k is just a runner seeded with SessionSeed(master, k).
std::uint64_t SessionSeed(std::uint64_t master_seed,
                          std::uint64_t session_id);

/// One published script: everything immutable a run needs, built once.
struct ScriptSnapshot {
  std::string name;
  std::string text;  ///< original source, for standalone-twin replays
  /// The bound plan every run copies (never mutates): compiled batch
  /// programs where the binder produced them, the interpreter elsewhere.
  std::shared_ptr<const sql::BoundScript> bound;
  /// Shared VG realizations (typed column chunks), keyed by (table, seed
  /// namespace, world): a session's repeated runs amortize generation,
  /// and each session's namespace occupies its own keys.
  std::shared_ptr<pdb::WorldCache> world_cache;
};

using Catalog = std::map<std::string, std::shared_ptr<const ScriptSnapshot>>;

class SessionServer;

/// One client's connection. Owned by the server; use from one thread.
class Session {
 public:
  /// Runs a published snapshot by name. Bit-identical to a standalone
  /// serial ScriptRunner::Run of the snapshot's text under config()'s
  /// seed.
  Result<sql::ScriptOutcome> Run(
      const std::string& script_name,
      const std::vector<std::pair<std::string, double>>& overrides = {});

  /// Ad-hoc path: parse+bind per call, still session-seeded and fanned
  /// out on the shared pool. No snapshot sharing.
  Result<sql::ScriptOutcome> RunText(
      const std::string& text,
      const std::vector<std::pair<std::string, double>>& overrides = {});

  /// Opens an interactive what-if session primed from `outcome` (a
  /// MONTECARLO run with keep_samples) via MakeSessionFromOutcome.
  /// `config.run` is overwritten with this session's config — the
  /// namespace gate (sweep world ids == session sample ids) then holds
  /// by construction for outcomes this session produced.
  Result<std::unique_ptr<InteractiveSession>> PrimeInteractive(
      const sql::ScriptOutcome& outcome, const std::string& column,
      InteractiveConfig config = {});

  std::uint64_t id() const { return id_; }
  /// This session's full run configuration: the server's base config
  /// with master_seed swapped to the session namespace and shared_pool
  /// pointing at the server pool. A standalone twin is this config with
  /// num_threads=1 and shared_pool=nullptr (see StandaloneTwinConfig).
  const RunConfig& config() const { return config_; }

 private:
  friend class SessionServer;
  Session(SessionServer* server, std::uint64_t id, RunConfig config)
      : server_(server), id_(id), config_(std::move(config)) {}

  SessionServer* server_;
  std::uint64_t id_;
  RunConfig config_;
};

/// The serial single-tenant config whose standalone run a session's
/// concurrent runs must match bit-for-bit.
RunConfig StandaloneTwinConfig(const Session& session);

class SessionServer {
 public:
  /// `base` seeds every derived session config: num_threads sizes the
  /// one shared pool (1 = everything serial, no pool), master_seed roots
  /// the per-session namespaces. `registry` must outlive the server.
  SessionServer(const ModelRegistry* registry, const RunConfig& base);

  /// Parses, binds, and publishes `text` under `name`, replacing any
  /// previous snapshot of that name for *future* runs (in-flight runs
  /// hold the catalog they started with). Thread-safe. Fails on parse or
  /// bind errors — nothing is published on failure.
  Result<std::shared_ptr<const ScriptSnapshot>> Publish(
      const std::string& name, const std::string& text) JIGSAW_EXCLUDES(mu_);

  /// Admits a new client session under SessionSeed(master, id).
  /// Thread-safe; the returned session is valid for the server's lifetime.
  Session& Connect() JIGSAW_EXCLUDES(mu_);

  /// Current catalog handle (copy-on-write: never mutated in place).
  std::shared_ptr<const Catalog> catalog() const JIGSAW_EXCLUDES(mu_);

  const ModelRegistry* registry() const { return registry_; }
  const RunConfig& base_config() const { return base_; }
  ThreadPool* pool() { return pool_.get(); }
  std::size_t session_count() const JIGSAW_EXCLUDES(mu_);

 private:
  /// registry_, base_ and pool_ are set in the constructor and immutable
  /// afterwards: every thread may read them without mu_.
  const ModelRegistry* registry_;
  RunConfig base_;
  std::unique_ptr<ThreadPool> pool_;  ///< the ONE shared worker pool

  mutable Mutex mu_;  ///< guards catalog_ swaps and sessions_
  /// COW handle: replaced (never mutated in place) under mu_; readers
  /// copy the shared_ptr under mu_ and then use the immutable Catalog
  /// lock-free. The pointee is const, so only the handle needs the guard.
  std::shared_ptr<const Catalog> catalog_ JIGSAW_GUARDED_BY(mu_);
  /// Sessions are deque-of-unique_ptr-stable: the pointers handed to
  /// clients outlive the vector's growth; only the vector itself is
  /// guarded.
  std::vector<std::unique_ptr<Session>> sessions_ JIGSAW_GUARDED_BY(mu_);
  std::uint64_t next_session_id_ JIGSAW_GUARDED_BY(mu_) = 0;
};

}  // namespace jigsaw::serve
