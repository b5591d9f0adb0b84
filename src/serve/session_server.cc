#include "serve/session_server.h"

#include "random/splitmix64.h"

namespace jigsaw::serve {

std::uint64_t SessionSeed(std::uint64_t master_seed,
                          std::uint64_t session_id) {
  // One SplitMix64 scramble of (master, id). The golden-ratio stride
  // separates consecutive ids across the whole state space before the
  // scramble mixes; "SESS" tags the derivation so a session namespace
  // can never collide with other derived-seed schemes rooted at the
  // same master seed.
  SplitMix64 sm(master_seed ^
                (0x53455353ULL + session_id * 0x9E3779B97F4A7C15ULL));
  return sm.Next();
}

RunConfig StandaloneTwinConfig(const Session& session) {
  RunConfig twin = session.config();
  twin.num_threads = 1;
  twin.shared_pool = nullptr;
  return twin;
}

SessionServer::SessionServer(const ModelRegistry* registry,
                             const RunConfig& base)
    : registry_(registry),
      base_(base),
      catalog_(std::make_shared<const Catalog>()) {
  if (base_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(base_.num_threads);
  }
  base_.shared_pool = pool_.get();
}

Result<std::shared_ptr<const ScriptSnapshot>> SessionServer::Publish(
    const std::string& name, const std::string& text) {
  // Bind once, outside the lock — publishing must not stall Connect or
  // sibling publishes behind a parse.
  JIGSAW_ASSIGN_OR_RETURN(sql::BoundScript bound,
                          sql::ParseAndBind(text, *registry_));

  auto published = std::make_shared<const ScriptSnapshot>(ScriptSnapshot{
      name, text, std::make_shared<const sql::BoundScript>(std::move(bound)),
      std::make_shared<pdb::WorldCache>()});

  // Copy-on-write swap: runs holding the previous catalog pointer keep
  // an unchanged view; new runs pick up the new snapshot.
  MutexLock lock(&mu_);
  auto next = std::make_shared<Catalog>(*catalog_);
  (*next)[name] = published;
  catalog_ = std::move(next);
  return published;
}

Session& SessionServer::Connect() {
  MutexLock lock(&mu_);
  const std::uint64_t id = next_session_id_++;
  RunConfig config = base_;
  config.master_seed = SessionSeed(base_.master_seed, id);
  sessions_.push_back(std::unique_ptr<Session>(
      new Session(this, id, std::move(config))));
  return *sessions_.back();
}

std::shared_ptr<const Catalog> SessionServer::catalog() const {
  MutexLock lock(&mu_);
  return catalog_;
}

std::size_t SessionServer::session_count() const {
  MutexLock lock(&mu_);
  return sessions_.size();
}

Result<sql::ScriptOutcome> Session::Run(
    const std::string& script_name,
    const std::vector<std::pair<std::string, double>>& overrides) {
  const std::shared_ptr<const Catalog> catalog = server_->catalog();
  auto it = catalog->find(script_name);
  if (it == catalog->end()) {
    return Status::NotFound("no published script named '" + script_name +
                            "'");
  }
  // Keep the snapshot alive past any concurrent republish of the name.
  const std::shared_ptr<const ScriptSnapshot> snapshot = it->second;
  sql::ScriptRunner runner(server_->registry(), config_);
  return runner.RunBound(sql::BoundScript(*snapshot->bound), overrides,
                         snapshot->world_cache.get());
}

Result<sql::ScriptOutcome> Session::RunText(
    const std::string& text,
    const std::vector<std::pair<std::string, double>>& overrides) {
  sql::ScriptRunner runner(server_->registry(), config_);
  return runner.Run(text, overrides);
}

Result<std::unique_ptr<InteractiveSession>> Session::PrimeInteractive(
    const sql::ScriptOutcome& outcome, const std::string& column,
    InteractiveConfig config) {
  config.run = config_;
  return MakeSessionFromOutcome(outcome, column, config);
}

}  // namespace jigsaw::serve
