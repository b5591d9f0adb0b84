#include "pdb/vg_table.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <utility>

#include "models/cloud_models.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace jigsaw::pdb {

Status VGTableFunction::GenerateColumnarInto(std::size_t sample_id,
                                             const SeedVector& seeds,
                                             ColumnarTable* out) const {
  // Boxing adapter for generators that predate the columnar store: one
  // realization through the boxed path, row-appended into the chunks.
  JIGSAW_ASSIGN_OR_RETURN(Table t, Generate(sample_id, seeds));
  out->Reserve(out->num_rows() + t.num_rows());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    JIGSAW_RETURN_IF_ERROR(out->AppendRow(t.row(r)));
  }
  return Status::OK();
}

Result<ColumnarTable> VGTableFunction::GenerateColumnar(
    std::size_t sample_id, const SeedVector& seeds) const {
  ColumnarTable out(schema());
  JIGSAW_RETURN_IF_ERROR(GenerateColumnarInto(sample_id, seeds, &out));
  return out;
}

Status WorldExtent::AppendWorld(const VGTableFunction& fn,
                                std::size_t sample_id,
                                const SeedVector& seeds) {
  if (data.num_columns() == 0) data = ColumnarTable(fn.schema());
  row_offsets.push_back(data.num_rows());
  return fn.GenerateColumnarInto(sample_id, seeds, &data);
}

WorldCache::Key WorldCache::MakeKey(const VGTableFunction& fn,
                                    std::size_t sample_id,
                                    const SeedVector& seeds) {
  return std::make_tuple(fn.name(), seeds.master_seed(), sample_id);
}

Result<const ColumnarTable*> WorldCache::GetOrGenerateColumnar(
    const VGTableFunction& fn, std::size_t sample_id,
    const SeedVector& seeds) {
  const Key key = MakeKey(fn, sample_id, seeds);
  {
    MutexLock lock(&mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second.get();
  }
  // Generate outside the lock so distinct worlds realize concurrently.
  // Realizations are pure functions of (seeds, sample_id), so if two
  // tasks race on the same key both produce the identical table and the
  // losing copy is discarded without counting a generation.
  JIGSAW_ASSIGN_OR_RETURN(ColumnarTable t,
                          fn.GenerateColumnar(sample_id, seeds));
  auto columnar = std::make_unique<const ColumnarTable>(std::move(t));
  MutexLock lock(&mu_);
  auto [it, inserted] = cache_.try_emplace(key, std::move(columnar));
  if (inserted) ++generations_;
  return it->second.get();
}

namespace {

constexpr std::uint64_t kUsersTableSalt = 0x75736572732d7667ULL;  // users-vg
constexpr std::uint64_t kItemsTableSalt = 0x6974656d732d7667ULL;  // items-vg

class UsersVGTable final : public VGTableFunction {
 public:
  UsersVGTable(int num_users, double arrival_rate, double base_demand,
               double spread, int sim_depth)
      : num_users_(num_users),
        arrival_rate_(arrival_rate),
        base_demand_(base_demand),
        spread_(spread),
        sim_depth_(sim_depth),
        name_("users"),
        schema_(std::vector<Column>{{"user_id", ValueType::kInt},
                                    {"signup_week", ValueType::kDouble},
                                    {"requirement", ValueType::kDouble}}) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  std::span<const std::size_t> CertainColumns() const override {
    static constexpr std::size_t kCertain[] = {0, 1};  // user_id, signup_week
    return kCertain;
  }

  Result<Table> Generate(std::size_t sample_id,
                         const SeedVector& seeds) const override {
    Table out(schema_);
    out.Reserve(static_cast<std::size_t>(num_users_));
    RandomStream rng = seeds.StreamFor(sample_id, kUsersTableSalt);
    for (int u = 0; u < num_users_; ++u) {
      double signup = 0.0, requirement = 0.0;
      RealizeUser(u, &rng, &signup, &requirement);
      Row row;
      row.reserve(3);
      row.emplace_back(static_cast<std::int64_t>(u));
      row.emplace_back(signup);
      row.emplace_back(requirement);
      JIGSAW_RETURN_IF_ERROR(out.AddRow(std::move(row)));
    }
    return out;
  }

  Status GenerateColumnarInto(std::size_t sample_id, const SeedVector& seeds,
                              ColumnarTable* out) const override {
    // The hot path: the peaks land straight in the requirement column
    // through the bounded max-of-LogNormals kernel, which consumes the
    // stream exactly as RealizeUser's loop does and realizes the same
    // bits; the world-invariant profile is read, not derived again.
    const std::vector<UserProfile>& profiles = Profiles();
    const std::size_t n = static_cast<std::size_t>(num_users_);
    std::span<std::int64_t> user_ids = out->column(0).AppendIntSpan(n);
    std::span<double> signups = out->column(1).AppendDoubleSpan(n);
    std::span<double> requirements = out->column(2).AppendDoubleSpan(n);
    RandomStream rng = seeds.StreamFor(sample_id, kUsersTableSalt);
    rng.MaxLogNormal(spread_, sim_depth_, requirements);
    for (std::size_t u = 0; u < n; ++u) {
      user_ids[u] = static_cast<std::int64_t>(u);
      signups[u] = profiles[u].signup;
      requirements[u] = profiles[u].base * requirements[u];
    }
    return out->CommitAppendedRows();
  }

 private:
  /// World-invariant population data: 16 B per user.
  struct UserProfile {
    double signup;
    double base;
  };

  /// Derived once per table, on its first columnar realization (binding
  /// a table never pays for it), and shared by every world after.
  const std::vector<UserProfile>& Profiles() const {
    std::call_once(profiles_once_, [this] {
      profiles_.resize(static_cast<std::size_t>(num_users_));
      for (int u = 0; u < num_users_; ++u) {
        jigsaw::DeriveUserProfile(u, arrival_rate_, base_demand_,
                                  &profiles_[u].signup, &profiles_[u].base);
      }
    });
    return profiles_;
  }

  /// The boxed reference: one user's profile and peak, one draw at a time.
  void RealizeUser(int u, RandomStream* rng, double* signup,
                   double* requirement) const {
    double base = 0.0;
    // Same deterministic population as the UserSelection black box, so
    // both engines of Figure 7 simulate the same scenario.
    jigsaw::DeriveUserProfile(u, arrival_rate_, base_demand_, signup, &base);
    double peak = 0.0;
    for (int d = 0; d < sim_depth_; ++d) {
      peak = std::max(peak, rng->LogNormal(0.0, spread_));
    }
    *requirement = base * peak;
  }

  int num_users_;
  double arrival_rate_;
  double base_demand_;
  double spread_;
  int sim_depth_;
  std::string name_;
  Schema schema_;
  mutable std::once_flag profiles_once_;
  mutable std::vector<UserProfile> profiles_;
};

/// Deterministic (non-random) per-item attributes for the scaling table.
/// Knuth-style multiplicative mixing keeps them varied without touching
/// the random stream.
bool ItemInStock(std::size_t i) {
  return (i * 2654435761ULL) % 10 != 0;  // ~90% in stock
}

const char* ItemRegion(std::size_t i) {
  static constexpr const char* kRegions[4] = {"north", "south", "east",
                                              "west"};
  return kRegions[i & 3];
}

class ScalingItemsVGTable final : public VGTableFunction {
 public:
  ScalingItemsVGTable(std::size_t num_rows, double demand_mu,
                      double demand_sigma, double cost_base)
      : num_rows_(num_rows),
        demand_mu_(demand_mu),
        demand_sigma_(demand_sigma),
        cost_base_(cost_base),
        name_("items"),
        schema_(std::vector<Column>{{"item_id", ValueType::kInt},
                                    {"demand", ValueType::kDouble},
                                    {"cost", ValueType::kDouble},
                                    {"in_stock", ValueType::kBool},
                                    {"region", ValueType::kString}}) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  std::span<const std::size_t> CertainColumns() const override {
    // item_id, in_stock, region
    static constexpr std::size_t kCertain[] = {0, 3, 4};
    return kCertain;
  }

  Result<Table> Generate(std::size_t sample_id,
                         const SeedVector& seeds) const override {
    Table out(schema_);
    out.Reserve(num_rows_);
    RandomStream rng = seeds.StreamFor(sample_id, kItemsTableSalt);
    for (std::size_t i = 0; i < num_rows_; ++i) {
      double demand = 0.0, cost = 0.0;
      RealizeItem(&rng, &demand, &cost);
      Row row;
      row.reserve(5);
      row.emplace_back(static_cast<std::int64_t>(i));
      row.emplace_back(demand);
      row.emplace_back(cost);
      row.emplace_back(ItemInStock(i));
      row.emplace_back(std::string(ItemRegion(i)));
      JIGSAW_RETURN_IF_ERROR(out.AddRow(std::move(row)));
    }
    return out;
  }

  Status GenerateColumnarInto(std::size_t sample_id, const SeedVector& seeds,
                              ColumnarTable* out) const override {
    std::span<std::int64_t> item_ids = out->column(0).AppendIntSpan(num_rows_);
    std::span<double> demands = out->column(1).AppendDoubleSpan(num_rows_);
    std::span<double> costs = out->column(2).AppendDoubleSpan(num_rows_);
    std::span<std::uint8_t> in_stock = out->column(3).AppendBoolSpan(num_rows_);
    // The region domain is closed (4 names cycling by i&3): intern each
    // name once, in the same first-appearance order the boxed rows
    // produce, and bulk-fill codes — no per-row dictionary probe.
    ColumnChunk& region = out->column(4);
    std::uint32_t region_codes[4];
    for (std::size_t r = 0; r < 4; ++r) {
      region_codes[r] = region.InternString(ItemRegion(r));
    }
    std::span<std::uint32_t> regions = region.AppendCodeSpan(num_rows_);
    RandomStream rng = seeds.StreamFor(sample_id, kItemsTableSalt);
    for (std::size_t i = 0; i < num_rows_; ++i) {
      item_ids[i] = static_cast<std::int64_t>(i);
      RealizeItem(&rng, &demands[i], &costs[i]);
      in_stock[i] = ItemInStock(i) ? 1 : 0;
      regions[i] = region_codes[i & 3];
    }
    return out->CommitAppendedRows();
  }

 private:
  void RealizeItem(RandomStream* rng, double* demand, double* cost) const {
    // Two draws per row: cheap enough that storage representation — not
    // the generator — dominates the cost at millions of tuples.
    *demand = rng->LogNormal(demand_mu_, demand_sigma_);
    *cost = cost_base_ * rng->Uniform(0.8, 1.2);
  }

  std::size_t num_rows_;
  double demand_mu_;
  double demand_sigma_;
  double cost_base_;
  std::string name_;
  Schema schema_;
};

}  // namespace

VGTableFunctionPtr MakeUsersVGTable(int num_users, double arrival_rate,
                                    double base_demand, double spread,
                                    int sim_depth) {
  return std::make_shared<UsersVGTable>(num_users, arrival_rate, base_demand,
                                        spread, sim_depth);
}

VGTableFunctionPtr MakeScalingItemsVGTable(std::size_t num_rows,
                                           double demand_mu,
                                           double demand_sigma,
                                           double cost_base) {
  return std::make_shared<ScalingItemsVGTable>(num_rows, demand_mu,
                                               demand_sigma, cost_base);
}

}  // namespace jigsaw::pdb
