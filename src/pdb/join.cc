#include "pdb/join.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "pdb/monte_carlo.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace jigsaw::pdb {

namespace {

/// One matched (left row, right row) pair of a world partition, in
/// absolute chunk row indices. The canonical output order is this list
/// sorted by (left, right) — the serial nested-loop visitation order.
using RowPair = std::pair<std::size_t, std::size_t>;

/// Boxed key equality — the oracle's match test. NULL keys never match
/// anything (not even another NULL); double NaN keys compare unequal to
/// everything via IEEE ==, so they never match either. The key type is
/// common to both sides by ResolveJoin, so no coercion happens here.
bool KeysMatch(const Value& a, const Value& b, ValueType key_type) {
  if (a.is_null() || b.is_null()) return false;
  switch (key_type) {
    case ValueType::kInt:
      return a.AsInt() == b.AsInt();
    case ValueType::kDouble:
      return a.AsDouble() == b.AsDouble();
    case ValueType::kBool:
      return a.AsBool() == b.AsBool();
    case ValueType::kString:
      return a.AsString() == b.AsString();
    case ValueType::kNull:
      return false;
  }
  return false;
}

/// Sort-merge pair kernel over one world partition. `lkey`/`rkey` read
/// the key of an absolute row index; `usable` filters rows whose key can
/// never match (double NaN). Stable sort with a key-only comparator
/// breaks ties by row index for free (indices are pushed ascending), and
/// the final (left, right) sort restores the canonical nested-loop order
/// from the key-grouped merge output.
template <typename LKey, typename RKey, typename Usable>
void SortMergePairs(const ColumnChunk& lcol, std::size_t lf, std::size_t ll,
                    const ColumnChunk& rcol, std::size_t rf, std::size_t rl,
                    LKey lkey, RKey rkey, Usable usable,
                    std::vector<RowPair>* out) {
  std::vector<std::size_t> li, ri;
  li.reserve(ll - lf);
  ri.reserve(rl - rf);
  for (std::size_t i = lf; i < ll; ++i) {
    if (!lcol.IsNull(i) && usable(lkey(i))) li.push_back(i);
  }
  for (std::size_t j = rf; j < rl; ++j) {
    if (!rcol.IsNull(j) && usable(rkey(j))) ri.push_back(j);
  }
  std::stable_sort(li.begin(), li.end(), [&](std::size_t a, std::size_t b) {
    return lkey(a) < lkey(b);
  });
  std::stable_sort(ri.begin(), ri.end(), [&](std::size_t a, std::size_t b) {
    return rkey(a) < rkey(b);
  });
  std::size_t a = 0, b = 0;
  while (a < li.size() && b < ri.size()) {
    const auto ka = lkey(li[a]);
    const auto kb = rkey(ri[b]);
    if (ka < kb) {
      ++a;
    } else if (kb < ka) {
      ++b;
    } else {
      std::size_t a2 = a;
      while (a2 < li.size() && !(ka < lkey(li[a2]))) ++a2;
      std::size_t b2 = b;
      while (b2 < ri.size() && !(kb < rkey(ri[b2]))) ++b2;
      for (std::size_t i = a; i < a2; ++i) {
        for (std::size_t j = b; j < b2; ++j) {
          out->push_back({li[i], ri[j]});
        }
      }
      a = a2;
      b = b2;
    }
  }
  std::sort(out->begin(), out->end());
}

/// Hash/index pair kernel: insertion-ordered build of the right side
/// (each key's postings list keeps right-row-ascending order), probe
/// left rows in order — canonical nested-loop order by construction.
/// `norm` canonicalizes keys whose == classes span several bit patterns
/// (doubles: -0.0 -> +0.0) so hashing agrees with key equality.
template <typename Key, typename LKey, typename RKey, typename Usable,
          typename Norm>
void HashPairs(const ColumnChunk& lcol, std::size_t lf, std::size_t ll,
               const ColumnChunk& rcol, std::size_t rf, std::size_t rl,
               LKey lkey, RKey rkey, Usable usable, Norm norm,
               std::vector<RowPair>* out) {
  std::unordered_map<Key, std::vector<std::size_t>> build;
  build.reserve(rl - rf);
  for (std::size_t j = rf; j < rl; ++j) {
    if (rcol.IsNull(j)) continue;
    const auto k = rkey(j);
    if (!usable(k)) continue;
    build[norm(k)].push_back(j);
  }
  for (std::size_t i = lf; i < ll; ++i) {
    if (lcol.IsNull(i)) continue;
    const auto k = lkey(i);
    if (!usable(k)) continue;
    auto it = build.find(norm(k));
    if (it == build.end()) continue;
    for (std::size_t j : it->second) out->push_back({i, j});
  }
}

/// Dispatches one world partition's key matching to the typed kernel.
void MatchPairs(const ColumnChunk& lcol, std::size_t lf, std::size_t ll,
                const ColumnChunk& rcol, std::size_t rf, std::size_t rl,
                ValueType key_type, JoinAlgorithm algorithm,
                std::vector<RowPair>* out) {
  const auto any = [](auto) { return true; };
  const auto id = [](auto k) { return k; };
  switch (key_type) {
    case ValueType::kInt: {
      auto lk = [&](std::size_t i) { return lcol.Ints()[i]; };
      auto rk = [&](std::size_t j) { return rcol.Ints()[j]; };
      if (algorithm == JoinAlgorithm::kSortMerge) {
        SortMergePairs(lcol, lf, ll, rcol, rf, rl, lk, rk, any, out);
      } else {
        HashPairs<std::int64_t>(lcol, lf, ll, rcol, rf, rl, lk, rk, any, id,
                                out);
      }
      return;
    }
    case ValueType::kDouble: {
      auto lk = [&](std::size_t i) { return lcol.Doubles()[i]; };
      auto rk = [&](std::size_t j) { return rcol.Doubles()[j]; };
      // NaN keys match nothing under IEEE ==, and they would poison the
      // sort ordering — both kernels drop them up front, which is
      // equivalent to the oracle's == test rejecting them pairwise.
      auto usable = [](double k) { return !std::isnan(k); };
      // -0.0 == +0.0 must land in one hash bucket even though the bit
      // patterns (and std::hash values) differ.
      auto norm = [](double k) { return k == 0.0 ? 0.0 : k; };
      if (algorithm == JoinAlgorithm::kSortMerge) {
        SortMergePairs(lcol, lf, ll, rcol, rf, rl, lk, rk, usable, out);
      } else {
        HashPairs<double>(lcol, lf, ll, rcol, rf, rl, lk, rk, usable, norm,
                          out);
      }
      return;
    }
    case ValueType::kBool: {
      auto lk = [&](std::size_t i) { return lcol.Bools()[i] != 0; };
      auto rk = [&](std::size_t j) { return rcol.Bools()[j] != 0; };
      if (algorithm == JoinAlgorithm::kSortMerge) {
        SortMergePairs(lcol, lf, ll, rcol, rf, rl, lk, rk, any, out);
      } else {
        HashPairs<bool>(lcol, lf, ll, rcol, rf, rl, lk, rk, any, id, out);
      }
      return;
    }
    case ValueType::kString: {
      // Dictionary codes are chunk-local, so keys compare as decoded
      // strings; the views point into the chunks' stable dictionaries.
      auto lk = [&](std::size_t i) {
        return std::string_view(lcol.Dictionary()[lcol.StringCodes()[i]]);
      };
      auto rk = [&](std::size_t j) {
        return std::string_view(rcol.Dictionary()[rcol.StringCodes()[j]]);
      };
      if (algorithm == JoinAlgorithm::kSortMerge) {
        SortMergePairs(lcol, lf, ll, rcol, rf, rl, lk, rk, any, out);
      } else {
        HashPairs<std::string_view>(lcol, lf, ll, rcol, rf, rl, lk, rk, any,
                                    id, out);
      }
      return;
    }
    case ValueType::kNull:
      return;  // unreachable: ResolveJoin rejects null-typed keys
  }
}

/// Gathers one source column's values at the pair rows into `*dst` —
/// typed appends straight from the chunk spans, no boxing. `from_left`
/// selects which pair coordinate indexes this column's side.
void GatherColumn(const ColumnChunk& src, std::span<const RowPair> pairs,
                  bool from_left, ColumnChunk* dst) {
  auto row_of = [&](const RowPair& p) {
    return from_left ? p.first : p.second;
  };
  switch (src.type()) {
    case ValueType::kDouble:
      for (const RowPair& p : pairs) {
        const std::size_t i = row_of(p);
        if (src.IsNull(i)) {
          dst->AppendNull();
        } else {
          dst->AppendDouble(src.Doubles()[i]);
        }
      }
      return;
    case ValueType::kInt:
      for (const RowPair& p : pairs) {
        const std::size_t i = row_of(p);
        if (src.IsNull(i)) {
          dst->AppendNull();
        } else {
          dst->AppendInt(src.Ints()[i]);
        }
      }
      return;
    case ValueType::kBool:
      for (const RowPair& p : pairs) {
        const std::size_t i = row_of(p);
        if (src.IsNull(i)) {
          dst->AppendNull();
        } else {
          dst->AppendBool(src.Bools()[i] != 0);
        }
      }
      return;
    case ValueType::kString:
      for (const RowPair& p : pairs) {
        const std::size_t i = row_of(p);
        if (src.IsNull(i)) {
          dst->AppendNull();
        } else {
          dst->AppendString(src.Dictionary()[src.StringCodes()[i]]);
        }
      }
      return;
    case ValueType::kNull:
      for (std::size_t k = 0; k < pairs.size(); ++k) dst->AppendNull();
      return;
  }
}

/// Streams the nested-loop oracle's joined relation of one world as a
/// Volcano leaf: both sides realized boxed at Open (through the cache
/// when present), rows emitted in canonical (left, right) order.
class JoinedVGScanNode final : public PlanNode {
 public:
  JoinedVGScanNode(VGTableFunctionPtr left, VGTableFunctionPtr right,
                   ResolvedJoin join, WorldCache* cache)
      : left_(std::move(left)),
        right_(std::move(right)),
        join_(std::move(join)),
        cache_(cache) {}

  const Schema& schema() const override { return join_.output; }

  Status Open(EvalContext& ctx) override {
    if (ctx.seeds == nullptr) {
      return Status::ExecutionError(
          "joined VG scan requires a seed vector");
    }
    if (cache_ != nullptr) {
      JIGSAW_ASSIGN_OR_RETURN(
          left_table_, cache_->GetOrGenerate(*left_, ctx.sample_id,
                                             *ctx.seeds));
      JIGSAW_ASSIGN_OR_RETURN(
          right_table_, cache_->GetOrGenerate(*right_, ctx.sample_id,
                                              *ctx.seeds));
    } else {
      JIGSAW_ASSIGN_OR_RETURN(owned_left_,
                              left_->Generate(ctx.sample_id, *ctx.seeds));
      JIGSAW_ASSIGN_OR_RETURN(owned_right_,
                              right_->Generate(ctx.sample_id, *ctx.seeds));
      left_table_ = &owned_left_;
      right_table_ = &owned_right_;
    }
    l_ = 0;
    r_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    while (l_ < left_table_->num_rows()) {
      const Row& lrow = left_table_->row(l_);
      while (r_ < right_table_->num_rows()) {
        const Row& rrow = right_table_->row(r_++);
        if (!KeysMatch(lrow[join_.left_slot], rrow[join_.right_slot],
                       join_.key_type)) {
          continue;
        }
        out->clear();
        out->reserve(lrow.size() + rrow.size());
        out->insert(out->end(), lrow.begin(), lrow.end());
        out->insert(out->end(), rrow.begin(), rrow.end());
        return true;
      }
      r_ = 0;
      ++l_;
    }
    return false;
  }

  void Close() override {
    owned_left_ = Table();
    owned_right_ = Table();
    left_table_ = nullptr;
    right_table_ = nullptr;
  }

 private:
  VGTableFunctionPtr left_;
  VGTableFunctionPtr right_;
  ResolvedJoin join_;
  WorldCache* cache_;
  Table owned_left_, owned_right_;
  const Table* left_table_ = nullptr;
  const Table* right_table_ = nullptr;
  std::size_t l_ = 0, r_ = 0;
};

/// Joins one world's partitions and appends the result to `*out` as the
/// next world: rows into out->data, one world-id stamp per output row,
/// and the world's starting row offset. Shared by JoinWorlds (extents)
/// and the cached-realization path (whole tables are one-world
/// partitions).
Status AppendJoinedWorld(const ColumnarTable& left, std::size_t lf,
                         std::size_t ll, const ColumnarTable& right,
                         std::size_t rf, std::size_t rl,
                         const ResolvedJoin& join, JoinAlgorithm algorithm,
                         std::size_t world_id, WorldExtent* out) {
  if (out->data.num_columns() == 0) {
    out->data = ColumnarTable(join.output);
  }
  out->row_offsets.push_back(out->data.num_rows());
  JIGSAW_RETURN_IF_ERROR(JoinPartition(left, lf, ll, right, rf, rl, join,
                                       algorithm, &out->data));
  const std::size_t appended =
      out->data.num_rows() - out->row_offsets.back();
  for (std::size_t k = 0; k < appended; ++k) {
    out->world_ids.AppendInt(static_cast<std::int64_t>(world_id));
  }
  return Status::OK();
}

}  // namespace

Result<ResolvedJoin> ResolveJoin(const Schema& left, const Schema& right,
                                 const JoinSpec& spec) {
  ResolvedJoin join;
  JIGSAW_ASSIGN_OR_RETURN(join.left_slot, left.IndexOf(spec.left_key));
  JIGSAW_ASSIGN_OR_RETURN(join.right_slot, right.IndexOf(spec.right_key));
  const ValueType lt = left.column(join.left_slot).type;
  const ValueType rt = right.column(join.right_slot).type;
  if (lt != rt || lt == ValueType::kNull) {
    // The columnar store is strictly typed, so a cross-type key match
    // would need a coercion rule; refuse it instead (the boxed oracle
    // enforces the same contract for identity).
    return Status::ExecutionError(StrFormat(
        "join keys '%s' (%s) and '%s' (%s) have mismatched types",
        spec.left_key.c_str(), ValueTypeName(lt), spec.right_key.c_str(),
        ValueTypeName(rt)));
  }
  join.key_type = lt;
  join.output = Schema::Concat(left, right);
  for (std::size_t i = 0; i < join.output.num_columns(); ++i) {
    for (std::size_t j = i + 1; j < join.output.num_columns(); ++j) {
      if (EqualsIgnoreCase(join.output.column(i).name,
                           join.output.column(j).name)) {
        return Status::ExecutionError(
            "duplicate column '" + join.output.column(j).name +
            "' in join output");
      }
    }
  }
  return join;
}

Result<Table> NestedLoopJoinOracle(const Table& left, const Table& right,
                                   const ResolvedJoin& join) {
  Table out(join.output);
  for (std::size_t i = 0; i < left.num_rows(); ++i) {
    const Row& lrow = left.row(i);
    for (std::size_t j = 0; j < right.num_rows(); ++j) {
      const Row& rrow = right.row(j);
      if (!KeysMatch(lrow[join.left_slot], rrow[join.right_slot],
                     join.key_type)) {
        continue;
      }
      Row joined;
      joined.reserve(lrow.size() + rrow.size());
      joined.insert(joined.end(), lrow.begin(), lrow.end());
      joined.insert(joined.end(), rrow.begin(), rrow.end());
      out.AppendRowUnchecked(std::move(joined));
    }
  }
  return out;
}

Status JoinPartition(const ColumnarTable& left, std::size_t left_first,
                     std::size_t left_last, const ColumnarTable& right,
                     std::size_t right_first, std::size_t right_last,
                     const ResolvedJoin& join, JoinAlgorithm algorithm,
                     ColumnarTable* out) {
  std::vector<RowPair> pairs;
  MatchPairs(left.column(join.left_slot), left_first, left_last,
             right.column(join.right_slot), right_first, right_last,
             join.key_type, algorithm, &pairs);
  for (std::size_t c = 0; c < left.num_columns(); ++c) {
    GatherColumn(left.column(c), pairs, /*from_left=*/true,
                 &out->column(c));
  }
  const std::size_t base = left.num_columns();
  for (std::size_t c = 0; c < right.num_columns(); ++c) {
    GatherColumn(right.column(c), pairs, /*from_left=*/false,
                 &out->column(base + c));
  }
  return out->CommitAppendedRows();
}

Status JoinWorlds(const WorldExtent& left, const WorldExtent& right,
                  const ResolvedJoin& join, JoinAlgorithm algorithm,
                  WorldExtent* out) {
  if (left.world_begin != right.world_begin ||
      left.row_offsets.size() != right.row_offsets.size()) {
    return Status::InvalidArgument(
        "joined extents cover different world ranges");
  }
  out->world_begin = left.world_begin;
  for (std::size_t k = 0; k < left.row_offsets.size(); ++k) {
    const auto [lf, ll] = left.WorldRows(k);
    const auto [rf, rl] = right.WorldRows(k);
    JIGSAW_RETURN_IF_ERROR(AppendJoinedWorld(
        left.data, lf, ll, right.data, rf, rl, join, algorithm,
        left.world_begin + k, out));
  }
  return Status::OK();
}

PlanNodePtr MakeJoinedVGScan(VGTableFunctionPtr left,
                             VGTableFunctionPtr right, ResolvedJoin join,
                             WorldCache* cache) {
  return std::make_unique<JoinedVGScanNode>(std::move(left),
                                            std::move(right),
                                            std::move(join), cache);
}

Result<std::map<std::string, OutputMetrics>> FoldJoinedVGColumns(
    const VGTableFunctionPtr& left, const VGTableFunctionPtr& right,
    const JoinSpec& spec, std::span<const std::string> column_names,
    std::size_t num_worlds, const SeedVector& seeds, const RunConfig& config,
    ThreadPool* pool, WorldCache* cache) {
  // Both schemas (and therefore the joined schema) are world-invariant,
  // so the join and the requested columns resolve up front — a bad key,
  // a bad name or a non-numeric column fails before any realization, on
  // every storage x algorithm path, with identical text.
  JIGSAW_ASSIGN_OR_RETURN(
      ResolvedJoin join, ResolveJoin(left->schema(), right->schema(), spec));
  std::vector<std::size_t> slots;
  slots.reserve(column_names.size());
  for (const auto& name : column_names) {
    JIGSAW_ASSIGN_OR_RETURN(std::size_t idx, join.output.IndexOf(name));
    const ValueType t = join.output.column(idx).type;
    if (t != ValueType::kDouble && t != ValueType::kInt &&
        t != ValueType::kBool) {
      return Status::ExecutionError("column '" + name + "' is not numeric");
    }
    slots.push_back(idx);
  }

  const std::size_t batch = std::max<std::size_t>(1, config.batch_size);
  const std::size_t num_chunks =
      num_worlds == 0 ? 0 : (num_worlds + batch - 1) / batch;

  if (config.columnar_storage) {
    // Shard-ownership rule: cell `chunk` is the only writer of its
    // joined extent. Realization interleaves left/right per world so a
    // generator failure surfaces in the order the serial boxed loop
    // would hit it (world-major, left side first).
    struct Cell {
      WorldExtent joined;
      Status status = Status::OK();
    };
    std::vector<Cell> cells(num_chunks);
    auto run_cell = [&](std::size_t chunk) {
      Cell& cell = cells[chunk];
      const std::size_t begin = chunk * batch;
      const std::size_t end = std::min(begin + batch, num_worlds);
      if (cache != nullptr) {
        for (std::size_t w = begin; w < end; ++w) {
          auto lt = cache->GetOrGenerateColumnar(*left, w, seeds);
          if (!lt.ok()) {
            cell.status = lt.status();
            return;
          }
          auto rt = cache->GetOrGenerateColumnar(*right, w, seeds);
          if (!rt.ok()) {
            cell.status = rt.status();
            return;
          }
          cell.joined.world_begin = begin;
          if (Status s = AppendJoinedWorld(
                  *lt.value(), 0, lt.value()->num_rows(), *rt.value(), 0,
                  rt.value()->num_rows(), join, config.join_algorithm, w,
                  &cell.joined);
              !s.ok()) {
            cell.status = std::move(s);
            return;
          }
        }
      } else {
        WorldExtent lext, rext;
        lext.world_begin = begin;
        rext.world_begin = begin;
        for (std::size_t w = begin; w < end; ++w) {
          if (Status s = lext.AppendWorld(*left, w, seeds); !s.ok()) {
            cell.status = std::move(s);
            return;
          }
          if (Status s = rext.AppendWorld(*right, w, seeds); !s.ok()) {
            cell.status = std::move(s);
            return;
          }
        }
        cell.status = JoinWorlds(lext, rext, join, config.join_algorithm,
                                 &cell.joined);
      }
    };
    if (pool != nullptr && num_chunks >= 2) {
      pool->ParallelFor(num_chunks, run_cell);
    } else {
      for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
        run_cell(chunk);
        if (!cells[chunk].status.ok()) break;
      }
    }
    // Chunk-order scan surfaces the lowest failing world's error, same
    // as the serial loop, regardless of pool schedule.
    for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
      if (!cells[chunk].status.ok()) return std::move(cells[chunk].status);
    }
    std::vector<internal::WorldSlice> worlds;
    worlds.reserve(num_worlds);
    for (const Cell& cell : cells) {
      for (std::size_t k = 0; k < cell.joined.row_offsets.size(); ++k) {
        const auto [first, last] = cell.joined.WorldRows(k);
        worlds.push_back({&cell.joined.data, first, last});
      }
    }
    return internal::FoldColumnsByWorld(worlds, slots, column_names, config,
                                        pool);
  } else {
    // Boxed reference twin: the nested-loop oracle runs as a Volcano
    // plan per world (the same MakeJoinedVGScan leaf the SQL layer
    // lowers to), columns staged through the copying NumericColumn.
    std::vector<Estimator> estimators(
        slots.size(), Estimator(config.keep_samples, config.histogram_bins));
    struct BoxCell {
      std::vector<std::vector<double>> buffers;
      Status status = Status::OK();
    };
    std::vector<BoxCell> cells(num_chunks);
    auto run_cell = [&](std::size_t chunk) {
      BoxCell& cell = cells[chunk];
      cell.buffers.resize(slots.size());
      const std::size_t begin = chunk * batch;
      const std::size_t end = std::min(begin + batch, num_worlds);
      for (std::size_t w = begin; w < end; ++w) {
        PlanNodePtr plan = MakeJoinedVGScan(left, right, join, cache);
        EvalContext ctx;
        ctx.sample_id = w;
        ctx.seeds = &seeds;
        ctx.columnar_storage = false;
        auto joined = ExecuteToTable(*plan, ctx);
        if (!joined.ok()) {
          cell.status = joined.status();
          return;
        }
        for (std::size_t s = 0; s < slots.size(); ++s) {
          auto col = joined.value().NumericColumn(column_names[s]);
          if (!col.ok()) {
            cell.status = col.status();
            return;
          }
          const std::vector<double>& values = col.value();
          cell.buffers[s].insert(cell.buffers[s].end(), values.begin(),
                                 values.end());
        }
      }
    };
    if (pool != nullptr && num_chunks >= 2) {
      pool->ParallelFor(num_chunks, run_cell);
    } else {
      for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
        run_cell(chunk);
        if (!cells[chunk].status.ok()) break;
      }
    }
    for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
      if (!cells[chunk].status.ok()) return std::move(cells[chunk].status);
    }
    for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
      for (std::size_t s = 0; s < slots.size(); ++s) {
        estimators[s].AddSpan(cells[chunk].buffers[s]);
      }
      cells[chunk] = BoxCell{};
    }
    std::map<std::string, OutputMetrics> out;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      out.emplace(column_names[s], estimators[s].Finalize());
    }
    return out;
  }
}

}  // namespace jigsaw::pdb
