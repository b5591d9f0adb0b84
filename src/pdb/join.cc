#include "pdb/join.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string_view>
#include <utility>

#include "pdb/monte_carlo.h"
#include "util/string_util.h"

namespace jigsaw::pdb {

namespace {

/// One matched (left row, right row) pair of a world partition, in
/// absolute chunk row indices. The canonical output order is this list
/// sorted by (left, right) — the serial nested-loop visitation order.
using RowPair = std::pair<std::size_t, std::size_t>;

/// Sort-merge pair kernel over one world partition. `lkey`/`rkey` read
/// the key of an absolute row index; `usable` filters rows whose key can
/// never match (double NaN). Stable sort with a key-only comparator
/// breaks ties by row index for free (indices are pushed ascending), and
/// the final (left, right) sort restores the canonical nested-loop order
/// from the key-grouped merge output. Sorting a range that is already in
/// order changes nothing, so each of the three sorts runs only when a
/// one-pass check finds its range out of order: key-ordered sides (such
/// as generated id columns joined 1:1) skip all three.
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
  const auto lless = [&](std::size_t a, std::size_t b) {
    return lkey(a) < lkey(b);
  };
  const auto rless = [&](std::size_t a, std::size_t b) {
    return rkey(a) < rkey(b);
  };
  if (!std::is_sorted(li.begin(), li.end(), lless)) {
    std::stable_sort(li.begin(), li.end(), lless);
  }
  if (!std::is_sorted(ri.begin(), ri.end(), rless)) {
    std::stable_sort(ri.begin(), ri.end(), rless);
  }
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
  if (!std::is_sorted(out->begin(), out->end())) {
    std::sort(out->begin(), out->end());
  }
}

/// Dispatches one world partition's key matching to the typed kernel.
void MatchPairs(const ColumnChunk& lcol, std::size_t lf, std::size_t ll,
                const ColumnChunk& rcol, std::size_t rf, std::size_t rl,
                ValueType key_type, std::vector<RowPair>* out) {
  const auto any = [](auto) { return true; };
  switch (key_type) {
    case ValueType::kInt: {
      auto lk = [&](std::size_t i) { return lcol.Ints()[i]; };
      auto rk = [&](std::size_t j) { return rcol.Ints()[j]; };
      SortMergePairs(lcol, lf, ll, rcol, rf, rl, lk, rk, any, out);
      return;
    }
    case ValueType::kDouble: {
      auto lk = [&](std::size_t i) { return lcol.Doubles()[i]; };
      auto rk = [&](std::size_t j) { return rcol.Doubles()[j]; };
      // NaN keys match nothing under IEEE ==, and they would poison the
      // sort ordering — the kernel drops them up front, which is
      // equivalent to the oracle's == test rejecting them pairwise.
      auto usable = [](double k) { return !std::isnan(k); };
      SortMergePairs(lcol, lf, ll, rcol, rf, rl, lk, rk, usable, out);
      return;
    }
    case ValueType::kBool: {
      auto lk = [&](std::size_t i) { return lcol.Bools()[i] != 0; };
      auto rk = [&](std::size_t j) { return rcol.Bools()[j] != 0; };
      SortMergePairs(lcol, lf, ll, rcol, rf, rl, lk, rk, any, out);
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
      SortMergePairs(lcol, lf, ll, rcol, rf, rl, lk, rk, any, out);
      return;
    }
    case ValueType::kNull:
      return;  // unreachable: ResolveJoin rejects null-typed keys
  }
}

/// Gathers one source column's values at the pair rows into `*dst` —
/// typed appends straight from the chunk spans, no boxing. `from_left`
/// selects which pair coordinate indexes this column's side. A NULL-free
/// numeric source fills one appended span by index.
void GatherColumn(const ColumnChunk& src, std::span<const RowPair> pairs,
                  bool from_left, ColumnChunk* dst) {
  auto row_of = [&](const RowPair& p) {
    return from_left ? p.first : p.second;
  };
  auto fill = [&](auto values, auto out) {
    if (from_left) {
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        out[k] = values[pairs[k].first];
      }
    } else {
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        out[k] = values[pairs[k].second];
      }
    }
  };
  if (src.null_count() == 0) {
    switch (src.type()) {
      case ValueType::kDouble:
        fill(src.Doubles(), dst->AppendDoubleSpan(pairs.size()));
        return;
      case ValueType::kInt:
        fill(src.Ints(), dst->AppendIntSpan(pairs.size()));
        return;
      case ValueType::kBool:
        fill(src.Bools(), dst->AppendBoolSpan(pairs.size()));
        return;
      case ValueType::kString:
      case ValueType::kNull:
        break;
    }
  }
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

/// Appends the join.output columns listed in `output_columns` of each
/// matched pair, in pair order, to `*out`'s columns, then commits the
/// rows.
Status GatherPairs(const ColumnarTable& left, const ColumnarTable& right,
                   std::span<const RowPair> pairs,
                   std::span<const std::size_t> output_columns,
                   ColumnarTable* out) {
  const std::size_t num_left = left.num_columns();
  for (std::size_t c = 0; c < output_columns.size(); ++c) {
    const std::size_t slot = output_columns[c];
    const bool from_left = slot < num_left;
    GatherColumn(from_left ? left.column(slot) : right.column(slot - num_left),
                 pairs, from_left, &out->column(c));
  }
  return out->CommitAppendedRows();
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
    // would need a coercion rule; refuse it instead.
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

Status JoinPartition(const ColumnarTable& left, std::size_t left_first,
                     std::size_t left_last, const ColumnarTable& right,
                     std::size_t right_first, std::size_t right_last,
                     const ResolvedJoin& join,
                     std::span<const std::size_t> output_columns,
                     ColumnarTable* out) {
  std::vector<RowPair> pairs;
  MatchPairs(left.column(join.left_slot), left_first, left_last,
             right.column(join.right_slot), right_first, right_last,
             join.key_type, &pairs);
  return GatherPairs(left, right, pairs, output_columns, out);
}

Status JoinWorlds(const WorldExtent& left, const WorldExtent& right,
                  const ResolvedJoin& join, JoinAlgorithm /*algorithm*/,
                  WorldExtent* out) {
  if (left.world_begin != right.world_begin ||
      left.row_offsets.size() != right.row_offsets.size()) {
    return Status::InvalidArgument(
        "joined extents cover different world ranges");
  }
  out->world_begin = left.world_begin;
  if (out->data.num_columns() == 0) out->data = ColumnarTable(join.output);
  std::vector<std::size_t> every_column(join.output.num_columns());
  std::iota(every_column.begin(), every_column.end(), std::size_t{0});
  for (std::size_t k = 0; k < left.row_offsets.size(); ++k) {
    const auto [lf, ll] = left.WorldRows(k);
    const auto [rf, rl] = right.WorldRows(k);
    out->row_offsets.push_back(out->data.num_rows());
    JIGSAW_RETURN_IF_ERROR(JoinPartition(left.data, lf, ll, right.data, rf,
                                         rl, join, every_column, &out->data));
  }
  return Status::OK();
}

Result<std::map<std::string, OutputMetrics>> FoldJoinedVGColumns(
    const VGTableFunctionPtr& left, const VGTableFunctionPtr& right,
    const JoinSpec& spec, std::span<const std::string> column_names,
    std::size_t num_worlds, const SeedVector& seeds, const RunConfig& config,
    ThreadPool* pool, WorldCache* cache) {
  // Both schemas (and therefore the joined schema) are world-invariant,
  // so the join and the requested columns resolve up front against the
  // full joined schema — a bad key or column fails before any
  // realization, with identical text on every path, and the first
  // unknown name or non-numeric column in request order reports.
  JIGSAW_ASSIGN_OR_RETURN(
      ResolvedJoin join, ResolveJoin(left->schema(), right->schema(), spec));
  // Certainty: when both keys are certain, every world matches the same
  // pairs, so a requested column whose source is certain too gathers the
  // same values in every world. Such columns are staged once per cell
  // and fold as one base per point; the others are gathered per world.
  const std::size_t num_left = left->schema().num_columns();
  const auto is_certain = [&](std::size_t slot) {
    const bool from_left = slot < num_left;
    const std::span<const std::size_t> declared =
        from_left ? left->CertainColumns() : right->CertainColumns();
    return std::find(declared.begin(), declared.end(),
                     from_left ? slot : slot - num_left) != declared.end();
  };
  const bool keys_certain =
      is_certain(join.left_slot) && is_certain(num_left + join.right_slot);
  // Only the requested columns are ever gathered, under their requested
  // names: the certain ones (request indices `certain`, join.output slots
  // `certain_slots`) once per cell, the others (`per_world_slots`) per
  // world.
  std::vector<std::size_t> per_world_slots, certain_slots, certain;
  std::vector<Column> gathered;
  for (const std::string& name : column_names) {
    JIGSAW_ASSIGN_OR_RETURN(const std::size_t slot, join.output.IndexOf(name));
    const ValueType type = join.output.column(slot).type;
    if (type != ValueType::kDouble && type != ValueType::kInt &&
        type != ValueType::kBool) {
      return Status::ExecutionError("column '" + name + "' is not numeric");
    }
    if (keys_certain && is_certain(slot)) {
      certain.push_back(gathered.size());
      certain_slots.push_back(slot);
    } else {
      per_world_slots.push_back(slot);
    }
    gathered.push_back({name, type});
  }
  // World w draws from seed w: a short vector would read past its end.
  if (num_worlds > seeds.size()) {
    return Status::InvalidArgument(StrFormat(
        "fold over %zu worlds needs one seed per world; the seed vector "
        "holds %zu",
        num_worlds, seeds.size()));
  }

  // One world at a time: both sides realize into world-local tables (or
  // are borrowed from the WorldCache), match, and only the matched
  // tuples' requested columns reach the cell, so neither whole-chunk
  // inputs nor the full joined relation ever exist. Left realizes before
  // right in each world, so a generator failure surfaces in the serial
  // order. With certain keys the cell's first world matches for all of
  // them and stages the certain columns.
  auto fill = [&](std::size_t, std::size_t begin, std::size_t end,
                  WorldExtent* cell) -> Status {
    std::vector<RowPair> pairs;
    std::size_t left_rows = 0, right_rows = 0;
    for (std::size_t w = begin; w < end; ++w) {
      ColumnarTable left_world, right_world;
      const ColumnarTable* lt = &left_world;
      const ColumnarTable* rt = &right_world;
      if (cache != nullptr) {
        JIGSAW_ASSIGN_OR_RETURN(lt,
                                cache->GetOrGenerateColumnar(*left, w, seeds));
        JIGSAW_ASSIGN_OR_RETURN(
            rt, cache->GetOrGenerateColumnar(*right, w, seeds));
      } else {
        JIGSAW_ASSIGN_OR_RETURN(left_world, left->GenerateColumnar(w, seeds));
        JIGSAW_ASSIGN_OR_RETURN(right_world,
                                right->GenerateColumnar(w, seeds));
      }
      if (w == begin || !keys_certain) {
        pairs.clear();
        MatchPairs(lt->column(join.left_slot), 0, lt->num_rows(),
                   rt->column(join.right_slot), 0, rt->num_rows(),
                   join.key_type, &pairs);
        left_rows = lt->num_rows();
        right_rows = rt->num_rows();
      } else if (lt->num_rows() != left_rows || rt->num_rows() != right_rows) {
        // A table with certain columns realizes one row count in every
        // world; the pairs index rows, so a generator that broke that
        // promise must not be read through them.
        return Status::Internal(StrFormat(
            "tables with certain join keys realized %zu x %zu rows in world "
            "%zu but %zu x %zu in world %zu",
            left_rows, right_rows, begin, lt->num_rows(), rt->num_rows(), w));
      }
      if (w == begin) {
        JIGSAW_RETURN_IF_ERROR(
            GatherPairs(*lt, *rt, pairs, certain_slots, &cell->certain));
      }
      cell->row_offsets.push_back(cell->data.num_rows());
      JIGSAW_RETURN_IF_ERROR(
          GatherPairs(*lt, *rt, pairs, per_world_slots, &cell->data));
      // The first world's match count sizes the rest of the chunk, so
      // the cell's columns grow once instead of by doubling.
      if (w == begin) cell->data.Reserve(cell->data.num_rows() * (end - w));
    }
    return Status::OK();
  };
  JIGSAW_ASSIGN_OR_RETURN(
      auto points, FoldWorldCells(Schema(std::move(gathered)), certain, 1,
                                  num_worlds, config, pool, fill));
  return std::move(points[0]);
}

}  // namespace jigsaw::pdb
