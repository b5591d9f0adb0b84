#include "pdb/monte_carlo.h"

#include <algorithm>
#include <vector>

#include "util/string_util.h"

namespace jigsaw::pdb {

namespace internal {
std::size_t g_fold_staged_budget_override = 0;

Status FoldChunkColumn(const ColumnChunk& col, std::size_t first,
                       std::size_t last, const std::string& name,
                       Estimator* est) {
  if (col.null_count() != 0) {
    for (std::size_t r = first; r < last; ++r) {
      if (col.IsNull(r)) {
        return Status::ExecutionError("column '" + name + "' is not numeric");
      }
    }
  }
  switch (col.type()) {
    case ValueType::kDouble:
      est->AddSpan(col.Doubles().subspan(first, last - first));
      return Status::OK();
    case ValueType::kInt: {
      std::vector<double> widened;
      widened.reserve(last - first);
      for (std::size_t r = first; r < last; ++r) {
        widened.push_back(static_cast<double>(col.Ints()[r]));
      }
      est->AddSpan(widened);
      return Status::OK();
    }
    case ValueType::kBool: {
      std::vector<double> widened;
      widened.reserve(last - first);
      for (std::size_t r = first; r < last; ++r) {
        widened.push_back(col.Bools()[r] != 0 ? 1.0 : 0.0);
      }
      est->AddSpan(widened);
      return Status::OK();
    }
    case ValueType::kString:
    case ValueType::kNull:
      return Status::ExecutionError("column '" + name + "' is not numeric");
  }
  return Status::OK();
}

Result<std::map<std::string, OutputMetrics>> FoldColumnsByWorld(
    std::span<const WorldSlice> worlds, std::span<const std::size_t> slots,
    std::span<const std::string> names, const RunConfig& config,
    ThreadPool* pool) {
  // Column s is the only writer of columns[s]; a failed column records
  // the world its fold stopped at, so the scan below can pick the
  // world-major loop's first failure whatever the schedule.
  struct ColumnFold {
    OutputMetrics metrics;
    Status status = Status::OK();
    std::size_t failed_world = 0;
  };
  std::vector<ColumnFold> columns(slots.size());
  std::size_t num_tuples = 0;
  for (const WorldSlice& world : worlds) {
    num_tuples += world.last - world.first;
  }
  auto fold_column = [&](std::size_t s) {
    Estimator est(config.keep_samples, config.histogram_bins);
    est.Reserve(num_tuples);
    for (std::size_t w = 0; w < worlds.size(); ++w) {
      const WorldSlice& world = worlds[w];
      Status st = FoldChunkColumn(world.table->column(slots[s]), world.first,
                                  world.last, names[s], &est);
      if (!st.ok()) {
        columns[s].status = std::move(st);
        columns[s].failed_world = w;
        return;
      }
    }
    columns[s].metrics = std::move(est).Finalize();
  };
  if (pool != nullptr && slots.size() >= 2) {
    pool->ParallelFor(slots.size(), fold_column);
  } else {
    for (std::size_t s = 0; s < slots.size(); ++s) fold_column(s);
  }

  // Strict < keeps the lowest column among failures in the same world.
  ColumnFold* first_failure = nullptr;
  for (ColumnFold& c : columns) {
    if (!c.status.ok() && (first_failure == nullptr ||
                           c.failed_world < first_failure->failed_world)) {
      first_failure = &c;
    }
  }
  if (first_failure != nullptr) return std::move(first_failure->status);
  std::map<std::string, OutputMetrics> out;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    out.emplace(names[s], std::move(columns[s].metrics));
  }
  return out;
}

Result<std::vector<std::size_t>> ResolveFoldColumns(
    const Schema& schema, std::span<const std::string> column_names) {
  std::vector<std::size_t> slots;
  slots.reserve(column_names.size());
  for (const auto& name : column_names) {
    JIGSAW_ASSIGN_OR_RETURN(std::size_t idx, schema.IndexOf(name));
    const ValueType t = schema.column(idx).type;
    if (t != ValueType::kDouble && t != ValueType::kInt &&
        t != ValueType::kBool) {
      return Status::ExecutionError("column '" + name + "' is not numeric");
    }
    slots.push_back(idx);
  }
  return slots;
}

Result<std::map<std::string, OutputMetrics>> FoldRealizedWorlds(
    std::span<const std::size_t> slots,
    std::span<const std::string> column_names, std::size_t num_worlds,
    const SeedVector& seeds, const RunConfig& config, ThreadPool* pool,
    const RealizeChunkFn& realize) {
  // World w draws from seed w: a short vector would read past its end
  // (v1) or silently run on a vector sized for fewer worlds (v2).
  if (num_worlds > seeds.size()) {
    return Status::InvalidArgument(StrFormat(
        "fold over %zu worlds needs one seed per world; the seed vector "
        "holds %zu",
        num_worlds, seeds.size()));
  }

  const std::size_t batch = std::max<std::size_t>(1, config.batch_size);
  const std::size_t num_chunks =
      num_worlds == 0 ? 0 : (num_worlds + batch - 1) / batch;
  // Shard-ownership rule: cell `chunk` is the only writer of its chunk,
  // so parallel realization needs no synchronization.
  struct Cell {
    RealizedChunk chunk;
    Status status = Status::OK();
  };
  std::vector<Cell> cells(num_chunks);
  auto run_cell = [&](std::size_t chunk) {
    Cell& cell = cells[chunk];
    const std::size_t begin = chunk * batch;
    cell.chunk.extent.world_begin = begin;
    cell.status =
        realize(begin, std::min(begin + batch, num_worlds), &cell.chunk);
  };
  if (pool != nullptr && num_chunks >= 2) {
    pool->ParallelFor(num_chunks, run_cell);
  } else {
    for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
      run_cell(chunk);
      if (!cells[chunk].status.ok()) break;
    }
  }
  // Chunk-order scan surfaces the lowest failing world's error, same as
  // the serial loop, regardless of pool schedule.
  for (Cell& cell : cells) {
    if (!cell.status.ok()) return std::move(cell.status);
  }
  std::vector<WorldSlice> worlds;
  worlds.reserve(num_worlds);
  for (const Cell& cell : cells) {
    for (const ColumnarTable* t : cell.chunk.cached) {
      worlds.push_back({t, 0, t->num_rows()});
    }
    const WorldExtent& extent = cell.chunk.extent;
    for (std::size_t k = 0; k < extent.row_offsets.size(); ++k) {
      const auto [first, last] = extent.WorldRows(k);
      worlds.push_back({&extent.data, first, last});
    }
  }
  return FoldColumnsByWorld(worlds, slots, column_names, config, pool);
}
}  // namespace internal

namespace {

Status CheckOneRow(const Table& t) {
  if (t.num_rows() != 1) {
    return Status::ExecutionError(
        "Monte Carlo world query must produce exactly one row, got " +
        std::to_string(t.num_rows()));
  }
  return Status::OK();
}

}  // namespace

Status NameSweepPoint(std::size_t point, Status status) {
  return Status(status.code(),
                StrFormat("sweep point %zu: %s", point,
                          status.message().c_str()));
}

Result<std::vector<std::map<std::string, OutputMetrics>>>
FoldPointWorldSpans(std::span<const std::string> column_names,
                    std::size_t num_points, std::size_t num_worlds,
                    const RunConfig& config, ThreadPool* pool,
                    const PointWorldSpanFn& run_span) {
  if (num_worlds == 0) {
    return std::vector<std::map<std::string, OutputMetrics>>(num_points);
  }
  // A one-point sweep IS the standalone statement: its error must stay
  // byte-identical, so the coordinate prefix only appears when there is
  // more than one point to disambiguate.
  auto name_point = [num_points](std::size_t point, Status status) {
    return num_points > 1 ? NameSweepPoint(point, std::move(status))
                          : status;
  };
  const std::size_t width = column_names.size();
  const std::size_t batch = std::max<std::size_t>(1, config.batch_size);
  const std::size_t num_chunks = (num_worlds + batch - 1) / batch;

  // Points are processed in windows so the staging footprint stays
  // bounded no matter how many points the sweep has: ~128 MB of staged
  // doubles in flight, never less than one point (a one-point window
  // peaks exactly like the standalone statement). Per-point results are
  // independent, windows run in point order and the first failing window
  // returns before any later one evaluates, so windowing changes neither
  // the merged values nor the surfaced error.
  constexpr std::size_t kStagedBudget = std::size_t{1} << 24;  // doubles
  const std::size_t budget = internal::g_fold_staged_budget_override != 0
                                 ? internal::g_fold_staged_budget_override
                                 : kStagedBudget;
  const std::size_t per_point = num_worlds * std::max<std::size_t>(1, width);
  const std::size_t window = std::max<std::size_t>(1, budget / per_point);

  std::vector<std::map<std::string, OutputMetrics>> out;
  out.reserve(num_points);
  // stage[(point - first) * num_chunks + chunk][slot] holds that cell's
  // samples of output column `slot` in world order.
  std::vector<std::vector<std::vector<double>>> stage;
  std::vector<Status> cell_status;
  for (std::size_t first = 0; first < num_points; first += window) {
    const std::size_t last = std::min(first + window, num_points);
    const std::size_t num_cells = (last - first) * num_chunks;
    stage.assign(num_cells, std::vector<std::vector<double>>(width));
    cell_status.assign(num_cells, Status::OK());

    auto run_cell = [&](std::size_t cell) {
      const std::size_t begin = (cell % num_chunks) * batch;
      const std::size_t count = std::min(batch, num_worlds - begin);
      std::vector<double*> columns(width);
      for (std::size_t slot = 0; slot < width; ++slot) {
        stage[cell][slot].resize(count);
        columns[slot] = stage[cell][slot].data();
      }
      cell_status[cell] =
          run_span(first + cell / num_chunks, begin, count, columns);
    };
    if (pool != nullptr && num_cells >= 2) {
      pool->ParallelFor(num_cells, run_cell);
    } else {
      for (std::size_t cell = 0; cell < num_cells; ++cell) {
        run_cell(cell);
        if (!cell_status[cell].ok()) break;
      }
    }

    // A cell stops at (and reports) its lowest failing world, and every
    // earlier world of the same point lives in an earlier cell, so the
    // first failure in (point, chunk) order is the serial loop's error
    // regardless of schedule.
    for (std::size_t cell = 0; cell < num_cells; ++cell) {
      if (!cell_status[cell].ok()) {
        return name_point(first + cell / num_chunks,
                          std::move(cell_status[cell]));
      }
    }
    for (std::size_t point = first; point < last; ++point) {
      std::vector<Estimator> estimators(
          width, Estimator(config.keep_samples, config.histogram_bins));
      for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
        const std::size_t cell = (point - first) * num_chunks + chunk;
        for (std::size_t slot = 0; slot < width; ++slot) {
          estimators[slot].AddSpan(stage[cell][slot]);
        }
        // Release each cell as it folds: the estimators accumulate their
        // own copy, so keeping the staging around would double the peak.
        stage[cell] = {};
      }
      std::map<std::string, OutputMetrics> columns;
      for (std::size_t slot = 0; slot < width; ++slot) {
        columns.emplace(column_names[slot], estimators[slot].Finalize());
      }
      out.push_back(std::move(columns));
    }
  }
  return out;
}

Result<std::map<std::string, OutputMetrics>> FoldWorlds(
    std::size_t num_worlds, const RunConfig& config, ThreadPool* pool,
    const WorldFn& run_world) {
  if (num_worlds == 0) return std::map<std::string, OutputMetrics>();
  // World 0 locks the column layout; every later world is validated
  // against it, so a type that flips across worlds fails loudly instead
  // of silently skewing one column.
  JIGSAW_ASSIGN_OR_RETURN(const Table first, run_world(0));
  JIGSAW_RETURN_IF_ERROR(CheckOneRow(first));
  const std::size_t num_columns = first.schema().num_columns();
  std::vector<bool> numeric;
  std::vector<std::string> names;
  for (std::size_t c = 0; c < num_columns; ++c) {
    numeric.push_back(first.row(0)[c].IsNumeric());
    if (numeric.back()) names.push_back(first.schema().column(c).name);
  }

  // Writes world `world`'s numeric values, in slot order, to lane i.
  auto fold_row = [&](const Table& t, std::size_t world, std::size_t i,
                      std::span<double* const> columns) -> Status {
    JIGSAW_RETURN_IF_ERROR(CheckOneRow(t));
    if (t.schema().num_columns() != num_columns) {
      return Status::ExecutionError(StrFormat(
          "world %zu produced %zu column(s); world 0 produced %zu", world,
          t.schema().num_columns(), num_columns));
    }
    const Row& row = t.row(0);
    std::size_t slot = 0;
    for (std::size_t c = 0; c < num_columns; ++c) {
      const bool is_numeric = row[c].IsNumeric();
      if (is_numeric != numeric[c]) {
        return Status::ExecutionError(StrFormat(
            "column '%s' is %s in world %zu but %s in world 0; a column's "
            "type must not depend on the sampled world",
            t.schema().column(c).name.c_str(),
            is_numeric ? "numeric" : "non-numeric", world,
            numeric[c] ? "numeric" : "non-numeric"));
      }
      if (is_numeric) columns[slot++][i] = row[c].AsDouble();
    }
    return Status::OK();
  };
  auto run_span = [&](std::size_t, std::size_t begin, std::size_t count,
                      std::span<double* const> columns) -> Status {
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t world = begin + i;
      if (world == 0) {
        JIGSAW_RETURN_IF_ERROR(fold_row(first, 0, i, columns));
        continue;
      }
      JIGSAW_ASSIGN_OR_RETURN(const Table t, run_world(world));
      JIGSAW_RETURN_IF_ERROR(fold_row(t, world, i, columns));
    }
    return Status::OK();
  };
  JIGSAW_ASSIGN_OR_RETURN(
      auto points,
      FoldPointWorldSpans(names, 1, num_worlds, config, pool, run_span));
  return std::move(points[0]);
}

Result<std::map<std::string, OutputMetrics>> FoldVGColumns(
    const VGTableFunction& fn, std::span<const std::string> column_names,
    std::size_t num_worlds, const SeedVector& seeds, const RunConfig& config,
    ThreadPool* pool, WorldCache* cache) {
  JIGSAW_ASSIGN_OR_RETURN(std::vector<std::size_t> slots,
                          internal::ResolveFoldColumns(fn.schema(),
                                                       column_names));
  auto realize = [&](std::size_t begin, std::size_t end,
                     internal::RealizedChunk* chunk) -> Status {
    for (std::size_t w = begin; w < end; ++w) {
      if (cache != nullptr) {
        JIGSAW_ASSIGN_OR_RETURN(const ColumnarTable* t,
                                cache->GetOrGenerateColumnar(fn, w, seeds));
        chunk->cached.push_back(t);
      } else {
        JIGSAW_RETURN_IF_ERROR(chunk->extent.AppendWorld(fn, w, seeds));
      }
    }
    return Status::OK();
  };
  return internal::FoldRealizedWorlds(slots, column_names, num_worlds, seeds,
                                      config, pool, realize);
}

}  // namespace jigsaw::pdb
