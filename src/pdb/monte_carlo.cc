#include "pdb/monte_carlo.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "util/string_util.h"

namespace jigsaw::pdb {

namespace internal {
std::size_t g_fold_staged_budget_override = 0;

Status FoldChunkColumn(const ColumnChunk& col, std::size_t first,
                       std::size_t last, const std::string& name,
                       Estimator* est, std::int64_t copies) {
  if (col.null_count() != 0) {
    for (std::size_t r = first; r < last; ++r) {
      if (col.IsNull(r)) {
        return Status::ExecutionError("column '" + name + "' is not numeric");
      }
    }
  }
  // Int and bool values widen through one bounded block, refilled in
  // row order, so a whole-cell fold never allocates a cell-sized copy.
  // Repeated rows widen in one block: each copy repeats all of them.
  auto add_widened = [&](auto widen) {
    constexpr std::size_t kBlock = 4096;
    std::vector<double> block(
        copies == 1 ? std::min(kBlock, last - first) : last - first);
    for (std::size_t r = first; r < last; r += block.size()) {
      const std::size_t n = std::min(block.size(), last - r);
      for (std::size_t i = 0; i < n; ++i) block[i] = widen(r + i);
      est->AddRepeated(std::span<const double>(block.data(), n), copies);
    }
  };
  switch (col.type()) {
    case ValueType::kDouble:
      est->AddRepeated(col.Doubles().subspan(first, last - first), copies);
      return Status::OK();
    case ValueType::kInt:
      add_widened(
          [&](std::size_t r) { return static_cast<double>(col.Ints()[r]); });
      return Status::OK();
    case ValueType::kBool:
      add_widened(
          [&](std::size_t r) { return col.Bools()[r] != 0 ? 1.0 : 0.0; });
      return Status::OK();
    case ValueType::kString:
    case ValueType::kNull:
      return Status::ExecutionError("column '" + name + "' is not numeric");
  }
  return Status::OK();
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

/// Folds column `s` of one cell into *est. A NULL-free column folds in
/// one pass; otherwise world by world, so that `*failed_world` names the
/// world holding the first NULL, the one a world-major loop meets first.
Status FoldCellColumn(const WorldExtent& cell, std::size_t s,
                      const std::string& name, Estimator* est,
                      std::size_t* failed_world) {
  const ColumnChunk& col = cell.data.column(s);
  *failed_world = cell.world_begin;
  if (col.null_count() == 0) {
    return internal::FoldChunkColumn(col, 0, cell.data.num_rows(), name, est);
  }
  for (std::size_t k = 0; k < cell.row_offsets.size(); ++k) {
    const auto [first, last] = cell.WorldRows(k);
    *failed_world = cell.world_begin + k;
    JIGSAW_RETURN_IF_ERROR(
        internal::FoldChunkColumn(col, first, last, name, est));
  }
  return Status::OK();
}

}  // namespace

Status NameSweepPoint(std::size_t point, Status status) {
  return Status(status.code(),
                StrFormat("sweep point %zu: %s", point,
                          status.message().c_str()));
}

Result<std::vector<std::map<std::string, OutputMetrics>>> FoldWorldCells(
    const Schema& columns, std::span<const std::size_t> certain,
    std::size_t num_points, std::size_t num_worlds, const RunConfig& config,
    ThreadPool* pool, const WorldCellFn& fill) {
  // A one-point fold IS the standalone statement: its error must stay
  // byte-identical, so the coordinate prefix only appears when there is
  // more than one point to disambiguate.
  auto name_point = [num_points](std::size_t point, Status status) {
    return num_points > 1 ? NameSweepPoint(point, std::move(status))
                          : status;
  };
  const std::size_t width = columns.num_columns();
  // Output column s is column source[s] of each cell's `data` or, when
  // certain, of its `certain` table.
  std::vector<bool> is_certain(width, false);
  for (std::size_t s : certain) is_certain[s] = true;
  std::vector<std::size_t> source(width);
  std::vector<Column> per_world_columns, certain_columns;
  for (std::size_t s = 0; s < width; ++s) {
    auto& side = is_certain[s] ? certain_columns : per_world_columns;
    source[s] = side.size();
    side.push_back(columns.column(s));
  }
  const Schema per_world_schema(std::move(per_world_columns));
  const Schema certain_schema(std::move(certain_columns));
  const std::size_t batch = std::max<std::size_t>(1, config.batch_size);
  const std::size_t num_chunks = (num_worlds + batch - 1) / batch;
  struct Cell {
    WorldExtent extent;
    Status status = Status::OK();
  };
  // Column s of a point folds as its own task, the only writer of its
  // ColumnFold; a failed fold records the world it stopped at, so the
  // scan below can pick the world-major loop's first failure whatever
  // the schedule.
  struct ColumnFold {
    OutputMetrics metrics;
    Status status = Status::OK();
    std::size_t failed_world = 0;
  };

  // Points are processed in windows so the staging footprint stays
  // bounded no matter how many points the sweep has: ~128 MB of cells in
  // flight, each point costing its cells' fixed parts plus one row offset
  // and `width` values per world (exact for a row program; a join is a
  // single point, whose window is always itself). Per-point results are
  // independent, windows run in point order and the first failing window
  // returns before any later one evaluates, so windowing changes neither
  // the merged values nor the surfaced error.
  constexpr std::size_t kStagedBudget = std::size_t{1} << 27;  // bytes
  const std::size_t budget = internal::g_fold_staged_budget_override != 0
                                 ? internal::g_fold_staged_budget_override
                                 : kStagedBudget;
  const std::size_t cell_bytes =
      sizeof(Cell) + width * (sizeof(Column) + sizeof(ColumnChunk));
  const std::size_t per_point =
      num_chunks * cell_bytes + num_worlds * (width + 1) * sizeof(double);
  const std::size_t window =
      std::max<std::size_t>(1, budget / std::max<std::size_t>(1, per_point));

  std::vector<std::map<std::string, OutputMetrics>> out;
  out.reserve(num_points);
  // cells[(point - first) * num_chunks + chunk] and
  // folds[(point - first) * width + s] for the window's points.
  std::vector<Cell> cells;
  std::vector<ColumnFold> folds;
  for (std::size_t first = 0; first < num_points; first += window) {
    const std::size_t last = std::min(first + window, num_points);
    const std::size_t num_cells = (last - first) * num_chunks;
    cells.clear();
    cells.resize(num_cells);
    auto run_cell = [&](std::size_t c) {
      Cell& cell = cells[c];
      const std::size_t begin = (c % num_chunks) * batch;
      cell.extent.world_begin = begin;
      cell.extent.data = ColumnarTable(per_world_schema);
      cell.extent.certain = ColumnarTable(certain_schema);
      cell.status = fill(first + c / num_chunks, begin,
                         std::min(begin + batch, num_worlds), &cell.extent);
    };
    if (pool != nullptr && num_cells >= 2) {
      pool->ParallelFor(num_cells, run_cell);
    } else {
      for (std::size_t c = 0; c < num_cells; ++c) {
        run_cell(c);
        if (!cells[c].status.ok()) break;
      }
    }
    // A cell stops at (and reports) its lowest failing world, and every
    // earlier world of the same point lives in an earlier cell, so the
    // first failure in (point, chunk) order is where the serial loop
    // stops, regardless of schedule. Its extent holds the worlds before
    // the failure, so the points up to it fold over their cells up to it:
    // a NULL in one of those worlds is met first.
    std::size_t failed = num_cells;
    for (std::size_t c = 0; c < num_cells && failed == num_cells; ++c) {
      if (!cells[c].status.ok()) failed = c;
    }
    const std::size_t num_fold_points =
        failed == num_cells ? last - first : failed / num_chunks + 1;

    const std::size_t num_folds = num_fold_points * width;
    folds.clear();
    folds.resize(num_folds);
    auto fold_column = [&](std::size_t f) {
      const std::size_t begin = f / width * num_chunks;
      const std::span<const Cell> point_cells(
          cells.data() + begin,
          std::min(begin + num_chunks, failed + 1) - begin);
      const std::size_t s = f % width;
      const std::string& name = columns.column(s).name;
      Estimator est(config.keep_samples, config.histogram_bins);
      Status st = Status::OK();
      if (is_certain[s]) {
        // Every completed world of the point holds the rows of the first
        // cell that completed one: they fold once per world, and a NULL
        // among them fails at that cell's first world.
        const WorldExtent* base = nullptr;
        std::int64_t worlds = 0;
        for (const Cell& cell : point_cells) {
          if (cell.extent.row_offsets.empty()) continue;
          if (base == nullptr) base = &cell.extent;
          worlds += static_cast<std::int64_t>(cell.extent.row_offsets.size());
        }
        if (base != nullptr) {
          folds[f].failed_world = base->world_begin;
          st = internal::FoldChunkColumn(base->certain.column(source[s]), 0,
                                         base->certain.num_rows(), name, &est,
                                         worlds);
        }
      } else if (std::all_of(point_cells.begin(), point_cells.end(),
                             [&](const Cell& cell) {
                               const ColumnChunk& col =
                                   cell.extent.data.column(source[s]);
                               return col.type() == ValueType::kDouble &&
                                      col.null_count() == 0;
                             })) {
        // A NULL-free double column finalizes where its cells staged it:
        // the estimator borrows each cell's rows. The cells live until
        // the window's folds end, and no cell is written once their
        // ParallelFor has returned. (A failed cell's chunk may hold
        // values past its committed rows.)
        for (const Cell& cell : point_cells) {
          est.AddBorrowed(cell.extent.data.column(source[s]).Doubles().first(
              cell.extent.data.num_rows()));
        }
      } else {
        std::size_t rows = 0;
        for (const Cell& cell : point_cells) {
          rows += cell.extent.data.num_rows();
        }
        est.Reserve(rows);
        for (const Cell& cell : point_cells) {
          st = FoldCellColumn(cell.extent, source[s], name, &est,
                              &folds[f].failed_world);
          if (!st.ok()) break;
        }
      }
      if (!st.ok()) {
        folds[f].status = std::move(st);
        return;
      }
      folds[f].metrics = std::move(est).Finalize();
    };
    if (pool != nullptr && num_folds >= 2) {
      pool->ParallelFor(num_folds, fold_column);
    } else {
      for (std::size_t f = 0; f < num_folds; ++f) fold_column(f);
    }
    for (std::size_t p = 0; p < num_fold_points; ++p) {
      const std::span<ColumnFold> point_folds(folds.data() + p * width,
                                              width);
      // Strict < keeps the lowest column among failures in one world.
      ColumnFold* failure = nullptr;
      for (ColumnFold& fold : point_folds) {
        if (!fold.status.ok() &&
            (failure == nullptr || fold.failed_world < failure->failed_world)) {
          failure = &fold;
        }
      }
      if (failure != nullptr) {
        return name_point(first + p, std::move(failure->status));
      }
      if (failed != num_cells && failed / num_chunks == p) {
        return name_point(first + p, std::move(cells[failed].status));
      }
      std::map<std::string, OutputMetrics> point_columns;
      for (std::size_t s = 0; s < width; ++s) {
        point_columns.emplace(columns.column(s).name,
                              std::move(point_folds[s].metrics));
      }
      out.push_back(std::move(point_columns));
    }
  }
  return out;
}

Result<std::vector<std::map<std::string, OutputMetrics>>>
FoldPointWorldSpans(std::span<const std::string> column_names,
                    std::size_t num_points, std::size_t num_worlds,
                    const RunConfig& config, ThreadPool* pool,
                    const PointWorldSpanFn& run_span) {
  if (num_worlds == 0) {
    return std::vector<std::map<std::string, OutputMetrics>>(num_points);
  }
  std::vector<Column> columns;
  for (const std::string& name : column_names) {
    columns.push_back({name, ValueType::kDouble});
  }
  // World `begin + i` is row i of the cell: run_span writes each output
  // column straight into the cell's column span.
  auto fill = [&](std::size_t point, std::size_t begin, std::size_t end,
                  WorldExtent* cell) -> Status {
    const std::size_t count = end - begin;
    std::vector<double*> spans;
    spans.reserve(column_names.size());
    for (std::size_t s = 0; s < column_names.size(); ++s) {
      spans.push_back(cell->data.column(s).AppendDoubleSpan(count).data());
    }
    JIGSAW_RETURN_IF_ERROR(run_span(point, begin, count, spans));
    cell->row_offsets.resize(count);
    std::iota(cell->row_offsets.begin(), cell->row_offsets.end(),
              std::size_t{0});
    return cell->data.CommitAppendedRows();
  };
  return FoldWorldCells(Schema(std::move(columns)), {}, num_points,
                        num_worlds, config, pool, fill);
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

}  // namespace jigsaw::pdb
