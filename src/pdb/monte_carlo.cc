#include "pdb/monte_carlo.h"

#include <algorithm>
#include <optional>
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

/// Output layout locked on world 0: which schema columns exist, which of
/// them are numeric, and the result name of each numeric slot.
struct WorldLayout {
  std::size_t num_columns = 0;
  std::vector<bool> numeric;        ///< per schema column
  std::vector<std::string> names;   ///< numeric columns only, in order
};

Status CheckOneRow(const Table& t) {
  if (t.num_rows() != 1) {
    return Status::ExecutionError(
        "Monte Carlo world query must produce exactly one row, got " +
        std::to_string(t.num_rows()));
  }
  return Status::OK();
}

/// Validates one world's row against the locked layout and appends its
/// numeric values (in slot order) to `buffers`.
Status FoldRow(const Table& t, std::size_t world, const WorldLayout& layout,
               std::vector<std::vector<double>>& buffers) {
  JIGSAW_RETURN_IF_ERROR(CheckOneRow(t));
  if (t.schema().num_columns() != layout.num_columns) {
    return Status::ExecutionError(StrFormat(
        "world %zu produced %zu column(s); world 0 produced %zu", world,
        t.schema().num_columns(), layout.num_columns));
  }
  const Row& row = t.row(0);
  std::size_t slot = 0;
  for (std::size_t c = 0; c < row.size(); ++c) {
    const bool numeric = row[c].IsNumeric();
    if (numeric != layout.numeric[c]) {
      return Status::ExecutionError(StrFormat(
          "column '%s' is %s in world %zu but %s in world 0; a column's "
          "type must not depend on the sampled world",
          t.schema().column(c).name.c_str(),
          numeric ? "numeric" : "non-numeric", world,
          layout.numeric[c] ? "numeric" : "non-numeric"));
    }
    if (numeric) buffers[slot++].push_back(row[c].AsDouble());
  }
  return Status::OK();
}

/// One sweep point of the chunk grid: its numeric column names, or the
/// error that prevented locking its layout (a failed world-0 prepass). A
/// point with a non-OK status schedules no chunk work; its error
/// surfaces at the point's slot in the (point, chunk) scan.
struct GridPoint {
  Status status = Status::OK();
  std::vector<std::string> names;
};

/// Prefixes sweep errors with the failing point so two-axis failures name
/// both coordinates; single-axis folds pass name_points=false and keep
/// the raw message.
Status NamePoint(bool name_points, std::size_t point, Status status) {
  if (!name_points) return status;
  return NameSweepPoint(point, std::move(status));
}

/// Chunk-grid scaffold shared by every possible-worlds fold, one- and
/// two-axis: partitions each point's [0, num_worlds) into batch_size
/// chunks and fills every (point, chunk) cell's per-column staging
/// buffers via `fill_cell` — all cells fan out on `pool` at once when it
/// is present, while a serial run stops at the first failing cell in
/// (point, chunk) order. Cell statuses are then scanned in (point, chunk)
/// order — a fill stops at (and reports) its lowest failing world, and
/// every earlier world of the same point lives in an earlier-or-equal
/// chunk, so the surfaced error matches the serial point-by-point,
/// world-at-a-time loop regardless of schedule. Finally each point's
/// buffers merge through Estimator::AddSpan in chunk order, which is
/// bit-identical to a world-at-a-time fold for any chunk partition — and
/// per point bit-identical to a standalone single-point fold, since a
/// point's staging never depends on its neighbours. Points stream
/// through bounded-memory windows rather than staging the whole grid at
/// once.
Result<std::vector<std::map<std::string, OutputMetrics>>> FoldChunkGrid(
    std::vector<GridPoint>& points, std::size_t num_worlds,
    const RunConfig& config, ThreadPool* pool, bool name_points,
    const std::function<Status(std::size_t point, std::size_t begin,
                               std::size_t end,
                               std::vector<std::vector<double>>& buffers)>&
        fill_cell) {
  const std::size_t num_points = points.size();
  const std::size_t batch = std::max<std::size_t>(1, config.batch_size);
  const std::size_t num_chunks = (num_worlds + batch - 1) / batch;

  // Points are processed in windows so the staging footprint stays
  // bounded no matter how many points the sweep has: ~128 MB of staged
  // doubles in flight, never less than one point (a one-point window
  // peaks exactly like the standalone statement). Per-point results are
  // independent, windows run in point order and the first failing window
  // returns before any later one evaluates, so windowing changes neither
  // the merged values nor the surfaced error.
  std::size_t width_max = 0;
  for (const auto& p : points) {
    width_max = std::max(width_max, p.names.size());
  }
  constexpr std::size_t kStagedBudget = std::size_t{1} << 24;  // doubles
  const std::size_t budget = internal::g_fold_staged_budget_override != 0
                                 ? internal::g_fold_staged_budget_override
                                 : kStagedBudget;
  const std::size_t per_point =
      std::max<std::size_t>(1, num_worlds * std::max<std::size_t>(
                                                1, width_max));
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
    stage.assign(num_cells, {});
    for (std::size_t cell = 0; cell < num_cells; ++cell) {
      stage[cell].resize(points[first + cell / num_chunks].names.size());
    }
    cell_status.assign(num_cells, Status::OK());

    auto run_cell = [&](std::size_t cell) {
      const std::size_t point = first + cell / num_chunks;
      if (!points[point].status.ok()) return;  // layout never locked
      const std::size_t chunk = cell % num_chunks;
      const std::size_t begin = chunk * batch;
      const std::size_t end = std::min(begin + batch, num_worlds);
      cell_status[cell] = fill_cell(point, begin, end, stage[cell]);
    };

    if (pool != nullptr && num_cells >= 2) {
      pool->ParallelFor(num_cells, run_cell);
    } else {
      for (std::size_t cell = 0; cell < num_cells; ++cell) {
        if (!points[first + cell / num_chunks].status.ok()) break;
        run_cell(cell);
        if (!cell_status[cell].ok()) break;
      }
    }

    for (std::size_t point = first; point < last; ++point) {
      if (!points[point].status.ok()) {
        return NamePoint(name_points, point,
                         std::move(points[point].status));
      }
      for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
        Status& s = cell_status[(point - first) * num_chunks + chunk];
        if (!s.ok()) return NamePoint(name_points, point, std::move(s));
      }
    }
    for (std::size_t point = first; point < last; ++point) {
      const std::size_t width = points[point].names.size();
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
        columns.emplace(points[point].names[slot],
                        estimators[slot].Finalize());
      }
      out.push_back(std::move(columns));
    }
  }
  return out;
}

/// Boxed-plan fold over the cell grid. World 0 of every point runs up
/// front (fanned out on the pool when present) to lock that point's
/// layout; chunk 0 of each point then reuses the already-materialized
/// row so the chunk partition covers [0, num_worlds) exactly.
Result<std::vector<std::map<std::string, OutputMetrics>>> FoldPointWorldsImpl(
    std::size_t num_points, std::size_t num_worlds, const RunConfig& config,
    ThreadPool* pool, const PointWorldFn& run_world, bool name_points) {
  if (num_worlds == 0) {
    return std::vector<std::map<std::string, OutputMetrics>>(num_points);
  }

  struct PointState {
    WorldLayout layout;
    std::optional<Table> first;  // world 0's materialized row
  };
  std::vector<GridPoint> points(num_points);
  std::vector<PointState> states(num_points);
  auto lock_point = [&](std::size_t point) {
    // World 0 locks this point's column layout; every later world is
    // validated against it, so a type that flips across worlds (or
    // points) fails loudly instead of silently skewing one column.
    auto first = run_world(point, 0);
    if (!first.ok()) {
      points[point].status = first.status();
      return;
    }
    if (Status s = CheckOneRow(first.value()); !s.ok()) {
      points[point].status = std::move(s);
      return;
    }
    PointState& st = states[point];
    st.first = std::move(first).value();
    st.layout.num_columns = st.first->schema().num_columns();
    const Row& row = st.first->row(0);
    for (std::size_t c = 0; c < st.layout.num_columns; ++c) {
      const bool numeric = row[c].IsNumeric();
      st.layout.numeric.push_back(numeric);
      if (numeric) {
        st.layout.names.push_back(st.first->schema().column(c).name);
      }
    }
    points[point].names = st.layout.names;
  };
  // The prepasses touch independent per-point slots and the status scan
  // in FoldChunkGrid picks the surfaced error in point order regardless
  // of schedule, so they fan out too. The serial run stops at the first
  // failure like the point-by-point loop it mirrors — the surfaced error
  // can only live at an earlier-or-equal point, and the scan returns it
  // before any never-locked point would fold.
  if (pool != nullptr && num_points >= 2) {
    pool->ParallelFor(num_points, lock_point);
  } else {
    for (std::size_t point = 0; point < num_points; ++point) {
      lock_point(point);
      if (!points[point].status.ok()) break;
    }
  }

  auto fill_cell = [&](std::size_t point, std::size_t begin, std::size_t end,
                       std::vector<std::vector<double>>& buffers) {
    const PointState& st = states[point];
    for (auto& b : buffers) b.reserve(end - begin);
    if (begin == 0) {
      JIGSAW_RETURN_IF_ERROR(FoldRow(*st.first, 0, st.layout, buffers));
    }
    for (std::size_t world = std::max<std::size_t>(begin, 1); world < end;
         ++world) {
      auto t = run_world(point, world);
      JIGSAW_RETURN_IF_ERROR(
          t.ok() ? FoldRow(t.value(), world, st.layout, buffers)
                 : t.status());
    }
    return Status::OK();
  };
  return FoldChunkGrid(points, num_worlds, config, pool, name_points,
                       fill_cell);
}

/// Span fold over the cell grid: the layout is statically known and
/// all-numeric, so there is no world-0 prepass.
Result<std::vector<std::map<std::string, OutputMetrics>>>
FoldPointWorldSpansImpl(std::span<const std::string> column_names,
                        std::size_t num_points, std::size_t num_worlds,
                        const RunConfig& config, ThreadPool* pool,
                        const PointWorldSpanFn& run_span, bool name_points) {
  if (num_worlds == 0) {
    return std::vector<std::map<std::string, OutputMetrics>>(num_points);
  }
  std::vector<GridPoint> points(num_points);
  for (auto& p : points) {
    p.names.assign(column_names.begin(), column_names.end());
  }
  auto fill_cell = [&](std::size_t point, std::size_t begin, std::size_t end,
                       std::vector<std::vector<double>>& buffers) {
    const std::size_t count = end - begin;
    std::vector<double*> columns(buffers.size());
    for (std::size_t slot = 0; slot < buffers.size(); ++slot) {
      buffers[slot].resize(count);
      columns[slot] = buffers[slot].data();
    }
    return run_span(point, begin, count, columns);
  };
  return FoldChunkGrid(points, num_worlds, config, pool, name_points,
                       fill_cell);
}

}  // namespace

Status NameSweepPoint(std::size_t point, Status status) {
  return Status(status.code(),
                StrFormat("sweep point %zu: %s", point,
                          status.message().c_str()));
}

Result<std::map<std::string, OutputMetrics>> FoldWorlds(
    std::size_t num_worlds, const RunConfig& config, ThreadPool* pool,
    const WorldFn& run_world) {
  // The single-point case of the grid fold; errors keep their raw
  // (unnamed) messages.
  JIGSAW_ASSIGN_OR_RETURN(
      auto points,
      FoldPointWorldsImpl(
          1, num_worlds, config, pool,
          [&](std::size_t, std::size_t world) { return run_world(world); },
          /*name_points=*/false));
  return std::move(points[0]);
}

Result<std::map<std::string, OutputMetrics>> FoldWorldSpans(
    std::span<const std::string> column_names, std::size_t num_worlds,
    const RunConfig& config, ThreadPool* pool, const WorldSpanFn& run_span) {
  JIGSAW_ASSIGN_OR_RETURN(
      auto points,
      FoldPointWorldSpansImpl(
          column_names, 1, num_worlds, config, pool,
          [&](std::size_t, std::size_t begin, std::size_t count,
              std::span<double* const> columns) {
            return run_span(begin, count, columns);
          },
          /*name_points=*/false));
  return std::move(points[0]);
}

Result<std::vector<std::map<std::string, OutputMetrics>>> FoldPointWorlds(
    std::size_t num_points, std::size_t num_worlds, const RunConfig& config,
    ThreadPool* pool, const PointWorldFn& run_world) {
  // A one-point sweep IS the standalone statement: its error must stay
  // byte-identical to FoldWorlds, so the coordinate prefix only appears
  // when there is more than one point to disambiguate.
  return FoldPointWorldsImpl(num_points, num_worlds, config, pool, run_world,
                             /*name_points=*/num_points > 1);
}

Result<std::vector<std::map<std::string, OutputMetrics>>>
FoldPointWorldSpans(std::span<const std::string> column_names,
                    std::size_t num_points, std::size_t num_worlds,
                    const RunConfig& config, ThreadPool* pool,
                    const PointWorldSpanFn& run_span) {
  return FoldPointWorldSpansImpl(column_names, num_points, num_worlds,
                                 config, pool, run_span,
                                 /*name_points=*/num_points > 1);
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

Result<MonteCarloResult> MonteCarloExecutor::Run(
    const PlanFactory& make_plan, std::span<const double> params) {
  auto run_world = [&](std::size_t world) -> Result<Table> {
    JIGSAW_ASSIGN_OR_RETURN(PlanNodePtr plan, make_plan());
    EvalContext ctx;
    ctx.params = params;
    ctx.sample_id = world;
    ctx.seeds = &seeds_;
    return ExecuteToTable(*plan, ctx);
  };
  MonteCarloResult result;
  JIGSAW_ASSIGN_OR_RETURN(
      result.columns,
      FoldWorlds(config_.num_samples, config_, pool_, run_world));
  result.worlds = config_.num_samples;
  return result;
}

Result<MonteCarloResult> MonteCarloExecutor::RunSpans(
    std::span<const std::string> column_names, const WorldSpanFn& run_span) {
  MonteCarloResult result;
  JIGSAW_ASSIGN_OR_RETURN(
      result.columns, FoldWorldSpans(column_names, config_.num_samples,
                                     config_, pool_, run_span));
  result.worlds = config_.num_samples;
  return result;
}

Result<std::vector<MonteCarloResult>> MonteCarloExecutor::RunSweep(
    const PlanFactory& make_plan,
    std::span<const std::vector<double>> valuations) {
  auto run_world = [&](std::size_t point,
                       std::size_t world) -> Result<Table> {
    JIGSAW_ASSIGN_OR_RETURN(PlanNodePtr plan, make_plan());
    EvalContext ctx;
    ctx.params = valuations[point];
    ctx.sample_id = world;
    ctx.seeds = &seeds_;
    return ExecuteToTable(*plan, ctx);
  };
  JIGSAW_ASSIGN_OR_RETURN(
      auto folded, FoldPointWorlds(valuations.size(), config_.num_samples,
                                   config_, pool_, run_world));
  std::vector<MonteCarloResult> out(folded.size());
  for (std::size_t point = 0; point < folded.size(); ++point) {
    out[point].columns = std::move(folded[point]);
    out[point].worlds = config_.num_samples;
  }
  return out;
}

Result<std::vector<MonteCarloResult>> MonteCarloExecutor::RunSweepSpans(
    std::span<const std::string> column_names, std::size_t num_points,
    const PointWorldSpanFn& run_span) {
  JIGSAW_ASSIGN_OR_RETURN(
      auto folded,
      FoldPointWorldSpans(column_names, num_points, config_.num_samples,
                          config_, pool_, run_span));
  std::vector<MonteCarloResult> out(folded.size());
  for (std::size_t point = 0; point < folded.size(); ++point) {
    out[point].columns = std::move(folded[point]);
    out[point].worlds = config_.num_samples;
  }
  return out;
}

}  // namespace jigsaw::pdb
