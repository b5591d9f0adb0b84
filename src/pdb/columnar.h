#pragma once

/// \file columnar.h
/// Contiguous typed columnar storage for possible worlds — the succinct
/// U-relations-style representation the pdb layer stands on ("Fast and
/// Simple Relational Processing of Uncertain Data"). One ColumnChunk per
/// column holds a typed contiguous buffer (double / int64 / bool, with a
/// null bitmap; strings are dictionary-coded) instead of one boxed
/// `Value` variant per cell, so realizing a million-tuple uncertain table
/// touches three flat arrays rather than a million `vector<Value>` rows.
///
/// The boxed `Table` survives only as a conversion boundary: the CSV /
/// Report interop edges and the Volcano row operators box rows on demand
/// (`BoxRow`, `ToTable`), while VG realization, estimator folds and the
/// batch-program staging path stay on raw spans. The boxed realization
/// and fold live on only as the tests' reference
/// (tests/boxed_reference.h), bit-identical (same draws, same metrics,
/// same errors in the same order) at every grid point.
///
/// Shard-ownership rule: a multi-world realization is sharded into
/// world-chunk extents (see WorldExtent in vg_table.h) — each
/// FoldWorldCells cell (monte_carlo.h) appends only to the extent it
/// owns, so parallel materialization needs no synchronization and no
/// cross-task writes.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "pdb/table.h"
#include "pdb/value.h"
#include "util/status.h"

namespace jigsaw::pdb {

/// One column's contiguous typed buffer. Exactly one of the typed
/// vectors is active (selected by `type()`); nulls occupy a value slot
/// (NaN / 0) and are marked in a word-packed bitmap, so the value buffer
/// stays dense and span-addressable. Strings are dictionary-coded: the
/// buffer holds uint32 codes into an append-only dictionary.
class ColumnChunk {
 public:
  ColumnChunk() = default;
  explicit ColumnChunk(ValueType type) : type_(type) {}

  ValueType type() const { return type_; }
  std::size_t size() const { return size_; }
  std::size_t null_count() const { return null_count_; }
  bool IsNull(std::size_t i) const {
    // The bitmap ends at the word of the last NULL: later rows are not
    // NULL.
    return null_count_ != 0 && (i >> 6) < null_words_.size() &&
           (null_words_[i >> 6] >> (i & 63) & 1) != 0;
  }

  void Reserve(std::size_t n);

  /// Typed appends — the VG-generation fast path. The caller must match
  /// the chunk's declared type (checked in debug builds).
  void AppendDouble(double v);
  void AppendInt(std::int64_t v);
  void AppendBool(bool v);
  void AppendString(const std::string& v);
  void AppendNull();

  /// Bulk append: grows the chunk by `n` value slots and returns the
  /// mutable span over them, so generators write model draws straight
  /// into the column buffer (no per-row call, no boxing).
  std::span<double> AppendDoubleSpan(std::size_t n);
  std::span<std::int64_t> AppendIntSpan(std::size_t n);
  std::span<std::uint8_t> AppendBoolSpan(std::size_t n);

  /// Interns `v` in the dictionary without appending a row and returns
  /// its code. Generators with a small closed string domain intern each
  /// value once and bulk-fill codes through AppendCodeSpan — one hash
  /// probe per distinct string instead of one per row.
  std::uint32_t InternString(const std::string& v);

  /// Bulk append of dictionary codes. Every slot must be filled with a
  /// code previously returned by InternString/AppendString on this chunk;
  /// an out-of-range code makes BoxValue/decoding undefined.
  std::span<std::uint32_t> AppendCodeSpan(std::size_t n);

  /// Boxed boundary: stores `v` if its type exactly matches the declared
  /// column type (nulls always fit). The columnar store is strictly
  /// typed — unlike the dynamically-typed boxed rows — so a mismatch is
  /// an error, never a silent coercion.
  Status AppendValue(const Value& v);

  /// Boxed view of slot `i` (the conversion boundary).
  Value BoxValue(std::size_t i) const;

  /// Zero-copy typed reads. Call only on a chunk of the matching type.
  std::span<const double> Doubles() const { return doubles_; }
  std::span<const std::int64_t> Ints() const { return ints_; }
  std::span<const std::uint8_t> Bools() const { return bools_; }
  std::span<const std::uint32_t> StringCodes() const { return codes_; }
  const std::vector<std::string>& Dictionary() const { return dict_; }

  /// Deep equality (values, nulls, decoded strings). Dictionary code
  /// assignment is insertion-ordered and therefore deterministic, but
  /// equality still compares decoded strings so two chunks built in
  /// different append orders compare by content.
  bool SameContent(const ColumnChunk& other) const;

 private:
  void MarkNull();

  ValueType type_ = ValueType::kDouble;
  std::size_t size_ = 0;
  std::vector<double> doubles_;
  std::vector<std::int64_t> ints_;
  std::vector<std::uint8_t> bools_;
  std::vector<std::uint32_t> codes_;
  std::vector<std::string> dict_;
  /// Lookup only — never iterated (deterministic code assignment comes
  /// from insertion order into dict_).
  std::unordered_map<std::string, std::uint32_t> dict_index_;
  std::vector<std::uint64_t> null_words_;
  std::size_t null_count_ = 0;
};

/// A relation stored as one ColumnChunk per schema column. Rows exist
/// only logically; `BoxRow` / `ToTable` materialize boxed rows at the
/// interop edges.
class ColumnarTable {
 public:
  ColumnarTable() = default;
  explicit ColumnarTable(Schema schema);

  const Schema& schema() const { return schema_; }
  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_columns() const { return columns_.size(); }
  const ColumnChunk& column(std::size_t i) const { return columns_[i]; }
  ColumnChunk& column(std::size_t i) { return columns_[i]; }

  void Reserve(std::size_t n);

  /// Boxed-row ingestion (validated: arity and exact per-column type).
  Status AppendRow(const Row& row);

  /// Reconciles num_rows() after a generator bulk-filled the chunks via
  /// the typed append API: every column must have grown to the same
  /// size. Internal error otherwise (a generator bug, not user input).
  Status CommitAppendedRows();

  /// Boxes row `i` into *out (reusing its capacity).
  void BoxRow(std::size_t i, Row* out) const;

  /// Conversion boundaries. FromTable requires every value to exactly
  /// match its declared column type (see ColumnChunk::AppendValue).
  static Result<ColumnarTable> FromTable(const Table& t);
  Result<Table> ToTable() const;

  /// Zero-copy numeric read of a kDouble column with no nulls — the
  /// estimator-fold fast path. Error text matches the boxed
  /// Table::NumericColumn for the same failure, so the two storage paths
  /// report identical errors in identical order.
  Result<std::span<const double>> NumericSpan(const std::string& name) const;

  /// Copying fallback (int / bool coercion to double — a widening copy
  /// is unavoidable), with boxed-identical values and errors.
  Result<std::vector<double>> NumericColumn(const std::string& name) const;

  bool SameContent(const ColumnarTable& other) const;

  std::string ToString(std::size_t max_rows = 10) const;

 private:
  Schema schema_;
  std::vector<ColumnChunk> columns_;
  std::size_t num_rows_ = 0;
};

}  // namespace jigsaw::pdb
