// SysTest — Live Table Migration case study (§4 of the paper).
//
// Core types of the IChainTable specification: keys, rows, ETags, operations
// and results. IChainTable is the Azure-table-like interface that the paper's
// MigratingTable both consumes (from the two backend tables) and provides
// (to the application), "similar to that of an Azure table".
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace chaintable {

/// Primary key of a row: (partition key, row key). Rows sort by partition
/// first, then row key — the order streaming queries must respect.
struct TableKey {
  std::string partition;
  std::string row;

  friend auto operator<=>(const TableKey&, const TableKey&) = default;

  [[nodiscard]] std::string ToString() const { return partition + "/" + row; }
};

/// Property bag of a row. Properties whose names begin with "__" are
/// reserved for infrastructure (e.g. MigratingTable's tombstone marker).
using Properties = std::map<std::string, std::string>;

/// A row as stored/returned by a table.
struct TableRow {
  TableKey key;
  Properties properties;

  friend bool operator==(const TableRow&, const TableRow&) = default;
};

/// ETag: a value unique per successful write within one table's lifetime.
/// kAnyEtag in a conditional operation matches any existing row.
using Etag = std::uint64_t;
constexpr Etag kInvalidEtag = 0;
constexpr Etag kAnyEtag = ~static_cast<Etag>(0);

/// Result code of a table operation (mirrors the Azure table error space the
/// IChainTable spec cares about).
enum class TableCode {
  kOk,
  kNotFound,         ///< conditional op on a missing row
  kConditionNotMet,  ///< ETag mismatch
  kAlreadyExists,    ///< insert of an existing row
  kInvalid,          ///< malformed operation
};

std::string_view ToString(TableCode code) noexcept;

/// Outcome of a point operation.
struct OpResult {
  TableCode code = TableCode::kInvalid;
  Etag etag = kInvalidEtag;            ///< new etag on successful writes
  std::optional<TableRow> row;         ///< for retrieves
  Etag row_etag = kInvalidEtag;        ///< etag of the retrieved row

  [[nodiscard]] bool Ok() const noexcept { return code == TableCode::kOk; }
};

/// Filter for queries: optional partition restriction, optional row-key
/// range [row_from, row_to), optional property equality. An empty filter
/// matches everything. This small filter language is rich enough to exercise
/// the paper's filter-shadowing bugs.
struct Filter {
  std::optional<std::string> partition;
  std::optional<std::string> row_from;  ///< inclusive lower bound
  std::optional<std::string> row_to;    ///< exclusive upper bound
  std::optional<std::pair<std::string, std::string>> property_equals;

  /// Matches every row of `partition` (every row at all when it is empty).
  [[nodiscard]] static Filter OfPartition(
      std::optional<std::string> partition) {
    Filter filter;
    filter.partition = std::move(partition);
    return filter;
  }

  [[nodiscard]] bool Matches(const TableRow& row) const;
  [[nodiscard]] std::string ToString() const;
};

/// Kind of a point write.
enum class WriteKind {
  kInsert,           ///< fails with kAlreadyExists if the row exists
  kReplace,          ///< conditional on etag; kNotFound if missing
  kMerge,            ///< conditional; merges properties into the row
  kInsertOrReplace,  ///< unconditional upsert
  kDelete,           ///< conditional on etag; kNotFound if missing
};

std::string_view ToString(WriteKind kind) noexcept;

/// A point write operation.
struct WriteOp {
  WriteKind kind = WriteKind::kInsert;
  TableRow row;            ///< key (+ properties for non-deletes)
  Etag etag = kAnyEtag;    ///< condition for kReplace/kMerge/kDelete
};

/// A row returned by a query, with its etag.
struct QueryRow {
  TableRow row;
  Etag etag = kInvalidEtag;

  friend bool operator==(const QueryRow&, const QueryRow&) = default;
};

}  // namespace chaintable
