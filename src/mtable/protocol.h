// SysTest — Live Table Migration case study (§4): protocol types and events.
//
// MigratingTable migrates a key-value data set from an "old" to a "new"
// backend table while applications keep reading and writing through MT
// instances. Our protocol (the paper's is Microsoft-internal; see DESIGN.md
// §3 for the substitution argument) migrates per partition through states
//
//   Unpopulated -> Populating -> [settling barrier] -> Populated
//     -> (copy rows old->new) -> (delete old rows) -> Switched
//
// with writes routed by the observed state (<= Populating: old table;
// >= Populated: new table, deletes leaving tombstones until Switched), reads
// merging new-over-old, and a final tombstone sweep. The settling barrier
// (the real system would wait out a configuration lease) guarantees that
// old-table writers never overlap new-table writers — which is exactly what
// the MigrateSkipPreferOld bug breaks.
//
// Differential checking (paper Fig. 12): all backend operations flow through
// the Tables machine, which owns the two backend tables AND the reference
// table (RT). Every backend request may carry a linearization function that
// the Tables machine runs atomically with the backend operation; it returns
// linearization actions (apply a logical write to the RT and compare result
// codes; compare a read/query answer against the RT; stream-window checks).
// This mirrors the paper's mechanism where "the rest of the system never
// observes the RT to be out of sync with the VT".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "chaintable/chain_table.h"
#include "core/event.h"
#include "core/strategy.h"

namespace mtable {

/// Which backend table an operation targets.
enum class TableSel : std::uint8_t { kOld, kNew };

/// Per-partition migration state, stored as a meta row in the new table.
enum class PartitionState : std::uint8_t {
  kUnpopulated = 0,  ///< migration has not touched this partition
  kPopulating = 1,   ///< migrator announced intent; settling barrier pending
  kPopulated = 2,    ///< writers must use the new table (tombstone regime)
  kSwitched = 3,     ///< old rows deleted; plain deletes allowed
};

std::string_view ToString(PartitionState state) noexcept;

// Reserved meta namespace in the new table.
inline const std::string kMetaPartition = "__meta";
/// Row key of the state row for partition `p` is kStateRowPrefix + p.
inline const std::string kStateRowPrefix = "state:";
/// Internal row properties.
inline const std::string kTombstoneProp = "__del";
inline const std::string kOrigEtagProp = "__orig";

[[nodiscard]] bool IsTombstone(const chaintable::Properties& props);
[[nodiscard]] chaintable::Properties StripMeta(const chaintable::Properties& props);
[[nodiscard]] chaintable::TableKey StateRowKey(const std::string& partition);

// ---------------------------------------------------------------------------
// Backend operations (data plane of the Tables machine).

struct TableOpWrite {
  chaintable::WriteOp op;
  /// Configuration fence (the model of the real system's config lease): when
  /// `fenced` is set, the write executes only if the fence row in the NEW
  /// table still has `fence_etag` (kInvalidEtag = "still absent"); otherwise
  /// the write fails with BackendResult::fence_failed and the writer must
  /// re-read the migration state and re-route. This is what makes the
  /// old-table write path atomic with respect to the migrator's state flip.
  bool fenced = false;
  chaintable::TableKey fence_key;
  chaintable::Etag fence_etag = chaintable::kInvalidEtag;

  /// A write of `op` that carries no configuration fence.
  [[nodiscard]] static TableOpWrite Unfenced(chaintable::WriteOp op) {
    TableOpWrite write;
    write.op = std::move(op);
    return write;
  }
};
struct TableOpRetrieve {
  chaintable::TableKey key;
};
struct TableOpQueryAtomic {
  chaintable::Filter filter;
};
struct TableOpQueryAbove {
  chaintable::Filter filter;
  std::optional<chaintable::TableKey> after;
};
struct TableOpMutationCount {};

using TableOp = std::variant<TableOpWrite, TableOpRetrieve, TableOpQueryAtomic,
                             TableOpQueryAbove, TableOpMutationCount>;

std::string DescribeTableOp(const TableOp& op);

/// Result of a backend operation, as delivered back to the requester.
struct BackendResult {
  chaintable::OpResult op;                    // writes / retrieves
  std::vector<chaintable::QueryRow> rows;     // atomic queries
  std::optional<chaintable::QueryRow> above;  // QueryAbove
  std::uint64_t mutation_count = 0;           // selected table
  bool fence_failed = false;                  // fenced write rejected
  /// Mutation counters of BOTH tables, observed atomically with the
  /// operation (both tables live in the Tables machine; a real deployment
  /// would read two version etags in one batch). These power the
  /// interference guards of MigratingTable's merged reads.
  std::uint64_t mutation_count_old = 0;
  std::uint64_t mutation_count_new = 0;
};

// ---------------------------------------------------------------------------
// Linearization actions (checking plane).

/// Symbolic ETag for reference-table operations: the Tables machine resolves
/// slot references against its own per-service RT etag map, so conditional
/// operations compare like-for-like even though MT and RT etag values differ.
struct EtagRef {
  enum class Kind : std::uint8_t { kAny, kSlot } kind = Kind::kAny;
  int slot = 0;

  static EtagRef Any() { return {}; }
  static EtagRef Slot(int slot) { return {Kind::kSlot, slot}; }
};

/// The service-provided description of a logical write (what the application
/// asked for). MT protocol code decides *when* it linearizes and with what
/// result code; the what comes from the service, keeping the checker sound
/// even against a buggy MT.
struct LogicalWriteSpec {
  chaintable::WriteKind kind = chaintable::WriteKind::kInsert;
  chaintable::TableKey key;
  chaintable::Properties properties;  ///< user properties only
  EtagRef etag = EtagRef::Any();
  int out_slot = -1;  ///< RT etag slot updated on success (-1: none)
};

/// Apply the logical write to the RT and assert that the RT's result code
/// equals `expected` (the code the MT is about to return to the app).
struct LinWrite {
  LogicalWriteSpec spec;
  chaintable::TableCode expected = chaintable::TableCode::kOk;
};

/// Assert the RT's view of `key` equals `expected` (user properties; nullopt
/// means "absent").
struct LinReadCheck {
  chaintable::TableKey key;
  std::optional<chaintable::Properties> expected;
};

/// Assert the RT's filtered snapshot equals `expected` (keys + user
/// properties, ascending key order).
struct LinQueryCheck {
  chaintable::Filter filter;
  std::vector<chaintable::TableRow> expected;
};

/// Stream-window bookkeeping (see TablesMachine for the checking rules).
struct LinStreamStart {
  std::uint64_t stream = 0;
  chaintable::Filter filter;
};
struct LinStreamEmit {
  std::uint64_t stream = 0;
  chaintable::TableRow row;  ///< user properties
};
struct LinStreamEnd {
  std::uint64_t stream = 0;
};

using LinAction = std::variant<LinWrite, LinReadCheck, LinQueryCheck,
                               LinStreamStart, LinStreamEmit, LinStreamEnd>;

/// Runs atomically with the backend operation inside the Tables machine's
/// step; decides from the backend result which linearization actions fire.
using LinFn = std::function<std::vector<LinAction>(const BackendResult&)>;

// ---------------------------------------------------------------------------
// Harness events.

/// Service/migrator -> Tables machine: execute one backend operation.
struct BackendRequest final : systest::Event {
  BackendRequest(systest::MachineId reply_to, std::uint64_t request_id,
                 TableSel table, TableOp op, LinFn lin)
      : reply_to(reply_to),
        request_id(request_id),
        table(table),
        op(std::move(op)),
        lin(std::move(lin)) {}
  systest::MachineId reply_to;
  std::uint64_t request_id;
  TableSel table;
  TableOp op;
  LinFn lin;  ///< may be empty

  [[nodiscard]] std::string Name() const override {
    return std::string("BackendRequest[") +
           (table == TableSel::kOld ? "old:" : "new:") + DescribeTableOp(op) +
           "]";
  }
};

/// Tables machine -> requester: the operation's result.
struct BackendResponse final : systest::Event {
  BackendResponse(std::uint64_t request_id, BackendResult result)
      : request_id(request_id), result(std::move(result)) {}
  std::uint64_t request_id;
  BackendResult result;
};

/// Migrator -> service: settle. The service replies once its in-flight
/// logical operation (if any) has completed — the model of waiting out the
/// configuration lease.
struct SettleBarrier final : systest::Event {
  SettleBarrier(systest::MachineId migrator, std::uint64_t epoch)
      : migrator(migrator), epoch(epoch) {}
  systest::MachineId migrator;
  std::uint64_t epoch;
};

/// Service -> migrator: barrier acknowledged.
struct SettleAck final : systest::Event {
  explicit SettleAck(std::uint64_t epoch) : epoch(epoch) {}
  std::uint64_t epoch;
};

/// Service -> driver: all my operations are done.
struct ServiceDone final : systest::Event {
  explicit ServiceDone(int service_index) : service_index(service_index) {}
  int service_index;
};

/// Migrator -> driver: migration complete (all partitions switched, swept).
struct MigrationDone final : systest::Event {};

/// Crashed migrator -> driver (sent from Machine::OnCrash, i.e. by the fault
/// plane): the migrator job died mid-move. The driver launches a fresh job.
struct MigratorCrashed final : systest::Event {};

/// Driver -> Tables machine: run the final whole-table verification.
struct VerifyTables final : systest::Event {};

/// Notification for the liveness monitor: the end-to-end scenario finished.
struct NotifyVerified final : systest::Event {};

/// Service self-event driving its operation loop (one logical op per
/// handler invocation so barriers can be served between operations).
struct NextOp final : systest::Event {};

}  // namespace mtable
