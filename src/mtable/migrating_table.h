// SysTest — Live Table Migration case study (§4): the MigratingTable.
//
// An application-facing IChainTable-like layer over the old and new backend
// tables. Each logical operation is a coroutine performing a sequence of
// backend operations through a BackendClient (in the harness: event
// round-trips through the Tables machine); at its linearization point the
// operation attaches a linearization function so the checker can apply or
// compare the logical operation against the reference table atomically.
//
// Protocol summary (see protocol.h and DESIGN.md §3):
//  * writes route by the key's observed partition state: <= Populating to
//    the old table, >= Populated to the new table (deletes leave tombstones
//    until the partition is Switched);
//  * reads with state >= Populated merge new-over-old with a new-table
//    double-check (new -> old -> new);
//  * the virtual ETag of a row is the backend etag of the write that
//    produced it; the migrator records the old etag in the __orig property
//    when copying, so conditional operations survive migration.
//
// All eleven Table 2 bugs are re-introducible through MTableBugs flags; the
// buggy code paths are marked inline.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chaintable/chain_table.h"
#include "core/task.h"
#include "mtable/bugs.h"
#include "mtable/protocol.h"

namespace mtable {

/// Migration state of a partition as observed by an operation: the state
/// value plus the state row's etag, which doubles as the configuration fence
/// for old-table writes.
struct StateInfo {
  PartitionState state = PartitionState::kUnpopulated;
  chaintable::Etag etag = chaintable::kInvalidEtag;  // kInvalid = row absent
};

/// Transport used by MigratingTable to reach the backend tables. The harness
/// implements it with event round-trips through the Tables machine.
class BackendClient {
 public:
  virtual ~BackendClient() = default;

  /// Executes `op` on `table`; `lin` (may be empty) runs atomically with the
  /// operation at the checker.
  ///
  /// Parameters are by value ON PURPOSE, and every call site uses the split
  /// pattern `auto t = client.Execute(...); co_await std::move(t);` — calls
  /// in a plain statement copy arguments into the coroutine frame correctly,
  /// while GCC 12 miscompiles non-trivial argument temporaries of calls made
  /// directly inside a co_await expression (see core/task.h).
  virtual systest::TaskOf<BackendResult> Execute(TableSel table, TableOp op,
                                                 LinFn lin) = 0;

  /// Stable identifier of this client, unique within the execution; used to
  /// namespace stream ids at the checker.
  [[nodiscard]] virtual std::uint64_t ClientKey() const = 0;
};

/// Outcome of a logical MigratingTable operation.
struct MtResult {
  chaintable::TableCode code = chaintable::TableCode::kInvalid;
  chaintable::Etag etag = chaintable::kInvalidEtag;   ///< writes
  std::optional<chaintable::TableRow> row;            ///< retrieve/stream
  std::vector<chaintable::TableRow> rows;             ///< atomic query

  /// A result carrying only `code`: no etag, row or rows.
  [[nodiscard]] static MtResult Of(chaintable::TableCode code) {
    MtResult result;
    result.code = code;
    return result;
  }

  [[nodiscard]] bool Ok() const noexcept {
    return code == chaintable::TableCode::kOk;
  }
};

class MigratingTable {
 public:
  MigratingTable(BackendClient& client, MTableBugs bugs)
      : client_(client), bugs_(bugs) {}

  MigratingTable(const MigratingTable&) = delete;
  MigratingTable& operator=(const MigratingTable&) = delete;

  /// Logical point write. `kind` one of kInsert/kReplace/kInsertOrReplace/
  /// kDelete. `cond_etag` is the caller's (virtual) etag for conditional
  /// kinds; `spec` is the service-side description forwarded to the checker.
  systest::TaskOf<MtResult> Write(chaintable::WriteKind kind,
                                  const chaintable::TableKey& key,
                                  const chaintable::Properties& props,
                                  chaintable::Etag cond_etag,
                                  const LogicalWriteSpec& spec);

  /// Logical point read.
  systest::TaskOf<MtResult> Retrieve(const chaintable::TableKey& key);

  /// Atomic filtered snapshot. filter.partition must be set.
  systest::TaskOf<MtResult> QueryAtomic(const chaintable::Filter& filter);

  /// Opens a streaming query (one open stream per MigratingTable at a time).
  /// filter.partition must be set.
  systest::TaskOf<std::uint64_t> StreamStart(const chaintable::Filter& filter);

  /// Next stream row; MtResult::row is empty at end-of-stream.
  systest::TaskOf<MtResult> StreamNext();

  /// Retries before an operation reports kInvalid (interference cap).
  static constexpr int kMaxAttempts = 25;

 private:
  systest::TaskOf<StateInfo> ReadState(const std::string& partition);

  systest::TaskOf<MtResult> WriteOld(chaintable::WriteKind kind,
                                     const chaintable::TableKey& key,
                                     const chaintable::Properties& props,
                                     chaintable::Etag cond_etag,
                                     const LogicalWriteSpec& spec,
                                     bool fenced, chaintable::Etag fence_etag);
  systest::TaskOf<MtResult> InsertNew(const chaintable::TableKey& key,
                                      const chaintable::Properties& props,
                                      const LogicalWriteSpec& spec);
  systest::TaskOf<MtResult> ReplaceNew(const chaintable::TableKey& key,
                                       const chaintable::Properties& props,
                                       chaintable::Etag cond_etag,
                                       const LogicalWriteSpec& spec);
  systest::TaskOf<MtResult> UpsertNew(const chaintable::TableKey& key,
                                      const chaintable::Properties& props,
                                      const LogicalWriteSpec& spec);
  systest::TaskOf<MtResult> DeleteNew(const chaintable::TableKey& key,
                                      chaintable::Etag cond_etag,
                                      const LogicalWriteSpec& spec,
                                      PartitionState state,
                                      const std::string& stale_partition);

  /// True iff the row (from whichever table) matches the caller's virtual
  /// etag: backend etag equality, or the recorded pre-migration etag.
  static bool MatchesVirtual(const chaintable::QueryRow& row,
                             chaintable::Etag stored);

  /// Linearizes the FAILURE of a conditional write: performs a merged read
  /// of `key` under the two-table interference guard, decides the failure
  /// code from the authoritative state (absent -> kNotFound; present with a
  /// virtual-etag mismatch -> kConditionNotMet; for inserts, present ->
  /// kAlreadyExists) and fires the checker linearization with that code.
  /// Returns kOk when the state no longer justifies a failure — the caller
  /// must retry the whole operation.
  systest::TaskOf<chaintable::TableCode> LinearizeFailure(
      const chaintable::TableKey& key, chaintable::Etag stored,
      const LogicalWriteSpec& spec, bool for_insert);

  BackendClient& client_;
  MTableBugs bugs_;

  // --- stream state (single open stream) ---
  struct StreamState {
    std::uint64_t id = 0;
    bool open = false;
    chaintable::Filter user_filter;
    std::optional<chaintable::TableKey> last_key;
    std::optional<chaintable::TableKey> new_cursor;  // bug: BackUpNewStream
    std::vector<chaintable::QueryRow> new_snapshot;  // bug: QueryStreamedLock
  };
  StreamState stream_;
  std::uint64_t next_stream_id_ = 1;

  /// Cached partition of the most recent operation — exists solely to host
  /// the DeletePrimaryKey bug (the buggy delete path reads it instead of the
  /// operation's own key).
  std::string last_partition_;
};

}  // namespace mtable
