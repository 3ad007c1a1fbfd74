#include "mtable/migrating_table.h"

#include <algorithm>
#include <map>

namespace mtable {

using chaintable::Etag;
using chaintable::Filter;
using chaintable::kAnyEtag;
using chaintable::Properties;
using chaintable::QueryRow;
using chaintable::TableCode;
using chaintable::TableKey;
using chaintable::TableRow;
using chaintable::WriteKind;
using chaintable::WriteOp;
using systest::TaskOf;

std::string_view ToString(PartitionState state) noexcept {
  switch (state) {
    case PartitionState::kUnpopulated:
      return "Unpopulated";
    case PartitionState::kPopulating:
      return "Populating";
    case PartitionState::kPopulated:
      return "Populated";
    case PartitionState::kSwitched:
      return "Switched";
  }
  return "?";
}

bool IsTombstone(const Properties& props) {
  return props.contains(kTombstoneProp);
}

Properties StripMeta(const Properties& props) {
  Properties out;
  for (const auto& [name, value] : props) {
    if (name.rfind("__", 0) != 0) {
      out.emplace(name, value);
    }
  }
  return out;
}

TableKey StateRowKey(const std::string& partition) {
  return TableKey{kMetaPartition, kStateRowPrefix + partition};
}

std::string DescribeTableOp(const TableOp& op) {
  if (const auto* write = std::get_if<TableOpWrite>(&op)) {
    return std::string(ToString(write->op.kind)) + " " +
           write->op.row.key.ToString();
  }
  if (const auto* get = std::get_if<TableOpRetrieve>(&op)) {
    return "Retrieve " + get->key.ToString();
  }
  if (const auto* q = std::get_if<TableOpQueryAtomic>(&op)) {
    return "QueryAtomic " + q->filter.ToString();
  }
  if (const auto* qa = std::get_if<TableOpQueryAbove>(&op)) {
    return "QueryAbove " + (qa->after ? qa->after->ToString() : "<begin>");
  }
  return "MutationCount";
}

bool MigratingTable::MatchesVirtual(const QueryRow& row, Etag stored) {
  if (stored == kAnyEtag || row.etag == stored) {
    return true;
  }
  auto it = row.row.properties.find(kOrigEtagProp);
  return it != row.row.properties.end() &&
         it->second == std::to_string(stored);
}

TaskOf<StateInfo> MigratingTable::ReadState(const std::string& partition) {
  auto call1_ = client_.Execute(
      TableSel::kNew, TableOpRetrieve{StateRowKey(partition)}, nullptr);
  BackendResult r = co_await std::move(call1_);
  StateInfo info;
  if (!r.op.row.has_value()) {
    co_return info;  // kUnpopulated, etag kInvalidEtag ("row absent")
  }
  info.etag = r.op.row_etag;
  const auto it = r.op.row->properties.find("s");
  if (it != r.op.row->properties.end()) {
    info.state = static_cast<PartitionState>(std::stoi(it->second));
  }
  co_return info;
}

// ---------------------------------------------------------------------------
// Point writes.

TaskOf<MtResult> MigratingTable::Write(WriteKind kind, const TableKey& key,
                                       const Properties& props, Etag cond_etag,
                                       const LogicalWriteSpec& spec) {
  // The DeletePrimaryKey bug consumes the partition cached by the PREVIOUS
  // operation, before this operation refreshes it.
  const std::string stale_partition =
      last_partition_.empty() ? key.partition : last_partition_;
  last_partition_ = key.partition;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const StateInfo state = co_await ReadState(key.partition);

    if (kind == WriteKind::kInsert && bugs_.insert_behind_migrator &&
        state.state != PartitionState::kSwitched) {
      // BUG InsertBehindMigrator: "fast path" — insert directly into the old
      // table whenever the partition has not switched yet. If the migrator
      // has already snapshotted the partition, this row is never copied, and
      // the switch step deletes it: a silently lost insert. (The fast path
      // also skips the configuration fence, like the pre-migration code it
      // was copied from.)
      co_return co_await WriteOld(kind, key, props, cond_etag, spec,
                                  /*fenced=*/false, state.etag);
    }

    if (state.state <= PartitionState::kPopulating) {
      // Old-route, under the configuration fence: the write commits only if
      // the partition state row is unchanged, which guarantees every
      // old-table write precedes the migrator's Populated flip — and hence
      // the populate snapshot. On fence failure, re-read and re-route.
      //
      // BUG MigrateSkipPreferOld drops the fence: a write that observed the
      // pre-migration state can then land after the populate snapshot and be
      // deleted, uncopied, by the switch.
      const bool fenced = !bugs_.migrate_skip_prefer_old;
      MtResult result = co_await WriteOld(kind, key, props, cond_etag, spec,
                                          fenced, state.etag);
      if (result.code == TableCode::kInvalid) {
        continue;  // fence failed: the migrator moved; re-read the state
      }
      co_return result;
    }
    switch (kind) {
      case WriteKind::kInsert:
        co_return co_await InsertNew(key, props, spec);
      case WriteKind::kReplace:
        co_return co_await ReplaceNew(key, props, cond_etag, spec);
      case WriteKind::kInsertOrReplace:
        co_return co_await UpsertNew(key, props, spec);
      case WriteKind::kDelete:
        co_return co_await DeleteNew(key, cond_etag, spec, state.state,
                                     stale_partition);
      case WriteKind::kMerge:
        co_return MtResult{};  // not part of the MigratingTable surface
    }
  }
  co_return MtResult::Of(TableCode::kInvalid);
}

TaskOf<MtResult> MigratingTable::WriteOld(WriteKind kind, const TableKey& key,
                                          const Properties& props,
                                          Etag cond_etag,
                                          const LogicalWriteSpec& spec,
                                          bool fenced, Etag fence_etag) {
  // Old-route: the backend operation is the linearization point, and virtual
  // etags coincide with old-table backend etags. The configuration fence
  // (checked atomically by the Tables machine) ensures the migration state
  // did not move under us; the linearization fires only if the write
  // committed.
  TableOpWrite write;
  write.op.kind = kind;
  write.op.row.key = key;
  write.op.row.properties = props;
  write.op.etag = cond_etag;
  write.fenced = fenced;
  write.fence_key = StateRowKey(key.partition);
  write.fence_etag = fence_etag;
  LinFn lin = [spec](const BackendResult& r) {
    std::vector<LinAction> actions;
    if (!r.fence_failed) {
      actions.push_back(LinWrite{spec, r.op.code});
    }
    return actions;
  };
  auto call2_ = client_.Execute(TableSel::kOld, write, std::move(lin));
  BackendResult r = co_await std::move(call2_);
  if (r.fence_failed) {
    // The caller re-reads and re-routes.
    co_return MtResult::Of(TableCode::kInvalid);
  }
  MtResult out;
  out.code = r.op.code;
  out.etag = r.op.etag;
  co_return out;
}

TaskOf<chaintable::TableCode> MigratingTable::LinearizeFailure(
    const TableKey& key, Etag stored, const LogicalWriteSpec& spec,
    bool for_insert) {
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    auto guard0_call = client_.Execute(TableSel::kOld, TableOpMutationCount{},
                                       nullptr);
    BackendResult guard0 = co_await std::move(guard0_call);
    auto new_call =
        client_.Execute(TableSel::kNew, TableOpRetrieve{key}, nullptr);
    BackendResult rn = co_await std::move(new_call);
    auto old_call =
        client_.Execute(TableSel::kOld, TableOpRetrieve{key}, nullptr);
    BackendResult ro = co_await std::move(old_call);

    // Authoritative (merged) state of the key, raw properties retained for
    // the tombstone and __orig checks.
    std::optional<QueryRow> merged;
    if (rn.op.row.has_value()) {
      if (!IsTombstone(rn.op.row->properties)) {
        merged = QueryRow{*rn.op.row, rn.op.row_etag};
      }
    } else if (ro.op.row.has_value()) {
      merged = QueryRow{*ro.op.row, ro.op.row_etag};
    }

    TableCode code = TableCode::kOk;  // kOk = "no failure anymore: retry op"
    if (for_insert) {
      if (merged.has_value()) {
        code = TableCode::kAlreadyExists;
      }
    } else {
      if (!merged.has_value()) {
        code = TableCode::kNotFound;
      } else if (!MatchesVirtual(*merged, stored)) {
        code = TableCode::kConditionNotMet;
      }
    }

    const std::uint64_t old0 = guard0.mutation_count_old;
    const std::uint64_t new0 = guard0.mutation_count_new;
    LinFn lin = [spec, code, old0, new0](const BackendResult& r) {
      std::vector<LinAction> actions;
      if (r.mutation_count_old == old0 && r.mutation_count_new == new0 &&
          code != TableCode::kOk) {
        actions.push_back(LinWrite{spec, code});
      }
      return actions;
    };
    auto guard1_call = client_.Execute(TableSel::kNew, TableOpMutationCount{},
                                       std::move(lin));
    BackendResult guard1 = co_await std::move(guard1_call);
    if (guard1.mutation_count_old != old0 ||
        guard1.mutation_count_new != new0) {
      continue;  // interference: re-evaluate
    }
    co_return code;
  }
  co_return TableCode::kInvalid;
}

TaskOf<MtResult> MigratingTable::InsertNew(const TableKey& key,
                                           const Properties& props,
                                           const LogicalWriteSpec& spec) {
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    auto probe_call =
        client_.Execute(TableSel::kNew, TableOpRetrieve{key}, nullptr);
    BackendResult rn = co_await std::move(probe_call);
    if (rn.op.row.has_value() && IsTombstone(rn.op.row->properties)) {
      // Tombstone: resurrect by replacing it, conditioned on its backend
      // etag so a racing writer forces a retry.
      TableOpWrite write;
      write.op.kind = WriteKind::kReplace;
      write.op.row.key = key;
      write.op.row.properties = props;
      write.op.etag = rn.op.row_etag;
      LinFn lin = [spec](const BackendResult& r) {
        std::vector<LinAction> actions;
        if (r.op.Ok()) {
          actions.push_back(LinWrite{spec, TableCode::kOk});
        }
        return actions;
      };
      auto write_call =
          client_.Execute(TableSel::kNew, write, std::move(lin));
      BackendResult w = co_await std::move(write_call);
      if (w.op.Ok()) {
        MtResult out;
        out.code = TableCode::kOk;
        // BUG TombstoneOutputETag: return the tombstone's etag instead of
        // the new row's — later conditional operations using the stored
        // etag will spuriously fail.
        out.etag = bugs_.tombstone_output_etag ? rn.op.row_etag : w.op.etag;
        co_return out;
      }
      continue;  // tombstone changed under us
    }
    if (!rn.op.row.has_value()) {
      auto old_probe =
          client_.Execute(TableSel::kOld, TableOpRetrieve{key}, nullptr);
      BackendResult ro = co_await std::move(old_probe);
      if (!ro.op.row.has_value()) {
        // Absent everywhere: insert-if-absent into the new table.
        TableOpWrite write;
        write.op.kind = WriteKind::kInsert;
        write.op.row.key = key;
        write.op.row.properties = props;
        LinFn lin = [spec](const BackendResult& r) {
          std::vector<LinAction> actions;
          if (r.op.Ok()) {
            actions.push_back(LinWrite{spec, TableCode::kOk});
          }
          return actions;
        };
        auto write_call =
            client_.Execute(TableSel::kNew, write, std::move(lin));
        BackendResult w = co_await std::move(write_call);
        if (w.op.Ok()) {
          MtResult out;
          out.code = TableCode::kOk;
          out.etag = w.op.etag;
          co_return out;
        }
        continue;  // lost the race (another writer or the migrator's copy)
      }
    }
    // Some live row seems to exist: linearize the failure against the
    // guarded authoritative state (it may have vanished — then retry).
    const TableCode code =
        co_await LinearizeFailure(key, kAnyEtag, spec, /*for_insert=*/true);
    if (code == TableCode::kAlreadyExists) {
      co_return MtResult::Of(TableCode::kAlreadyExists);
    }
    if (code == TableCode::kInvalid) {
      break;
    }
    // code == kOk: the key is authoritatively absent now; retry the insert.
  }
  co_return MtResult::Of(TableCode::kInvalid);
}

TaskOf<MtResult> MigratingTable::ReplaceNew(const TableKey& key,
                                            const Properties& props,
                                            Etag cond_etag,
                                            const LogicalWriteSpec& spec) {
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    auto probe_call =
        client_.Execute(TableSel::kNew, TableOpRetrieve{key}, nullptr);
    BackendResult rn = co_await std::move(probe_call);
    if (rn.op.row.has_value() && !IsTombstone(rn.op.row->properties)) {
      const QueryRow current{*rn.op.row, rn.op.row_etag};
      if (MatchesVirtual(current, cond_etag)) {
        TableOpWrite write;
        write.op.kind = WriteKind::kReplace;
        write.op.row.key = key;
        write.op.row.properties = props;
        write.op.etag = rn.op.row_etag;  // CAS on the row we validated
        LinFn lin = [spec](const BackendResult& r) {
          std::vector<LinAction> actions;
          if (r.op.Ok()) {
            actions.push_back(LinWrite{spec, TableCode::kOk});
          }
          return actions;
        };
        auto write_call =
            client_.Execute(TableSel::kNew, write, std::move(lin));
        BackendResult w = co_await std::move(write_call);
        if (w.op.Ok()) {
          MtResult out;
          out.code = TableCode::kOk;
          out.etag = w.op.etag;
          co_return out;
        }
        continue;
      }
      // fall through to failure linearization
    } else if (!rn.op.row.has_value()) {
      auto old_probe =
          client_.Execute(TableSel::kOld, TableOpRetrieve{key}, nullptr);
      BackendResult ro = co_await std::move(old_probe);
      if (ro.op.row.has_value()) {
        const QueryRow current{*ro.op.row, ro.op.row_etag};
        if (MatchesVirtual(current, cond_etag)) {
          // The authoritative row lives in the old table: the replacement is
          // written to the new table (insert-if-absent races the migrator's
          // copy; losing the race means retrying against the copied row).
          TableOpWrite write;
          write.op.kind = WriteKind::kInsert;
          write.op.row.key = key;
          write.op.row.properties = props;
          LinFn lin = [spec](const BackendResult& r) {
            std::vector<LinAction> actions;
            if (r.op.Ok()) {
              actions.push_back(LinWrite{spec, TableCode::kOk});
            }
            return actions;
          };
          auto write_call =
              client_.Execute(TableSel::kNew, write, std::move(lin));
          BackendResult w = co_await std::move(write_call);
          if (w.op.Ok()) {
            MtResult out;
            out.code = TableCode::kOk;
            out.etag = w.op.etag;
            co_return out;
          }
          continue;
        }
      }
      // fall through to failure linearization
    }
    // Tombstone, absent, or mismatch: decide and linearize the failure
    // against the guarded authoritative state.
    const TableCode code =
        co_await LinearizeFailure(key, cond_etag, spec, /*for_insert=*/false);
    if (code == TableCode::kNotFound || code == TableCode::kConditionNotMet) {
      co_return MtResult::Of(code);
    }
    if (code == TableCode::kInvalid) {
      break;
    }
    // code == kOk: the row matches again; retry the replace.
  }
  co_return MtResult::Of(TableCode::kInvalid);
}

TaskOf<MtResult> MigratingTable::UpsertNew(const TableKey& key,
                                           const Properties& props,
                                           const LogicalWriteSpec& spec) {
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    auto call17_ = client_.Execute(TableSel::kNew, TableOpRetrieve{key}, nullptr);
    BackendResult rn =
        co_await std::move(call17_);
    WriteOp op;
    op.row.key = key;
    op.row.properties = props;
    if (rn.op.row.has_value()) {
      op.kind = WriteKind::kReplace;
      op.etag = rn.op.row_etag;
    } else {
      op.kind = WriteKind::kInsert;
    }
    LinFn lin = [spec](const BackendResult& r) {
      std::vector<LinAction> actions;
      if (r.op.Ok()) {
        actions.push_back(LinWrite{spec, TableCode::kOk});
      }
      return actions;
    };
    auto call18_ = client_.Execute(TableSel::kNew, TableOpWrite::Unfenced(op),
                                   std::move(lin));
    BackendResult w = co_await std::move(call18_);
    if (w.op.Ok()) {
      MtResult out;
      out.code = TableCode::kOk;
      out.etag = w.op.etag;
      co_return out;
    }
  }
  co_return MtResult::Of(TableCode::kInvalid);
}

TaskOf<MtResult> MigratingTable::DeleteNew(const TableKey& key, Etag cond_etag,
                                           const LogicalWriteSpec& spec,
                                           PartitionState state,
                                           const std::string& stale_partition) {
  // BUG DeletePrimaryKey: the backend key is built from the table's cached
  // "current partition" context — stale from the previous operation —
  // rather than from the operation's own primary key.
  const TableKey target{bugs_.delete_primary_key ? stale_partition
                                                 : key.partition,
                        key.row};
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    auto probe_call =
        client_.Execute(TableSel::kNew, TableOpRetrieve{target}, nullptr);
    BackendResult rn = co_await std::move(probe_call);
    if (rn.op.row.has_value() && !IsTombstone(rn.op.row->properties)) {
      const QueryRow current{*rn.op.row, rn.op.row_etag};
      const bool plain = state == PartitionState::kSwitched;
      bool matches = MatchesVirtual(current, cond_etag);
      if (plain && bugs_.delete_no_leave_tombstones_etag) {
        // BUG DeleteNoLeaveTombstonesEtag: the plain-delete path (the one
        // that does not need tombstones) forgets to honor the caller's etag.
        matches = true;
      }
      if (matches) {
        TableOpWrite write;
        write.op.row.key = target;
        write.op.etag = rn.op.row_etag;
        if (plain) {
          write.op.kind = WriteKind::kDelete;
        } else {
          // Tombstone regime: replace the row with a tombstone so the
          // shadowed old-table row cannot resurface.
          write.op.kind = WriteKind::kReplace;
          write.op.row.properties = Properties{{kTombstoneProp, "1"}};
        }
        LinFn lin = [spec](const BackendResult& r) {
          std::vector<LinAction> actions;
          if (r.op.Ok()) {
            actions.push_back(LinWrite{spec, TableCode::kOk});
          }
          return actions;
        };
        auto write_call =
            client_.Execute(TableSel::kNew, write, std::move(lin));
        BackendResult w = co_await std::move(write_call);
        if (w.op.Ok()) {
          co_return MtResult::Of(TableCode::kOk);
        }
        continue;
      }
      // fall through to failure linearization
    } else if (!rn.op.row.has_value()) {
      auto old_probe =
          client_.Execute(TableSel::kOld, TableOpRetrieve{target}, nullptr);
      BackendResult ro = co_await std::move(old_probe);
      if (ro.op.row.has_value()) {
        const QueryRow current{*ro.op.row, ro.op.row_etag};
        if (MatchesVirtual(current, cond_etag)) {
          // Authoritative row in the old table: shadow it with a tombstone.
          TableOpWrite write;
          write.op.kind = WriteKind::kInsert;
          write.op.row.key = target;
          write.op.row.properties = Properties{{kTombstoneProp, "1"}};
          LinFn lin = [spec](const BackendResult& r) {
            std::vector<LinAction> actions;
            if (r.op.Ok()) {
              actions.push_back(LinWrite{spec, TableCode::kOk});
            }
            return actions;
          };
          auto write_call =
              client_.Execute(TableSel::kNew, write, std::move(lin));
          BackendResult w = co_await std::move(write_call);
          if (w.op.Ok()) {
            co_return MtResult::Of(TableCode::kOk);
          }
          continue;
        }
      }
      // fall through to failure linearization
    }
    const TableCode code = co_await LinearizeFailure(target, cond_etag, spec,
                                                     /*for_insert=*/false);
    if (code == TableCode::kNotFound || code == TableCode::kConditionNotMet) {
      co_return MtResult::Of(code);
    }
    if (code == TableCode::kInvalid) {
      break;
    }
  }
  co_return MtResult::Of(TableCode::kInvalid);
}

// ---------------------------------------------------------------------------
// Reads.

TaskOf<MtResult> MigratingTable::Retrieve(const TableKey& key) {
  last_partition_ = key.partition;
  MtResult out;

  // Merged point read under a two-table interference guard: read both
  // tables, then confirm neither table changed across the window. When the
  // guard holds, the virtual table was constant over the whole read, so the
  // merged answer (new shadows old, tombstones mean absent) is valid at the
  // final guard op — the linearization point. On interference, retry.
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    auto guard0_call = client_.Execute(TableSel::kOld, TableOpMutationCount{},
                                       nullptr);
    BackendResult guard0 = co_await std::move(guard0_call);
    auto new_call =
        client_.Execute(TableSel::kNew, TableOpRetrieve{key}, nullptr);
    BackendResult rn = co_await std::move(new_call);
    auto old_call =
        client_.Execute(TableSel::kOld, TableOpRetrieve{key}, nullptr);
    BackendResult ro = co_await std::move(old_call);

    // Merge decision.
    std::optional<TableRow> merged_row;
    Etag merged_etag = chaintable::kInvalidEtag;
    if (rn.op.row.has_value()) {
      if (!IsTombstone(rn.op.row->properties)) {
        merged_row = TableRow{key, StripMeta(rn.op.row->properties)};
        merged_etag = rn.op.row_etag;
      }
    } else if (ro.op.row.has_value()) {
      merged_row = TableRow{key, StripMeta(ro.op.row->properties)};
      merged_etag = ro.op.row_etag;
    }

    const std::uint64_t old0 = guard0.mutation_count_old;
    const std::uint64_t new0 = guard0.mutation_count_new;
    const std::optional<TableRow> lin_row = merged_row;
    LinFn lin = [key, lin_row, old0, new0](const BackendResult& r) {
      std::vector<LinAction> actions;
      if (r.mutation_count_old == old0 && r.mutation_count_new == new0) {
        LinReadCheck check;
        check.key = key;
        if (lin_row.has_value()) {
          check.expected = lin_row->properties;
        }
        actions.push_back(check);
      }
      return actions;
    };
    auto guard1_call = client_.Execute(TableSel::kNew, TableOpMutationCount{},
                                       std::move(lin));
    BackendResult guard1 = co_await std::move(guard1_call);
    if (guard1.mutation_count_old != old0 ||
        guard1.mutation_count_new != new0) {
      continue;  // a writer or the migrator interfered: retry
    }
    if (merged_row.has_value()) {
      out.code = TableCode::kOk;
      out.row = merged_row;
      out.etag = merged_etag;
    } else {
      out.code = TableCode::kNotFound;
    }
    co_return out;
  }
  co_return MtResult::Of(TableCode::kInvalid);
}

namespace {

/// Merges the two backend snapshots (new shadows old), drops tombstones,
/// strips meta properties and applies the user filter.
std::vector<TableRow> MergeSnapshots(const std::vector<QueryRow>& old_rows,
                                     const std::vector<QueryRow>& new_rows,
                                     const Filter& user_filter) {
  std::map<TableKey, const QueryRow*> merged;
  for (const QueryRow& row : old_rows) {
    merged[row.row.key] = &row;
  }
  for (const QueryRow& row : new_rows) {
    merged[row.row.key] = &row;  // new shadows old
  }
  std::vector<TableRow> out;
  for (const auto& [key, row] : merged) {
    if (key.partition == kMetaPartition) continue;
    if (IsTombstone(row->row.properties)) continue;
    TableRow clean{key, StripMeta(row->row.properties)};
    if (user_filter.Matches(clean)) {
      out.push_back(std::move(clean));
    }
  }
  return out;
}

}  // namespace

TaskOf<MtResult> MigratingTable::QueryAtomic(const Filter& filter) {
  last_partition_ = filter.partition.value_or(last_partition_);
  MtResult out;

  // Merged atomic query (used in every migration state — with an untouched
  // partition the new-table snapshot is empty and merging degenerates to the
  // old-table snapshot): snapshot both tables inside a double mutation-count
  // guard; if either table changed during the window, retry. When the guard
  // holds, the virtual table was constant across the window, so the merged
  // answer is valid at the final guard read — the linearization point.
  //
  // BUG QueryAtomicFilterShadowing: pushing the user filter into the backend
  // snapshots means a new-table row that does not match the filter cannot
  // shadow its stale (matching) old-table version.
  Filter backend = bugs_.query_atomic_filter_shadowing
                       ? filter
                       : Filter::OfPartition(filter.partition);
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    auto guard0_call = client_.Execute(TableSel::kOld, TableOpMutationCount{},
                                       nullptr);
    BackendResult guard0 = co_await std::move(guard0_call);
    auto old_call = client_.Execute(TableSel::kOld,
                                    TableOpQueryAtomic{backend}, nullptr);
    BackendResult so = co_await std::move(old_call);
    auto new_call = client_.Execute(TableSel::kNew,
                                    TableOpQueryAtomic{backend}, nullptr);
    BackendResult sn = co_await std::move(new_call);
    const std::vector<TableRow> merged =
        MergeSnapshots(so.rows, sn.rows, filter);
    const std::uint64_t old0 = guard0.mutation_count_old;
    const std::uint64_t new0 = guard0.mutation_count_new;
    LinFn lin = [filter, merged, old0, new0](const BackendResult& r) {
      std::vector<LinAction> actions;
      if (r.mutation_count_old == old0 && r.mutation_count_new == new0) {
        actions.push_back(LinQueryCheck{filter, merged});
      }
      return actions;
    };
    auto guard1_call = client_.Execute(TableSel::kNew, TableOpMutationCount{},
                                       std::move(lin));
    BackendResult guard1 = co_await std::move(guard1_call);
    if (guard1.mutation_count_old == old0 &&
        guard1.mutation_count_new == new0) {
      out.code = TableCode::kOk;
      out.rows = merged;
      co_return out;
    }
  }
  co_return MtResult::Of(TableCode::kInvalid);
}

// ---------------------------------------------------------------------------
// Streaming queries.

TaskOf<std::uint64_t> MigratingTable::StreamStart(const Filter& filter) {
  stream_ = StreamState{};
  // Stream ids are namespaced by client so concurrent services' streams
  // cannot collide at the checker.
  stream_.id = (client_.ClientKey() << 20) | next_stream_id_++;
  stream_.open = true;
  stream_.user_filter = filter;

  const std::uint64_t id = stream_.id;
  LinFn lin = [id, filter](const BackendResult&) {
    return std::vector<LinAction>{LinStreamStart{id, filter}};
  };
  auto call38_ = client_.Execute(TableSel::kOld, TableOpMutationCount{},
                                 std::move(lin));
  (void)co_await std::move(call38_);
  if (bugs_.query_streamed_lock) {
    auto call39_ = client_.Execute(
        TableSel::kNew,
        TableOpQueryAtomic{Filter::OfPartition(stream_.user_filter.partition)},
        nullptr);
    // BUG QueryStreamedLock: snapshot the new table once at stream start and
    // serve all "new side" reads from the snapshot instead of re-reading
    // under the lock — rows the migrator moves into the new table
    // mid-stream are invisible.
    BackendResult snap = co_await std::move(call39_);
    stream_.new_snapshot = snap.rows;
  }
  co_return id;
}

TaskOf<MtResult> MigratingTable::StreamNext() {
  MtResult out;
  out.code = TableCode::kOk;
  if (!stream_.open) {
    out.code = TableCode::kInvalid;
    co_return out;
  }
  // BUG QueryStreamedFilterShadowing: push the user filter into the backend
  // reads; a non-matching new row then fails to shadow a matching old one.
  const Filter base = bugs_.query_streamed_filter_shadowing
                          ? stream_.user_filter
                          : Filter::OfPartition(stream_.user_filter.partition);

  for (int round = 0; round < 1'000; ++round) {
    auto call40_ = client_.Execute(
        TableSel::kOld, TableOpQueryAbove{base, stream_.last_key}, nullptr);
    BackendResult old_peek = co_await std::move(call40_);

    std::optional<QueryRow> new_candidate;
    if (bugs_.query_streamed_lock) {
      for (const QueryRow& row : stream_.new_snapshot) {
        if (!stream_.last_key || row.row.key > *stream_.last_key) {
          new_candidate = row;
          break;
        }
      }
    } else {
      std::optional<TableKey> after = stream_.last_key;
      if (bugs_.query_streamed_backup_new_stream) {
        // BUG QueryStreamedBackUpNewStream: a forward-only cursor over the
        // new table. A row the migrator inserts *behind* the cursor (while
        // deleting it from the old table ahead of the old cursor) is missed,
        // even though the insertion happened before the deletion (§6.2).
        if (stream_.new_cursor &&
            (!after || *stream_.new_cursor > *after)) {
          after = stream_.new_cursor;
        }
      }
      auto call41_ = client_.Execute(
          TableSel::kNew, TableOpQueryAbove{base, after}, nullptr);
      BackendResult np = co_await std::move(call41_);
      new_candidate = np.above;
      if (bugs_.query_streamed_backup_new_stream && new_candidate) {
        stream_.new_cursor = new_candidate->row.key;
      }
    }

    // Merge decision: smaller key wins; the new table shadows the old.
    std::optional<QueryRow> winner;
    if (old_peek.above && new_candidate) {
      winner = new_candidate->row.key <= old_peek.above->row.key
                   ? new_candidate
                   : old_peek.above;
    } else if (old_peek.above) {
      winner = old_peek.above;
    } else {
      winner = new_candidate;
    }

    if (!winner.has_value()) {
      const std::uint64_t id = stream_.id;
      LinFn lin = [id](const BackendResult&) {
        return std::vector<LinAction>{LinStreamEnd{id}};
      };
      auto call42_ = client_.Execute(TableSel::kOld, TableOpMutationCount{},
                                     std::move(lin));
      (void)co_await std::move(call42_);
      stream_.open = false;
      co_return out;  // row empty: end of stream
    }

    stream_.last_key = winner->row.key;
    if (winner->row.key.partition == kMetaPartition ||
        IsTombstone(winner->row.properties)) {
      continue;  // authoritatively absent: skip
    }
    TableRow clean{winner->row.key, StripMeta(winner->row.properties)};
    if (!stream_.user_filter.Matches(clean)) {
      continue;
    }
    // Emit. The linearization anchor is a fresh backend no-op so the checker
    // records the emission at a well-defined instant.
    const std::uint64_t id = stream_.id;
    LinFn lin = [id, clean](const BackendResult&) {
      return std::vector<LinAction>{LinStreamEmit{id, clean}};
    };
    auto call43_ = client_.Execute(TableSel::kOld, TableOpMutationCount{},
                                   std::move(lin));
    (void)co_await std::move(call43_);
    out.row = clean;
    out.etag = winner->etag;
    co_return out;
  }
  co_return MtResult::Of(TableCode::kInvalid);
}

}  // namespace mtable
