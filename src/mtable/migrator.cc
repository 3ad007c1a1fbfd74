#include "mtable/migrator.h"

namespace mtable {

using chaintable::Filter;
using chaintable::kAnyEtag;
using chaintable::Properties;
using chaintable::QueryRow;
using chaintable::TableCode;
using chaintable::WriteKind;
using chaintable::WriteOp;
using systest::Task;
using systest::TaskOf;

MigratorMachine::MigratorMachine(systest::MachineId tables,
                                 systest::MachineId driver,
                                 std::vector<systest::MachineId> services,
                                 std::vector<std::string> partitions,
                                 MTableBugs bugs)
    : BackendClientMachine(tables),
      driver_(driver),
      services_(std::move(services)),
      partitions_(std::move(partitions)),
      bugs_(bugs) {
  State("Migrating").OnEntry(&MigratorMachine::Migrate);
  SetStart("Migrating");
}

TaskOf<PartitionState> MigratorMachine::ReadState(
    const std::string& partition) {
  auto call1_ = Execute(
      TableSel::kNew, TableOpRetrieve{StateRowKey(partition)}, nullptr);
  BackendResult r = co_await std::move(call1_);
  if (!r.op.row.has_value()) {
    co_return PartitionState::kUnpopulated;
  }
  const auto it = r.op.row->properties.find("s");
  co_return it == r.op.row->properties.end()
      ? PartitionState::kUnpopulated
      : static_cast<PartitionState>(std::stoi(it->second));
}

Task MigratorMachine::SetState(const std::string& partition,
                               PartitionState state) {
  WriteOp op;
  op.kind = WriteKind::kInsertOrReplace;
  op.row.key = StateRowKey(partition);
  op.row.properties = Properties{
      {"s", std::to_string(static_cast<int>(state))}};
  auto call2_ = Execute(TableSel::kNew, TableOpWrite::Unfenced(op), nullptr);
  BackendResult r =
      co_await std::move(call2_);
  Assert(r.op.Ok(), "migrator failed to update partition state");
}

Task MigratorMachine::SettleAll() {
  // Settling barrier: every service acknowledges once its in-flight logical
  // operation (if any) has finished. Models waiting out the config lease.
  const std::uint64_t epoch = ++barrier_epoch_;
  for (const systest::MachineId service : services_) {
    Send<SettleBarrier>(service, Id(), epoch);
  }
  for (std::size_t i = 0; i < services_.size(); ++i) {
    auto ack = co_await Receive<SettleAck>();
    Assert(ack->epoch == epoch, "settle ack from a stale epoch");
  }
}

Task MigratorMachine::EnsurePartitionSwitched(const std::string& partition) {
  PartitionState state = co_await ReadState(partition);
  if (state == PartitionState::kSwitched) {
    co_return;
  }

  if (!bugs_.ensure_partition_switched_from_populated) {
    // Correct path: a partition may only be switched from Populated; drive
    // it through the earlier states first. Each state flip rewrites the
    // state row and therefore invalidates the configuration fence of every
    // in-flight old-table write: once the Populated flip below has executed,
    // no old-table write can commit, so the populate snapshot is complete.
    // (BUG MigrateSkipPreferOld lives on the writer side: it skips the
    // fence, letting an old write land after this snapshot.)
    if (state == PartitionState::kUnpopulated) {
      co_await SetState(partition, PartitionState::kPopulating);
      state = PartitionState::kPopulating;
    }
    if (state == PartitionState::kPopulating) {
      co_await SetState(partition, PartitionState::kPopulated);
    }
    // Populate: copy every old row into the new table. Insert-if-absent
    // loses to application writes (which are newer); the __orig property
    // preserves the old backend etag so conditional operations keep working
    // across the move.
    auto call3_ = Execute(
        TableSel::kOld, TableOpQueryAtomic{Filter::OfPartition(partition)},
        nullptr);
    BackendResult snapshot = co_await std::move(call3_);
    for (const QueryRow& row : snapshot.rows) {
      WriteOp op;
      op.kind = WriteKind::kInsert;
      op.row.key = row.row.key;
      op.row.properties = row.row.properties;
      op.row.properties[kOrigEtagProp] = std::to_string(row.etag);
      auto call4_ =
          Execute(TableSel::kNew, TableOpWrite::Unfenced(op), nullptr);
      BackendResult r =
          co_await std::move(call4_);
      Assert(r.op.code == TableCode::kOk ||
                 r.op.code == TableCode::kAlreadyExists,
             "migrator copy failed unexpectedly");
    }
  }
  // else: BUG EnsurePartitionSwitchedFromPopulated — the state check above
  // is skipped entirely and we fall straight through to the switch, deleting
  // old rows that were never copied.

  if (bugs_.migrate_skip_use_new_with_tombstones) {
    // BUG MigrateSkipUseNewWithTombstones: mark the partition Switched
    // before the old rows are gone. Services then issue plain (tombstone-
    // less) deletes while old rows can still resurface through merged reads.
    co_await SetState(partition, PartitionState::kSwitched);
  }

  // Delete all old rows of the partition (re-query until empty so that rows
  // a buggy writer slipped in behind the copy are removed too — which is how
  // InsertBehindMigrator loses data).
  for (;;) {
    auto call5_ = Execute(
        TableSel::kOld, TableOpQueryAtomic{Filter::OfPartition(partition)},
        nullptr);
    BackendResult left = co_await std::move(call5_);
    if (left.rows.empty()) {
      break;
    }
    for (const QueryRow& row : left.rows) {
      WriteOp op;
      op.kind = WriteKind::kDelete;
      op.row.key = row.row.key;
      op.etag = kAnyEtag;
      auto call6_ =
          Execute(TableSel::kOld, TableOpWrite::Unfenced(op), nullptr);
      (void)co_await std::move(call6_);
    }
  }

  if (!bugs_.migrate_skip_use_new_with_tombstones) {
    co_await SetState(partition, PartitionState::kSwitched);
  }
}

Task MigratorMachine::SweepTombstones() {
  auto call7_ = Execute(
      TableSel::kNew, TableOpQueryAtomic{Filter{}}, nullptr);
  BackendResult all = co_await std::move(call7_);
  for (const QueryRow& row : all.rows) {
    if (!IsTombstone(row.row.properties)) {
      continue;
    }
    WriteOp op;
    op.kind = WriteKind::kDelete;
    op.row.key = row.row.key;
    op.etag = row.etag;
    // A concurrent insert-over-tombstone may beat us; that is fine — the
    // conditional delete then fails and the row (now live) stays.
    auto call8_ = Execute(TableSel::kNew, TableOpWrite::Unfenced(op), nullptr);
    (void)co_await std::move(call8_);
  }
}

void MigratorMachine::OnCrash() { Send<MigratorCrashed>(driver_); }

Task MigratorMachine::Migrate() {
  for (const std::string& partition : partitions_) {
    co_await EnsurePartitionSwitched(partition);
  }
  // Settle so every in-flight operation that could still create a tombstone
  // (observed state <= Populated) finishes before the sweep.
  co_await SettleAll();
  co_await SweepTombstones();
  // Close the crash window in the same atomic segment that announces
  // completion (a no-op when this job was never crashable): the fault plane
  // can no longer kill a job whose MigrationDone is already on the wire, so
  // the driver never launches a redundant replacement.
  Rt().SetCrashable(Id(), false);
  Send<MigrationDone>(driver_);
}

}  // namespace mtable
