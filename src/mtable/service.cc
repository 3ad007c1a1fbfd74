#include "mtable/service.h"

namespace mtable {

using chaintable::Etag;
using chaintable::Filter;
using chaintable::kAnyEtag;
using chaintable::Properties;
using chaintable::TableCode;
using chaintable::TableKey;
using chaintable::WriteKind;
using systest::Task;

ServiceMachine::ServiceMachine(systest::MachineId tables,
                               systest::MachineId driver,
                               ServiceOptions options)
    : BackendClientMachine(tables),
      driver_(driver),
      options_(std::move(options)),
      mt_(*this, options_.bugs) {
  State("Working")
      .OnEntry(&ServiceMachine::OnStart)
      .On<NextOp>(&ServiceMachine::OnNextOp)
      .On<SettleBarrier>(&ServiceMachine::OnBarrier);
  SetStart("Working");
}

void ServiceMachine::OnStart() { Send<NextOp>(Id()); }

void ServiceMachine::OnBarrier(const SettleBarrier& barrier) {
  // Handled between logical operations by construction (each operation runs
  // inside one NextOp handler): acknowledging here tells the migrator that
  // no operation of ours is in flight.
  Send<SettleAck>(barrier.migrator, barrier.epoch);
}

ScriptedOp ServiceMachine::GenerateOp() {
  ScriptedOp op;
  // Write-heavy mix: the interesting interleavings need mutation traffic
  // concurrent with the migrator.
  switch (NondetInt(10)) {
    case 0:
    case 1:
      op.kind = ScriptedOp::Kind::kInsert;
      break;
    case 2:
    case 3:
      op.kind = ScriptedOp::Kind::kReplace;
      break;
    case 4:
      op.kind = ScriptedOp::Kind::kUpsert;
      break;
    case 5:
    case 6:
      op.kind = ScriptedOp::Kind::kDelete;
      break;
    case 7:
      op.kind = ScriptedOp::Kind::kRetrieve;
      break;
    case 8:
      op.kind = ScriptedOp::Kind::kQuery;
      break;
    default:
      op.kind = ScriptedOp::Kind::kStreamScan;
      break;
  }
  op.partition =
      static_cast<int>(NondetInt(options_.partitions.size()));
  op.row = static_cast<int>(NondetInt(options_.row_keys.size()));
  std::string value = "v";
  value += std::to_string(NondetInt(options_.value_space));
  op.value = std::move(value);
  if (op.kind == ScriptedOp::Kind::kReplace ||
      op.kind == ScriptedOp::Kind::kDelete) {
    // ETag mode: match-any, or one of the stored slots (stale slots arise
    // naturally as later writes supersede them).
    const std::uint64_t mode = NondetInt(3);
    op.etag_slot = mode == 0 ? -1 : static_cast<int>(NondetInt(kSlots));
  }
  if (op.kind != ScriptedOp::Kind::kDelete &&
      op.kind != ScriptedOp::Kind::kRetrieve &&
      op.kind != ScriptedOp::Kind::kQuery &&
      op.kind != ScriptedOp::Kind::kStreamScan) {
    op.out_slot = static_cast<int>(NondetInt(kSlots));
  }
  if (op.kind == ScriptedOp::Kind::kQuery ||
      op.kind == ScriptedOp::Kind::kStreamScan) {
    op.filter_by_value = NondetInt(2) == 1;
  }
  return op;
}

Task ServiceMachine::OnNextOp(const NextOp&) {
  if (ops_done_ >=
      (options_.script.empty() ? options_.num_ops
                               : static_cast<int>(options_.script.size()))) {
    Send<ServiceDone>(driver_, options_.index);
    co_return;
  }
  const ScriptedOp op = options_.script.empty()
                            ? GenerateOp()
                            : options_.script[static_cast<std::size_t>(ops_done_)];
  ++ops_done_;
  co_await RunOp(op);
  Send<NextOp>(Id());
}

Task ServiceMachine::RunOp(const ScriptedOp& op) {
  const TableKey key{options_.partitions[static_cast<std::size_t>(op.partition)],
                     options_.row_keys[static_cast<std::size_t>(op.row)]};
  const Properties props{{"val", op.value}};

  // Resolve the etag condition on both sides: actual MT etag for the
  // protocol, symbolic slot for the checker. An unfilled slot degrades to
  // match-any on both sides.
  Etag cond = kAnyEtag;
  EtagRef ref = EtagRef::Any();
  if (op.etag_slot >= 0 && slots_[op.etag_slot].valid) {
    cond = slots_[op.etag_slot].etag;
    ref = EtagRef::Slot(op.etag_slot);
  }

  switch (op.kind) {
    case ScriptedOp::Kind::kInsert:
    case ScriptedOp::Kind::kReplace:
    case ScriptedOp::Kind::kUpsert:
    case ScriptedOp::Kind::kDelete: {
      WriteKind kind = WriteKind::kInsert;
      if (op.kind == ScriptedOp::Kind::kReplace) kind = WriteKind::kReplace;
      if (op.kind == ScriptedOp::Kind::kUpsert) {
        kind = WriteKind::kInsertOrReplace;
      }
      if (op.kind == ScriptedOp::Kind::kDelete) kind = WriteKind::kDelete;
      LogicalWriteSpec spec;
      spec.kind = kind;
      spec.key = key;
      spec.properties = props;
      spec.etag = ref;
      spec.out_slot = op.out_slot;
      MtResult result = co_await mt_.Write(kind, key, props, cond, spec);
      Assert(result.code != TableCode::kInvalid,
             "MigratingTable write gave up (interference cap exceeded)");
      if (result.Ok() && op.out_slot >= 0) {
        slots_[op.out_slot] = Slot{result.etag, true};
      }
      break;
    }
    case ScriptedOp::Kind::kRetrieve: {
      MtResult result = co_await mt_.Retrieve(key);
      Assert(result.code != TableCode::kInvalid, "retrieve gave up");
      break;
    }
    case ScriptedOp::Kind::kQuery: {
      Filter filter;
      filter.partition = key.partition;
      if (op.filter_by_value) {
        filter.property_equals = {"val", op.value};
      }
      MtResult result = co_await mt_.QueryAtomic(filter);
      Assert(result.code != TableCode::kInvalid,
             "atomic query gave up (interference cap exceeded)");
      break;
    }
    case ScriptedOp::Kind::kStreamScan: {
      Filter filter;
      filter.partition = key.partition;
      if (op.filter_by_value) {
        filter.property_equals = {"val", op.value};
      }
      (void)co_await mt_.StreamStart(filter);
      for (;;) {
        MtResult next = co_await mt_.StreamNext();
        Assert(next.code != TableCode::kInvalid, "stream scan gave up");
        if (!next.row.has_value()) {
          break;
        }
      }
      break;
    }
  }
}

}  // namespace mtable
