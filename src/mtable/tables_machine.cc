#include "mtable/tables_machine.h"

#include <algorithm>
#include <set>

#include "mtable/migrating_table.h"  // StripMeta / IsTombstone
#include "mtable/monitors.h"

namespace mtable {

using chaintable::Etag;
using chaintable::Filter;
using chaintable::kAnyEtag;
using chaintable::OpResult;
using chaintable::Properties;
using chaintable::QueryRow;
using chaintable::TableCode;
using chaintable::TableKey;
using chaintable::TableRow;
using chaintable::WriteOp;

TablesMachine::TablesMachine(std::vector<chaintable::TableRow> initial_rows)
    : initial_rows_(std::move(initial_rows)) {
  SeedInitialRows();
  State("Serving")
      .On<BackendRequest>(&TablesMachine::OnRequest)
      .On<VerifyTables>(&TablesMachine::OnVerify);
  SetStart("Serving");
}

void TablesMachine::SeedInitialRows() {
  for (const TableRow& row : initial_rows_) {
    WriteOp op;
    op.kind = chaintable::WriteKind::kInsert;
    op.row = row;
    const OpResult old_result = old_.ExecuteWrite(op);
    const OpResult rt_result = rt_.ExecuteWrite(op);
    (void)old_result;
    (void)rt_result;
    history_[row.key].push_back(HistoryEntry{0, row.properties});
  }
}

void TablesMachine::OnReset() {
  old_.Reset(1, 3);
  new_.Reset(2, 3);
  rt_.Reset(3, 3);
  rt_slots_.clear();
  seq_ = 0;
  history_.clear();
  streams_.clear();
  verified_ = false;
  SeedInitialRows();
}

BackendResult TablesMachine::ExecuteOn(chaintable::IChainTable& table,
                                       const TableOp& op) {
  BackendResult result;
  if (const auto* write = std::get_if<TableOpWrite>(&op)) {
    if (write->fenced) {
      // Configuration fence: the write proceeds only if the fence row in the
      // NEW table is unchanged since the writer observed it (kInvalidEtag
      // means "was absent"). Checked atomically with the write — both tables
      // live inside this machine's step.
      const OpResult fence = new_.Retrieve(write->fence_key);
      const Etag current = fence.row.has_value() ? fence.row_etag
                                                 : chaintable::kInvalidEtag;
      if (current != write->fence_etag) {
        result.fence_failed = true;
        result.op.code = TableCode::kConditionNotMet;
        return result;
      }
    }
    result.op = table.ExecuteWrite(write->op);
  } else if (const auto* get = std::get_if<TableOpRetrieve>(&op)) {
    result.op = table.Retrieve(get->key);
  } else if (const auto* q = std::get_if<TableOpQueryAtomic>(&op)) {
    result.rows = table.ExecuteQueryAtomic(q->filter);
    result.op.code = TableCode::kOk;
  } else if (const auto* qa = std::get_if<TableOpQueryAbove>(&op)) {
    result.above = table.QueryAbove(qa->filter, qa->after);
    result.op.code = TableCode::kOk;
  } else {
    result.mutation_count = table.MutationCount();
    result.op.code = TableCode::kOk;
  }
  return result;
}

void TablesMachine::OnRequest(const BackendRequest& request) {
  chaintable::IChainTable& table =
      request.table == TableSel::kOld
          ? static_cast<chaintable::IChainTable&>(old_)
          : static_cast<chaintable::IChainTable&>(new_);
  BackendResult result = ExecuteOn(table, request.op);
  result.mutation_count_old = old_.MutationCount();
  result.mutation_count_new = new_.MutationCount();
  if (request.lin) {
    // The linearization function runs atomically with the backend operation:
    // nothing else can touch the tables or the RT until this step finishes.
    RunLinActions(request.lin(result), request.reply_to);
  }
  Send<BackendResponse>(request.reply_to, request.request_id,
                        std::move(result));
}

void TablesMachine::RunLinActions(const std::vector<LinAction>& actions,
                                  systest::MachineId service) {
  for (const LinAction& action : actions) {
    if (const auto* write = std::get_if<LinWrite>(&action)) {
      ApplyLinWrite(*write, service);
    } else if (const auto* read = std::get_if<LinReadCheck>(&action)) {
      CheckRead(*read);
    } else if (const auto* query = std::get_if<LinQueryCheck>(&action)) {
      CheckQuery(*query);
    } else if (const auto* start = std::get_if<LinStreamStart>(&action)) {
      StreamStarted(*start);
    } else if (const auto* emit = std::get_if<LinStreamEmit>(&action)) {
      StreamEmitted(*emit);
    } else if (const auto* end = std::get_if<LinStreamEnd>(&action)) {
      StreamEnded(*end);
    }
  }
}

void TablesMachine::ApplyLinWrite(const LinWrite& action,
                                  systest::MachineId service) {
  const LogicalWriteSpec& spec = action.spec;
  WriteOp op;
  op.kind = spec.kind;
  op.row.key = spec.key;
  op.row.properties = spec.properties;
  op.etag = kAnyEtag;
  if (spec.etag.kind == EtagRef::Kind::kSlot) {
    const auto it = rt_slots_.find({service.value, spec.etag.slot});
    // A slot that was never filled corresponds to an etag the service never
    // obtained; the harness substitutes kAny on both sides in that case, so
    // finding the slot missing here indicates a harness inconsistency.
    Assert(it != rt_slots_.end(), "RT etag slot never filled");
    op.etag = it->second;
  }
  const OpResult rt_result = rt_.ExecuteWrite(op);
  Assert(rt_result.code == action.expected, [&] {
    return "MT/RT divergence on " + std::string(ToString(spec.kind)) + " " +
           spec.key.ToString() + ": MT returned " +
           std::string(ToString(action.expected)) + " but RT returned " +
           std::string(ToString(rt_result.code));
  });
  if (rt_result.Ok()) {
    if (spec.out_slot >= 0) {
      rt_slots_[{service.value, spec.out_slot}] = rt_result.etag;
    }
    RecordHistory(spec.key);
  }
}

void TablesMachine::RecordHistory(const TableKey& key) {
  ++seq_;
  const OpResult current = rt_.Retrieve(key);
  history_[key].push_back(HistoryEntry{
      seq_, current.row.has_value()
                ? std::optional<Properties>(current.row->properties)
                : std::nullopt});
}

void TablesMachine::CheckRead(const LinReadCheck& action) {
  const OpResult rt_result = rt_.Retrieve(action.key);
  const std::optional<Properties> rt_value =
      rt_result.row.has_value()
          ? std::optional<Properties>(rt_result.row->properties)
          : std::nullopt;
  Assert(rt_value == action.expected, [&] {
    return "MT/RT divergence on Retrieve " + action.key.ToString() +
           ": MT saw " + (action.expected ? "a row" : "no row") +
           " but RT has " + (rt_value ? "a row" : "no row") +
           " (or the contents differ)";
  });
}

void TablesMachine::CheckQuery(const LinQueryCheck& action) {
  const std::vector<QueryRow> rt_rows =
      rt_.ExecuteQueryAtomic(action.filter);
  bool equal = rt_rows.size() == action.expected.size();
  if (equal) {
    for (std::size_t i = 0; i < rt_rows.size(); ++i) {
      if (rt_rows[i].row.key != action.expected[i].key ||
          rt_rows[i].row.properties != action.expected[i].properties) {
        equal = false;
        break;
      }
    }
  }
  Assert(equal, [&] {
    return "MT/RT divergence on atomic query " + action.filter.ToString() +
           ": MT returned " + std::to_string(action.expected.size()) +
           " rows, RT holds " + std::to_string(rt_rows.size()) +
           " (or contents differ)";
  });
}

void TablesMachine::StreamStarted(const LinStreamStart& action) {
  StreamInfo info;
  info.filter = action.filter;
  info.start_seq = seq_;
  info.open = true;
  streams_[action.stream] = info;
}

std::vector<std::optional<Properties>> TablesMachine::HistoryWindow(
    const TableKey& key, std::uint64_t from_seq) const {
  std::vector<std::optional<Properties>> window;
  const auto it = history_.find(key);
  if (it == history_.end()) {
    window.push_back(std::nullopt);  // never existed: absent throughout
    return window;
  }
  // Value at window start = last entry with seq <= from_seq (absent if the
  // key's first entry is later than the window start).
  std::optional<Properties> at_start;
  bool have_start = false;
  for (const HistoryEntry& entry : it->second) {
    if (entry.seq <= from_seq) {
      at_start = entry.value;
      have_start = true;
    } else {
      if (!have_start) {
        window.push_back(std::nullopt);
        have_start = true;
      } else if (window.empty()) {
        window.push_back(at_start);
      }
      window.push_back(entry.value);
    }
  }
  if (window.empty()) {
    window.push_back(have_start ? at_start : std::nullopt);
  }
  return window;
}

void TablesMachine::CheckSkippedKeys(std::uint64_t stream_id,
                                     const std::optional<TableKey>& from,
                                     const std::optional<TableKey>& to) {
  const StreamInfo& info = streams_.at(stream_id);
  // Candidate keys: everything the history has ever seen in the range.
  for (const auto& [key, entries] : history_) {
    if (from && !(key > *from)) continue;
    if (to && !(key < *to)) continue;
    const auto window = HistoryWindow(key, info.start_seq);
    const bool excusable = std::any_of(
        window.begin(), window.end(),
        [&](const std::optional<Properties>& value) {
          if (!value.has_value()) return true;  // absent at some point
          return !info.filter.Matches(TableRow{key, *value});
        });
    Assert(excusable, [&] {
      return "stream " + std::to_string(stream_id) + " skipped key " +
             key.ToString() +
             " which matched the filter for the entire stream window";
    });
  }
}

void TablesMachine::StreamEmitted(const LinStreamEmit& action) {
  auto it = streams_.find(action.stream);
  Assert(it != streams_.end() && it->second.open,
         "stream emit on unknown or closed stream");
  StreamInfo& info = it->second;
  // (a) ascending keys, no duplicates.
  Assert(!info.last_emitted || action.row.key > *info.last_emitted, [&] {
    return "stream " + std::to_string(action.stream) +
           " emitted keys out of order: " + action.row.key.ToString();
  });
  // (b) the emitted value matches the filter and some historical RT value
  // within the window.
  Assert(info.filter.Matches(action.row), [&] {
    return "stream emitted a row that does not match its filter: " +
           action.row.key.ToString();
  });
  const auto window = HistoryWindow(action.row.key, info.start_seq);
  const bool justified = std::any_of(
      window.begin(), window.end(),
      [&](const std::optional<Properties>& value) {
        return value.has_value() && *value == action.row.properties;
      });
  Assert(justified, [&] {
    return "stream " + std::to_string(action.stream) + " emitted row " +
           action.row.key.ToString() +
           " with contents the virtual table never held during the "
           "stream window";
  });
  // (c) keys between the previous emission and this one must have been
  // absent (or non-matching) at some point in the window.
  CheckSkippedKeys(action.stream, info.last_emitted,
                   std::optional<TableKey>(action.row.key));
  info.last_emitted = action.row.key;
}

void TablesMachine::StreamEnded(const LinStreamEnd& action) {
  auto it = streams_.find(action.stream);
  Assert(it != streams_.end() && it->second.open,
         "stream end on unknown or closed stream");
  CheckSkippedKeys(action.stream, it->second.last_emitted, std::nullopt);
  it->second.open = false;
}

void TablesMachine::OnVerify(const VerifyTables&) {
  // End-to-end postconditions after both the workload and the migration have
  // completed: the merged backend view must equal the RT, the old table must
  // be empty, and no tombstones may remain.
  Assert(old_.Empty(), [&] {
    return "old table not empty after migration completed: " +
           std::to_string(old_.RowCount()) + " rows left";
  });
  const std::vector<QueryRow> new_rows = new_.ExecuteQueryAtomic(Filter{});
  std::vector<TableRow> merged;
  for (const QueryRow& row : new_rows) {
    if (row.row.key.partition == kMetaPartition) continue;
    Assert(!IsTombstone(row.row.properties), [&] {
      return "tombstone row survived the sweep: " + row.row.key.ToString();
    });
    merged.push_back(TableRow{row.row.key, StripMeta(row.row.properties)});
  }
  const std::vector<QueryRow> rt_rows = rt_.ExecuteQueryAtomic(Filter{});
  bool equal = merged.size() == rt_rows.size();
  if (equal) {
    for (std::size_t i = 0; i < merged.size(); ++i) {
      if (merged[i].key != rt_rows[i].row.key ||
          merged[i].properties != rt_rows[i].row.properties) {
        equal = false;
        break;
      }
    }
  }
  if (!equal) {
    auto dump = [](const auto& rows) {
      std::string out;
      for (const auto& row : rows) {
        const TableRow* tr;
        if constexpr (std::is_same_v<std::decay_t<decltype(rows[0])>,
                                     QueryRow>) {
          tr = &row.row;
        } else {
          tr = &row;
        }
        out += ' ';
        out += tr->key.ToString();
        out += '{';
        for (const auto& [k, v] : tr->properties) {
          out += k;
          out += '=';
          out += v;
          out += ',';
        }
        out += '}';
      }
      return out;
    };
    std::string message = "final verification failed: migrated =";
    message += dump(merged);
    message += " | reference =";
    message += dump(rt_rows);
    Assert(false, message);
  }
  verified_ = true;
  Notify<MigrationLivenessMonitor, NotifyVerified>();
}

}  // namespace mtable
