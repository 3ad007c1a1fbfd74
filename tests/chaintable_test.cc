// Unit tests for the IChainTable specification and its reference
// implementation (InMemoryChainTable): etag semantics, conditional writes,
// filters, atomic and cursor queries.
#include <gtest/gtest.h>

#include "chaintable/memory_table.h"

namespace {

using chaintable::Etag;
using chaintable::Filter;
using chaintable::InMemoryChainTable;
using chaintable::kAnyEtag;
using chaintable::OpResult;
using chaintable::Properties;
using chaintable::TableCode;
using chaintable::TableKey;
using chaintable::TableRow;
using chaintable::WriteKind;
using chaintable::WriteOp;

WriteOp MakeWrite(WriteKind kind, std::string partition, std::string row,
                  Properties props = {}, Etag etag = kAnyEtag) {
  WriteOp op;
  op.kind = kind;
  op.row.key = {std::move(partition), std::move(row)};
  op.row.properties = std::move(props);
  op.etag = etag;
  return op;
}

TEST(MemoryTable, InsertThenRetrieve) {
  InMemoryChainTable table;
  const OpResult w = table.ExecuteWrite(
      MakeWrite(WriteKind::kInsert, "P", "r", {{"a", "1"}}));
  ASSERT_EQ(w.code, TableCode::kOk);
  EXPECT_NE(w.etag, chaintable::kInvalidEtag);

  const OpResult r = table.Retrieve({"P", "r"});
  ASSERT_EQ(r.code, TableCode::kOk);
  EXPECT_EQ(r.row->properties.at("a"), "1");
  EXPECT_EQ(r.row_etag, w.etag);
}

TEST(MemoryTable, InsertDuplicateFails) {
  InMemoryChainTable table;
  table.ExecuteWrite(MakeWrite(WriteKind::kInsert, "P", "r"));
  const OpResult w = table.ExecuteWrite(MakeWrite(WriteKind::kInsert, "P", "r"));
  EXPECT_EQ(w.code, TableCode::kAlreadyExists);
}

TEST(MemoryTable, ReplaceHonorsEtag) {
  InMemoryChainTable table;
  const OpResult w1 = table.ExecuteWrite(
      MakeWrite(WriteKind::kInsert, "P", "r", {{"a", "1"}}));
  const OpResult ok = table.ExecuteWrite(
      MakeWrite(WriteKind::kReplace, "P", "r", {{"a", "2"}}, w1.etag));
  ASSERT_EQ(ok.code, TableCode::kOk);
  // The original etag is now stale.
  const OpResult stale = table.ExecuteWrite(
      MakeWrite(WriteKind::kReplace, "P", "r", {{"a", "3"}}, w1.etag));
  EXPECT_EQ(stale.code, TableCode::kConditionNotMet);
  // Match-any still works.
  const OpResult any = table.ExecuteWrite(
      MakeWrite(WriteKind::kReplace, "P", "r", {{"a", "4"}}, kAnyEtag));
  EXPECT_EQ(any.code, TableCode::kOk);
  EXPECT_EQ(table.Retrieve({"P", "r"}).row->properties.at("a"), "4");
}

TEST(MemoryTable, ReplaceMissingRowIsNotFound) {
  InMemoryChainTable table;
  const OpResult w = table.ExecuteWrite(MakeWrite(WriteKind::kReplace, "P", "r"));
  EXPECT_EQ(w.code, TableCode::kNotFound);
}

TEST(MemoryTable, MergeCombinesProperties) {
  InMemoryChainTable table;
  table.ExecuteWrite(MakeWrite(WriteKind::kInsert, "P", "r", {{"a", "1"}}));
  const OpResult m = table.ExecuteWrite(
      MakeWrite(WriteKind::kMerge, "P", "r", {{"b", "2"}}));
  ASSERT_EQ(m.code, TableCode::kOk);
  const OpResult r = table.Retrieve({"P", "r"});
  EXPECT_EQ(r.row->properties.at("a"), "1");
  EXPECT_EQ(r.row->properties.at("b"), "2");
}

TEST(MemoryTable, DeleteHonorsEtagAndRemoves) {
  InMemoryChainTable table;
  const OpResult w = table.ExecuteWrite(MakeWrite(WriteKind::kInsert, "P", "r"));
  const OpResult stale = table.ExecuteWrite(
      MakeWrite(WriteKind::kDelete, "P", "r", {}, w.etag + 1'000));
  EXPECT_EQ(stale.code, TableCode::kConditionNotMet);
  const OpResult del = table.ExecuteWrite(
      MakeWrite(WriteKind::kDelete, "P", "r", {}, w.etag));
  EXPECT_EQ(del.code, TableCode::kOk);
  EXPECT_EQ(table.Retrieve({"P", "r"}).code, TableCode::kNotFound);
}

TEST(MemoryTable, EtagsNeverRepeatAcrossDeleteAndReinsert) {
  InMemoryChainTable table;
  const OpResult w1 = table.ExecuteWrite(MakeWrite(WriteKind::kInsert, "P", "r"));
  table.ExecuteWrite(MakeWrite(WriteKind::kDelete, "P", "r"));
  const OpResult w2 = table.ExecuteWrite(MakeWrite(WriteKind::kInsert, "P", "r"));
  EXPECT_NE(w1.etag, w2.etag);
  // A pre-delete etag must not match the recreated row.
  const OpResult stale = table.ExecuteWrite(
      MakeWrite(WriteKind::kReplace, "P", "r", {}, w1.etag));
  EXPECT_EQ(stale.code, TableCode::kConditionNotMet);
}

TEST(MemoryTable, StridedEtagsStayInResidueClass) {
  InMemoryChainTable a(1, 3);
  InMemoryChainTable b(2, 3);
  for (int i = 0; i < 5; ++i) {
    std::string row = "r";
    row += std::to_string(i);
    const auto wa = a.ExecuteWrite(MakeWrite(WriteKind::kInsert, "P", row));
    const auto wb = b.ExecuteWrite(MakeWrite(WriteKind::kInsert, "P", row));
    EXPECT_EQ(wa.etag % 3, 1u);
    EXPECT_EQ(wb.etag % 3, 2u);
  }
}

TEST(MemoryTable, QueryAtomicSortsAndFilters) {
  InMemoryChainTable table;
  table.ExecuteWrite(MakeWrite(WriteKind::kInsert, "P1", "r2", {{"v", "x"}}));
  table.ExecuteWrite(MakeWrite(WriteKind::kInsert, "P0", "r1", {{"v", "y"}}));
  table.ExecuteWrite(MakeWrite(WriteKind::kInsert, "P0", "r0", {{"v", "x"}}));

  const auto all = table.ExecuteQueryAtomic(Filter{});
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].row.key, (TableKey{"P0", "r0"}));
  EXPECT_EQ(all[2].row.key, (TableKey{"P1", "r2"}));

  Filter by_partition;
  by_partition.partition = "P0";
  EXPECT_EQ(table.ExecuteQueryAtomic(by_partition).size(), 2u);

  Filter by_value;
  by_value.property_equals = {"v", "x"};
  EXPECT_EQ(table.ExecuteQueryAtomic(by_value).size(), 2u);

  Filter by_range;
  by_range.partition = "P0";
  by_range.row_from = "r1";
  by_range.row_to = "r2";
  const auto ranged = table.ExecuteQueryAtomic(by_range);
  ASSERT_EQ(ranged.size(), 1u);
  EXPECT_EQ(ranged[0].row.key.row, "r1");
}

TEST(MemoryTable, QueryAboveActsAsCursor) {
  InMemoryChainTable table;
  for (const char* row : {"r0", "r1", "r2"}) {
    table.ExecuteWrite(MakeWrite(WriteKind::kInsert, "P", row));
  }
  Filter filter;
  filter.partition = "P";
  std::optional<TableKey> cursor;
  std::vector<std::string> seen;
  for (;;) {
    const auto next = table.QueryAbove(filter, cursor);
    if (!next) break;
    seen.push_back(next->row.key.row);
    cursor = next->row.key;
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"r0", "r1", "r2"}));
}

TEST(MemoryTable, QueryAboveSeesConcurrentInsertAheadOfCursor) {
  InMemoryChainTable table;
  table.ExecuteWrite(MakeWrite(WriteKind::kInsert, "P", "r0"));
  table.ExecuteWrite(MakeWrite(WriteKind::kInsert, "P", "r3"));
  Filter filter;
  filter.partition = "P";
  auto first = table.QueryAbove(filter, std::nullopt);
  ASSERT_TRUE(first.has_value());
  // A row inserted ahead of the cursor is visible to the next call — the
  // "current state" semantics streaming queries build on.
  table.ExecuteWrite(MakeWrite(WriteKind::kInsert, "P", "r1"));
  auto second = table.QueryAbove(filter, first->row.key);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->row.key.row, "r1");
}

TEST(MemoryTable, MutationCountBumpsOnlyOnSuccess) {
  InMemoryChainTable table;
  const auto before = table.MutationCount();
  table.ExecuteWrite(MakeWrite(WriteKind::kReplace, "P", "missing"));
  EXPECT_EQ(table.MutationCount(), before) << "failed writes do not mutate";
  table.ExecuteWrite(MakeWrite(WriteKind::kInsert, "P", "r"));
  EXPECT_EQ(table.MutationCount(), before + 1);
  table.Retrieve({"P", "r"});
  EXPECT_EQ(table.MutationCount(), before + 1) << "reads do not mutate";
}

}  // namespace
