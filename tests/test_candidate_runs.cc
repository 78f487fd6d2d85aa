// Unit tests for the TE/NTE candidate-list structure (CandidateRuns):
// sorted keys with (offset, count) runs into one pool of data-vertex ids.
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "ceci/ceci_index.h"

namespace ceci {
namespace {

// Appends `values` as the run of `key`, the way the builder does.
void AppendRun(CandidateRuns* list, VertexId key,
               const std::vector<VertexId>& values) {
  const std::size_t begin = list->pool.size();
  list->pool.insert(list->pool.end(), values.begin(), values.end());
  list->CloseRun(key, begin);
}

std::vector<VertexId> Values(std::span<const VertexId> s) {
  return {s.begin(), s.end()};
}

TEST(CandidateRunsTest, RunsAreFoundByKey) {
  CandidateRuns list;
  AppendRun(&list, 2, {5, 7});
  AppendRun(&list, 4, {1});
  AppendRun(&list, 9, {3, 5, 8});
  EXPECT_EQ(list.num_keys(), 3u);
  EXPECT_EQ(list.TotalValues(), 6u);
  EXPECT_EQ(list.pool.size(), 6u);  // one pool, no per-key allocation
  EXPECT_EQ(Values(list.Find(9)), (std::vector<VertexId>{3, 5, 8}));
  EXPECT_EQ(Values(list.Find(4)), (std::vector<VertexId>{1}));
  EXPECT_TRUE(list.Find(3).empty());
  EXPECT_TRUE(list.Find(10).empty());
  EXPECT_TRUE(CandidateRuns{}.Find(2).empty());
}

TEST(CandidateRunsTest, PruneCompactsRunsInPlace) {
  CandidateRuns list;
  AppendRun(&list, 2, {5, 7});
  AppendRun(&list, 4, {1, 7});
  AppendRun(&list, 9, {3, 5, 8});
  const std::size_t pool_size = list.pool.size();
  // Key 2 goes with its run, value 7 leaves key 4's run as {1}, and key 9
  // keeps {3, 5, 8}.
  const std::size_t removed =
      list.Prune([](VertexId key) { return key != 2; },
                 [](VertexId v) { return v != 7; });
  EXPECT_EQ(removed, 3u);
  EXPECT_EQ(list.keys, (std::vector<VertexId>{4, 9}));
  EXPECT_EQ(Values(list.values_at(0)), (std::vector<VertexId>{1}));
  EXPECT_EQ(Values(list.values_at(1)), (std::vector<VertexId>{3, 5, 8}));
  EXPECT_EQ(list.TotalValues(), 4u);
  EXPECT_EQ(list.pool.size(), pool_size);  // runs shrank in their slots
  // A key whose values all die goes with them.
  EXPECT_EQ(list.Prune([](VertexId) { return true; },
                       [](VertexId v) { return v != 1; }),
            1u);
  EXPECT_EQ(list.keys, (std::vector<VertexId>{9}));
}

TEST(CandidateRunsTest, AppendRebasesAnotherListsRuns) {
  CandidateRuns first;
  AppendRun(&first, 1, {4, 6});
  CandidateRuns second;
  AppendRun(&second, 3, {2});
  AppendRun(&second, 5, {6, 9});
  first.Append(second);
  EXPECT_EQ(first.keys, (std::vector<VertexId>{1, 3, 5}));
  EXPECT_EQ(Values(first.Find(1)), (std::vector<VertexId>{4, 6}));
  EXPECT_EQ(Values(first.Find(3)), (std::vector<VertexId>{2}));
  EXPECT_EQ(Values(first.Find(5)), (std::vector<VertexId>{6, 9}));
  first.clear();
  EXPECT_EQ(first.num_keys(), 0u);
  EXPECT_TRUE(first.pool.empty());
}

TEST(CandidateListTest, AppendAndFind) {
  // Appending into an empty list takes the other list's runs as they are.
  CandidateRuns other;
  AppendRun(&other, 2, {10, 11});
  AppendRun(&other, 5, {12});
  AppendRun(&other, 9, {10, 13, 14});
  CandidateRuns list;
  list.Append(other);
  EXPECT_EQ(list.num_keys(), 3u);
  EXPECT_EQ(Values(list.Find(5)), (std::vector<VertexId>{12}));
  EXPECT_TRUE(list.Find(0).empty());
  EXPECT_TRUE(list.Find(3).empty());
  EXPECT_TRUE(list.Find(100).empty());
  // Appending an empty list changes nothing.
  list.Append(CandidateRuns{});
  EXPECT_EQ(list.num_keys(), 3u);
  EXPECT_EQ(list.pool.size(), 6u);
  EXPECT_EQ(Values(list.Find(9)), (std::vector<VertexId>{10, 13, 14}));
}

TEST(CandidateListTest, TotalValuesAndMemory) {
  CeciVertexData slice;
  AppendRun(&slice.te, 1, {2, 3});
  AppendRun(&slice.te, 4, {5});
  slice.nte.emplace_back();
  AppendRun(&slice.nte[0], 6, {2});
  slice.candidates = {2, 3, 5};
  EXPECT_EQ(slice.te.TotalValues(), 3u);
  // §3.4 accounting over the counts: 3 keys, 4 values, 3 candidates.
  const std::size_t unrefined = CeciBytes(slice);
  EXPECT_EQ(unrefined, 3 * (sizeof(VertexId) + 24) + 4 * sizeof(VertexId) +
                           3 * sizeof(VertexId));
  EXPECT_EQ(unrefined, CeciBytes(3, 4, 3, /*refined=*/false));
  // Pruning a value shrinks the figure although the pool keeps its size.
  slice.te.Prune([](VertexId) { return true; },
                 [](VertexId v) { return v != 3; });
  EXPECT_EQ(slice.te.TotalValues(), 2u);
  EXPECT_EQ(slice.te.pool.size(), 3u);
  EXPECT_EQ(CeciBytes(slice), unrefined - sizeof(VertexId));
  // Cardinalities count once the slice is refined.
  slice.cardinalities = {1, 1, 1};
  EXPECT_EQ(CeciBytes(slice),
            unrefined - sizeof(VertexId) + 3 * sizeof(Cardinality));
}

TEST(CandidateListTest, PruneDropsKeysAndValues) {
  CandidateRuns list;
  AppendRun(&list, 1, {10, 11, 12});
  AppendRun(&list, 2, {10});
  AppendRun(&list, 3, {11, 13});
  std::size_t removed = list.Prune(
      [](VertexId key) { return key != 2; },        // drop key 2
      [](VertexId val) { return val != 11; });      // drop value 11
  // Removed: key 2's 1 value + value 11 twice = 3.
  EXPECT_EQ(removed, 3u);
  EXPECT_EQ(list.num_keys(), 2u);
  EXPECT_EQ(Values(list.Find(1)), (std::vector<VertexId>{10, 12}));
  EXPECT_TRUE(list.Find(2).empty());
  EXPECT_EQ(Values(list.Find(3)), (std::vector<VertexId>{13}));
}

TEST(CandidateListTest, PruneDropsEmptiedKeys) {
  CandidateRuns list;
  AppendRun(&list, 1, {10});
  AppendRun(&list, 2, {11});
  list.Prune([](VertexId) { return true; },
             [](VertexId val) { return val != 10; });
  EXPECT_EQ(list.num_keys(), 1u);
  EXPECT_TRUE(list.Find(1).empty());
  EXPECT_EQ(Values(list.Find(2)), (std::vector<VertexId>{11}));
  // Keeping everything removes nothing.
  EXPECT_EQ(list.Prune([](VertexId) { return true; },
                       [](VertexId) { return true; }),
            0u);
  EXPECT_EQ(list.keys, (std::vector<VertexId>{2}));
}

TEST(CandidateListTest, ClearAndEmpty) {
  CandidateRuns list;
  EXPECT_EQ(list.num_keys(), 0u);
  AppendRun(&list, 1, {2, 3});
  AppendRun(&list, 4, {5});
  EXPECT_EQ(list.num_keys(), 2u);
  const std::size_t capacity = list.pool.capacity();
  list.clear();
  EXPECT_EQ(list.num_keys(), 0u);
  EXPECT_EQ(list.TotalValues(), 0u);
  EXPECT_TRUE(list.pool.empty());
  EXPECT_TRUE(list.Find(1).empty());
  EXPECT_EQ(list.pool.capacity(), capacity);  // kept for reuse
}

TEST(CandidateListTest, ValuesAtIteration) {
  CandidateRuns list;
  AppendRun(&list, 3, {1});
  AppendRun(&list, 7, {2, 4});
  std::size_t total = 0;
  for (std::size_t i = 0; i < list.num_keys(); ++i) {
    total += list.values_at(i).size();
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(total, list.TotalValues());
  EXPECT_EQ(list.keys[1], 7u);
  EXPECT_EQ(list.runs[1].offset, 1u);  // runs follow each other in the pool
  EXPECT_EQ(Values(list.values_at(1)), (std::vector<VertexId>{2, 4}));
}

TEST(CandidateListTest, LookupsTotalsAndUnion) {
  CandidateRuns list;
  AppendRun(&list, 2, {10, 11});
  AppendRun(&list, 5, {12});
  AppendRun(&list, 9, {10, 13, 14});
  EXPECT_EQ(Values(list.Find(9)), (std::vector<VertexId>{10, 13, 14}));
  EXPECT_TRUE(list.Find(3).empty());
  EXPECT_EQ(list.TotalValues(), 6u);
  EXPECT_EQ(list.values_at(2)[1], 13u);
  // Lookups and totals read the shrunk runs, not the pool, after a prune.
  list.Prune([](VertexId) { return true; },
             [](VertexId v) { return v != 11 && v != 10; });
  EXPECT_EQ(list.keys, (std::vector<VertexId>{5, 9}));
  EXPECT_EQ(Values(list.Find(9)), (std::vector<VertexId>{13, 14}));
  EXPECT_TRUE(list.Find(2).empty());
  EXPECT_EQ(list.TotalValues(), 3u);
  EXPECT_EQ(list.pool.size(), 6u);
  EXPECT_EQ(list.values_at(1)[1], 14u);
}

TEST(CandidateListTest, EmptyListLookups) {
  CandidateRuns list;
  EXPECT_TRUE(list.Find(0).empty());
  EXPECT_EQ(list.TotalValues(), 0u);
  EXPECT_EQ(list.Prune([](VertexId) { return false; },
                       [](VertexId) { return false; }),
            0u);
  list.Append(CandidateRuns{});
  EXPECT_EQ(list.num_keys(), 0u);
  EXPECT_TRUE(list.pool.empty());
}

TEST(CandidateListTest, AppendAfterClear) {
  CandidateRuns list;
  AppendRun(&list, 5, {2});
  list.clear();
  AppendRun(&list, 3, {4});  // a smaller key is fine after clear
  EXPECT_EQ(list.Find(3).size(), 1u);
  EXPECT_EQ(list.runs[0].offset, 0u);
  EXPECT_TRUE(list.Find(5).empty());
}

}  // namespace
}  // namespace ceci
