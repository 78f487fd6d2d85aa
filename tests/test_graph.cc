// Unit tests for the Graph CSR representation, builder, and NLC index.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <string>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/nlc_index.h"
#include "graphio/binary_csr.h"
#include "test_support.h"

namespace ceci {
namespace {

using ::ceci::testing::MakeGraph;
using ::ceci::testing::MakeUnlabeled;

TEST(GraphBuilderTest, EmptyGraphFails) {
  GraphBuilder builder;
  auto g = builder.Build();
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), Status::Code::kInvalidArgument);
}

TEST(GraphBuilderTest, SelfLoopsDropped) {
  GraphBuilder builder;
  builder.ReserveVertices(2);
  builder.AddEdge(0, 0);
  builder.AddEdge(0, 1);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1u);
  EXPECT_EQ(g->degree(0), 1u);
}

TEST(GraphBuilderTest, DuplicateEdgesDeduped) {
  Graph g = MakeUnlabeled(3, {{0, 1}, {1, 0}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(GraphBuilderTest, IsolatedVerticesAllowed) {
  GraphBuilder builder;
  builder.ReserveVertices(5);
  builder.AddEdge(0, 1);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 5u);
  EXPECT_EQ(g->degree(4), 0u);
}

TEST(GraphTest, AdjacencySortedAndSymmetric) {
  Graph g = MakeUnlabeled(4, {{2, 0}, {0, 1}, {3, 0}});
  auto n0 = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(n0.begin(), n0.end()));
  EXPECT_EQ(n0.size(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_FALSE(g.HasEdge(1, 2));
}

TEST(GraphTest, DefaultLabelIsZero) {
  Graph g = MakeUnlabeled(2, {{0, 1}});
  EXPECT_EQ(g.label(0), 0u);
  EXPECT_TRUE(g.HasLabel(0, 0));
  EXPECT_EQ(g.num_labels(), 1u);
}

TEST(GraphTest, MultiLabelContainment) {
  GraphBuilder builder;
  builder.AddLabel(0, 3);
  builder.AddLabel(0, 1);
  builder.AddLabel(1, 2);
  builder.AddEdge(0, 1);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  auto ls = g->labels(0);
  EXPECT_EQ(std::vector<Label>(ls.begin(), ls.end()),
            (std::vector<Label>{1, 3}));
  std::vector<Label> req1 = {1};
  std::vector<Label> req13 = {1, 3};
  std::vector<Label> req2 = {2};
  EXPECT_TRUE(g->HasAllLabels(0, req1));
  EXPECT_TRUE(g->HasAllLabels(0, req13));
  EXPECT_FALSE(g->HasAllLabels(0, req2));
}

TEST(GraphTest, LabelIndexGroupsVertices) {
  Graph g = MakeGraph({5, 7, 5}, {{0, 1}, {1, 2}});
  auto with5 = g.VerticesWithLabel(5);
  EXPECT_EQ(std::vector<VertexId>(with5.begin(), with5.end()),
            (std::vector<VertexId>{0, 2}));
  auto with7 = g.VerticesWithLabel(7);
  EXPECT_EQ(with7.size(), 1u);
  EXPECT_TRUE(g.VerticesWithLabel(6).empty());
  EXPECT_TRUE(g.VerticesWithLabel(999).empty());
}

TEST(GraphTest, MaxDegreeAndSummary) {
  Graph g = MakeUnlabeled(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_NE(g.Summary().find("|V|=4"), std::string::npos);
  EXPECT_GT(g.MemoryBytes(), 0u);
}

TEST(NlcIndexTest, ProfileCountsNeighborLabels) {
  // Star: center 0 (label 9) with leaves labeled 1,1,2.
  Graph g = MakeGraph({9, 1, 1, 2}, {{0, 1}, {0, 2}, {0, 3}});
  auto profile = NlcIndex::Profile(g, 0);
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_EQ(profile[0].label, 1u);
  EXPECT_EQ(profile[0].count, 2u);
  EXPECT_EQ(profile[1].label, 2u);
  EXPECT_EQ(profile[1].count, 1u);
}

TEST(NlcIndexTest, CoversRequiresAllCounts) {
  Graph g = MakeGraph({9, 1, 1, 2}, {{0, 1}, {0, 2}, {0, 3}});
  NlcIndex index(g);
  std::vector<NlcIndex::Entry> need_ok = {{1, 2}, {2, 1}};
  std::vector<NlcIndex::Entry> need_more = {{1, 3}};
  std::vector<NlcIndex::Entry> need_absent = {{4, 1}};
  EXPECT_TRUE(index.Covers(0, need_ok));
  EXPECT_FALSE(index.Covers(0, need_more));
  EXPECT_FALSE(index.Covers(0, need_absent));
  EXPECT_TRUE(index.Covers(0, {}));
}

TEST(NlcIndexTest, MultiLabelNeighborCountsEachLabel) {
  GraphBuilder builder;
  builder.AddLabel(0, 0);
  builder.AddLabel(1, 1);
  builder.AddLabel(1, 2);  // neighbor carries two labels
  builder.AddEdge(0, 1);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  NlcIndex index(*g);
  std::vector<NlcIndex::Entry> need1 = {{1, 1}};
  std::vector<NlcIndex::Entry> need2 = {{2, 1}};
  EXPECT_TRUE(index.Covers(0, need1));
  EXPECT_TRUE(index.Covers(0, need2));
}

TEST(NlcIndexTest, MatchesProfileForEveryVertex) {
  Graph g = MakeGraph({0, 1, 2, 0, 1}, {{0, 1}, {0, 2}, {1, 2}, {2, 3},
                                        {3, 4}});
  NlcIndex index(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto expected = NlcIndex::Profile(g, v);
    auto got = index.entries(v);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i].label, expected[i].label);
      EXPECT_EQ(got[i].count, expected[i].count);
    }
  }

  // At scale: 3000 vertices, up to three labels each out of 11, every
  // tenth vertex isolated, and hubs so most neighborhoods repeat labels.
  std::mt19937 rng(0x41c);
  GraphBuilder builder;
  const VertexId n = 3000;
  builder.ReserveVertices(n);
  for (VertexId v = 0; v < n; ++v) {
    const int num = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < num; ++k) builder.AddLabel(v, rng() % 11);
  }
  auto linked = [](VertexId v) { return v % 10 != 0; };
  for (VertexId v = 0; v < n; ++v) {
    if (!linked(v)) continue;
    for (int k = 0; k < 6; ++k) {
      // Half the edges land on the 50 lowest ids, which become hubs.
      const VertexId w = static_cast<VertexId>(
          k % 2 == 0 ? rng() % 50 : rng() % n);
      if (linked(w)) builder.AddEdge(v, w);
    }
  }
  auto big = builder.Build();
  ASSERT_TRUE(big.ok());
  ASSERT_EQ(big->num_vertices(), n);
  NlcIndex big_index(*big);
  std::size_t total_entries = 0;
  bool saw_repeat = false;
  for (VertexId v = 0; v < n; ++v) {
    if (!linked(v)) ASSERT_EQ(big->degree(v), 0u);
    auto expected = NlcIndex::Profile(*big, v);
    auto got = big_index.entries(v);
    ASSERT_EQ(got.size(), expected.size()) << "vertex " << v;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(got[i].label, expected[i].label) << "vertex " << v;
      ASSERT_EQ(got[i].count, expected[i].count) << "vertex " << v;
      saw_repeat = saw_repeat || expected[i].count > 1;
    }
    total_entries += expected.size();
  }
  EXPECT_TRUE(saw_repeat);
  EXPECT_EQ(big_index.MemoryBytes(),
            (n + 1) * sizeof(EdgeId) +
                total_entries * sizeof(NlcIndex::Entry) +
                n * sizeof(std::uint64_t));
}

// Neighbour-label masks: bit l mod 64 per neighbour label l.

TEST(NlcMaskTest, MaskFoldsEachNeighbourLabelOntoBitModulo64) {
  // Vertex 0's neighbours carry labels 1, 65 (bit 1 again) and 2.
  Graph g = MakeGraph({0, 1, 65, 2}, {{0, 1}, {0, 2}, {0, 3}});
  NlcIndex index(g);
  EXPECT_EQ(index.mask(0), 0b110u);
  for (VertexId leaf = 1; leaf < 4; ++leaf) EXPECT_EQ(index.mask(leaf), 1u);
  const std::vector<NlcIndex::Entry> both = {{1, 1}, {65, 1}};
  EXPECT_EQ(NlcIndex::MaskOf(both), 0b10u);
  // 66 labels: 65 folds onto 1's bit, so counts must still be merged.
  const std::vector<NlcIndex::Entry> one = {{1, 1}};
  EXPECT_FALSE(index.PresenceDecides(one));
}

TEST(NlcMaskTest, PresenceDecidesOnlyUnfoldedSingleCounts) {
  Graph g = MakeGraph({9, 1, 1, 2}, {{0, 1}, {0, 2}, {0, 3}});
  NlcIndex index(g);
  const std::vector<NlcIndex::Entry> singles = {{1, 1}, {2, 1}};
  const std::vector<NlcIndex::Entry> pair = {{1, 2}};
  // A label the graph lacks, folded onto label 0's bit.
  const std::vector<NlcIndex::Entry> folded = {{64, 1}};
  EXPECT_TRUE(index.PresenceDecides({}));
  EXPECT_TRUE(index.PresenceDecides(singles));
  EXPECT_FALSE(index.PresenceDecides(pair));
  EXPECT_FALSE(index.PresenceDecides(folded));
}

TEST(NlcMaskTest, MaskEqualsTheFoldedEntryLabels) {
  const Graph g = ::ceci::testing::FoldedLabelGraph();
  ASSERT_EQ(g.num_labels(), 72u);
  NlcIndex index(g);
  bool saw_fold = false;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto entries = index.entries(v);
    ASSERT_EQ(index.mask(v), NlcIndex::MaskOf(entries)) << "vertex " << v;
    for (const NlcIndex::Entry& e : entries) {
      saw_fold = saw_fold || e.label >= 64;
    }
  }
  EXPECT_TRUE(saw_fold);
}

TEST(NlcMaskTest, OnDemandCsrBuildsTheResidentMasks) {
  const Graph g = ::ceci::testing::FoldedLabelGraph();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ceci_nlc_mask_" + std::to_string(::getpid()) + ".csr"))
          .string();
  ASSERT_TRUE(WriteBinaryCsr(g, path).ok());
  auto store = OnDemandCsr::Open(path);
  std::filesystem::remove(path);  // the open stream keeps it readable
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const NlcIndex resident(g);
  const NlcIndex stored(*store);
  ASSERT_TRUE(store->status().ok()) << store->status().ToString();
  EXPECT_EQ(stored.MemoryBytes(), resident.MemoryBytes());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(stored.mask(v), resident.mask(v)) << "vertex " << v;
    ASSERT_EQ(stored.entries(v).size(), resident.entries(v).size());
  }
}

}  // namespace
}  // namespace ceci
