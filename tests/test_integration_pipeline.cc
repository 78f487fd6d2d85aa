// Cross-module integration tests: the full path from text formats through
// generators, persistence, and matching — the flows a downstream user
// would actually run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "baselines/vf2.h"
#include "ceci/matcher.h"
#include "gen/labels.h"
#include "gen/random_graphs.h"
#include "graphio/binary_csr.h"
#include "graphio/edge_list.h"
#include "graphio/pattern_parser.h"
#include "test_support.h"

namespace ceci {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("ceci_pipe_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~PipelineTest() override { std::filesystem::remove_all(dir_); }

  std::string File(const std::string& name) const {
    return (dir_ / name).string();
  }

  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

TEST_F(PipelineTest, GenerateWriteReadMatch) {
  // generator → labeled text file → reload → pattern query → match,
  // validated against matching the in-memory original.
  Graph original =
      AssignRandomLabels(GenerateSocialGraph(1200, 8, 5), 4, 6);
  ASSERT_TRUE(WriteLabeledGraph(original, File("g.txt")).ok());
  auto reloaded = ReadLabeledGraph(File("g.txt"));
  ASSERT_TRUE(reloaded.ok());

  auto query = ParsePattern("(a:0)-(b:1)-(c:2); (a)-(c)");
  ASSERT_TRUE(query.ok());

  CeciMatcher m1(original);
  CeciMatcher m2(*reloaded);
  auto c1 = m1.Count(*query);
  auto c2 = m2.Count(*query);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(*c1, *c2);
}

TEST_F(PipelineTest, BinaryCsrPreservesMatchResults) {
  Graph original =
      AssignRandomLabels(GenerateErdosRenyi(800, 4000, 7), 3, 8);
  ASSERT_TRUE(WriteBinaryCsr(original, File("g.bin")).ok());
  auto reloaded = ReadBinaryCsr(File("g.bin"));
  ASSERT_TRUE(reloaded.ok());

  auto query = ParsePattern("(a:0)-(b:1)-(c:2)");
  ASSERT_TRUE(query.ok());
  CeciMatcher m1(original);
  CeciMatcher m2(*reloaded);
  EXPECT_EQ(*m1.Count(*query), *m2.Count(*query));
}

TEST_F(PipelineTest, CsrStoreRebuildMatchesDirectGraph) {
  // Rebuild a Graph from the on-demand store's reads and match on it.
  Graph original = AssignRandomLabels(GenerateSocialGraph(600, 8, 9), 3, 10);
  ASSERT_TRUE(WriteBinaryCsr(original, File("g.csr")).ok());
  auto store = OnDemandCsr::Open(File("g.csr"));
  ASSERT_TRUE(store.ok());

  GraphBuilder builder;
  builder.ReserveVertices(store->num_vertices());
  for (VertexId v = 0; v < store->num_vertices(); ++v) {
    for (Label l : store->labels(v)) builder.AddLabel(v, l);
    for (VertexId w : store->neighbors(v)) {
      if (v < w) builder.AddEdge(v, w);
    }
  }
  ASSERT_TRUE(store->status().ok());
  auto rebuilt = builder.Build();
  ASSERT_TRUE(rebuilt.ok());

  auto query = ParsePattern("(a:0)-(b:1); (b)-(c:2); (a)-(c)");
  ASSERT_TRUE(query.ok());
  CeciMatcher m1(original);
  CeciMatcher m2(*rebuilt);
  EXPECT_EQ(*m1.Count(*query), *m2.Count(*query));
}

TEST_F(PipelineTest, PatternQueriesMatchHandBuiltQueries) {
  Graph data = testing::PaperExample::Data();
  Graph hand_built = testing::PaperExample::Query();
  auto parsed = ParsePattern(
      "(u1:0)-(u2:1)-(u3:2)-(u4:3); (u1)-(u3); (u2)-(u4); (u3)-(u5:4)");
  ASSERT_TRUE(parsed.ok());
  CeciMatcher matcher(data);
  auto a = matcher.Count(hand_built);
  auto b = matcher.Count(*parsed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(*a, 2u);
}

TEST_F(PipelineTest, EndToEndAgainstOracleThroughAllFormats) {
  Graph original =
      AssignRandomLabels(GenerateSocialGraph(500, 6, 11), 3, 12);
  auto query = ParsePattern("(a:1)-(b:2)-(c:0); (a)-(c)");
  ASSERT_TRUE(query.ok());
  Vf2Result oracle = Vf2Count(original, *query, Vf2Options{});

  // Round trip through every on-disk representation and re-match.
  ASSERT_TRUE(WriteLabeledGraph(original, File("a.txt")).ok());
  ASSERT_TRUE(WriteBinaryCsr(original, File("a.bin")).ok());
  auto from_text = ReadLabeledGraph(File("a.txt"));
  auto from_bin = ReadBinaryCsr(File("a.bin"));
  ASSERT_TRUE(from_text.ok());
  ASSERT_TRUE(from_bin.ok());
  for (const Graph* g : {&original, &from_text.value(), &from_bin.value()}) {
    CeciMatcher matcher(*g);
    auto count = matcher.Count(*query, /*threads=*/2);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, oracle.embeddings);
  }
}

}  // namespace
}  // namespace ceci
