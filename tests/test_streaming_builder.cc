// Tests for out-of-core CECI construction: CeciBuilder over an OnDemandCsr
// must produce exactly the index it produces over the resident Graph,
// reading only through the store, and a full match must be able to run
// with no in-memory data graph at all.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "ceci/ceci_builder.h"
#include "ceci/enumerator.h"
#include "ceci/flat_index.h"
#include "ceci/preprocess.h"
#include "ceci/refinement.h"
#include "ceci/symmetry.h"
#include "gen/labels.h"
#include "gen/paper_queries.h"
#include "gen/query_gen.h"
#include "gen/random_graphs.h"
#include "graphio/binary_csr.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace ceci {
namespace {

class StreamingBuilderTest : public ::testing::Test {
 protected:
  StreamingBuilderTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("ceci_stream_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~StreamingBuilderTest() override { std::filesystem::remove_all(dir_); }

  std::string File(const std::string& name) const {
    return (dir_ / name).string();
  }

  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

void ExpectIndexesEqual(const CeciIndex& a, const CeciIndex& b,
                        std::size_t nq) {
  for (VertexId u = 0; u < nq; ++u) {
    EXPECT_EQ(a.at(u).candidates, b.at(u).candidates) << "u" << u;
    EXPECT_EQ(a.at(u).cardinalities, b.at(u).cardinalities) << "u" << u;
    ASSERT_EQ(a.at(u).te.num_runs(), b.at(u).te.num_runs()) << "u" << u;
    for (std::size_t k = 0; k < a.at(u).te.num_runs(); ++k) {
      auto va = a.at(u).te.values_at(k);
      auto vb = b.at(u).te.values_at(k);
      EXPECT_TRUE(std::equal(va.begin(), va.end(), vb.begin(), vb.end()));
    }
    ASSERT_EQ(a.at(u).nte.size(), b.at(u).nte.size());
    for (std::size_t n = 0; n < a.at(u).nte.size(); ++n) {
      EXPECT_EQ(a.at(u).nte[n].TotalValues(), b.at(u).nte[n].TotalValues());
    }
  }
}

TEST_F(StreamingBuilderTest, MatchesInMemoryBuilderExactly) {
  Graph data = AssignRandomLabels(GenerateSocialGraph(800, 8, 3), 4, 4);
  ASSERT_TRUE(WriteBinaryCsr(data, File("g.csr")).ok());
  auto store = OnDemandCsr::Open(File("g.csr"));
  ASSERT_TRUE(store.ok());
  const NlcIndex store_nlc(*store);
  ASSERT_TRUE(store->status().ok());

  for (PaperQuery pq : {PaperQuery::kQG1, PaperQuery::kQG3,
                        PaperQuery::kQG5}) {
    Graph query = MakePaperQuery(pq);
    auto tree = QueryTree::Build(query, 0);
    ASSERT_TRUE(tree.ok());

    NlcIndex nlc(data);
    CeciBuilder in_memory(data, nlc);
    CeciIndex expected =
        in_memory.Build(query, *tree, BuildOptions{}, nullptr);
    RefineCeci(*tree, data.num_vertices(), &expected, nullptr);

    auto got = CeciBuilder(*store, store_nlc)
                   .Build(query, *tree, BuildOptions{}, nullptr);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    RefineCeci(*tree, store->num_vertices(), &got.value(), nullptr);

    ExpectIndexesEqual(expected, *got, query.num_vertices());
  }
}

TEST_F(StreamingBuilderTest, GraphFreeMatchEndToEnd) {
  // The data graph never exists in memory: store → store-backed build →
  // refinement → graph-free enumeration. Count checked against the
  // conventional pipeline.
  Graph data = AssignRandomLabels(GenerateSocialGraph(600, 10, 7), 3, 8);
  ASSERT_TRUE(WriteBinaryCsr(data, File("g.csr")).ok());
  Graph query = MakePaperQuery(PaperQuery::kQG3);
  auto tree = QueryTree::Build(query, 0);
  ASSERT_TRUE(tree.ok());
  SymmetryConstraints sym = SymmetryConstraints::Compute(query);

  // Conventional count.
  NlcIndex nlc(data);
  CeciBuilder in_memory(data, nlc);
  CeciIndex reference = in_memory.Build(query, *tree, BuildOptions{},
                                        nullptr);
  RefineCeci(*tree, data.num_vertices(), &reference, nullptr);
  EnumOptions eo;
  eo.symmetry = &sym;
  const FlatCeciIndex reference_flat = FlatCeciIndex::Build(reference, *tree);
  Enumerator ref_enum(data, *tree, reference_flat, eo);
  std::uint64_t expected = ref_enum.EnumerateAll(nullptr);

  // Store-backed count (graph-free enumerator overload).
  auto store = OnDemandCsr::Open(File("g.csr"));
  ASSERT_TRUE(store.ok());
  const NlcIndex store_nlc(*store);
  auto index = CeciBuilder(*store, store_nlc)
                   .Build(query, *tree, BuildOptions{}, nullptr);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  RefineCeci(*tree, store->num_vertices(), &index.value(), nullptr);
  const FlatCeciIndex stream_flat = FlatCeciIndex::Build(*index, *tree);
  Enumerator stream_enum(*tree, stream_flat, eo);
  EXPECT_EQ(stream_enum.EnumerateAll(nullptr), expected);
  EXPECT_GT(expected, 0u);
}

TEST_F(StreamingBuilderTest, CountsStorageTraffic) {
  Graph data = GenerateSocialGraph(400, 6, 9);
  ASSERT_TRUE(WriteBinaryCsr(data, File("g.csr")).ok());
  auto store = OnDemandCsr::Open(File("g.csr"));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->requests(), 0u);  // opening reads no adjacency
  const NlcIndex store_nlc(*store);
  const std::uint64_t after_prepare = store->requests();
  EXPECT_EQ(after_prepare, data.num_vertices());  // one NLC pass

  Graph query = MakePaperQuery(PaperQuery::kQG1);
  auto tree = QueryTree::Build(query, 0);
  ASSERT_TRUE(tree.ok());
  BuildStats stats;
  auto index = CeciBuilder(*store, store_nlc)
                   .Build(query, *tree, BuildOptions{}, &stats);
  ASSERT_TRUE(index.ok());
  EXPECT_GT(store->requests(), after_prepare);
  EXPECT_EQ(store->requests() - after_prepare, stats.frontier_expansions);
  EXPECT_GT(stats.neighbors_scanned, 0u);
}

TEST_F(StreamingBuilderTest, PivotRestrictionWorks) {
  Graph data = GenerateSocialGraph(500, 8, 11);
  ASSERT_TRUE(WriteBinaryCsr(data, File("g.csr")).ok());
  auto store = OnDemandCsr::Open(File("g.csr"));
  ASSERT_TRUE(store.ok());
  const NlcIndex store_nlc(*store);
  const CeciBuilder builder(*store, store_nlc);

  Graph query = MakePaperQuery(PaperQuery::kQG1);
  auto tree = QueryTree::Build(query, 0);
  ASSERT_TRUE(tree.ok());
  SymmetryConstraints sym = SymmetryConstraints::Compute(query);
  EnumOptions eo;
  eo.symmetry = &sym;

  std::vector<VertexId> all =
      FilterTable::Compute(*store, store_nlc, query, nullptr)
          .Candidates(*store, query, tree->root());
  ASSERT_GT(all.size(), 2u);
  const std::size_t half = all.size() / 2;
  std::vector<VertexId> first(all.begin(), all.begin() + half);
  std::vector<VertexId> second(all.begin() + half, all.end());

  std::uint64_t total = 0;
  for (const auto* pivots : {&first, &second}) {
    BuildOptions options;
    options.root_candidates = pivots;
    auto index = builder.Build(query, *tree, options, nullptr);
    ASSERT_TRUE(index.ok());
    RefineCeci(*tree, store->num_vertices(), &index.value(), nullptr);
    const FlatCeciIndex flat = FlatCeciIndex::Build(*index, *tree);
    Enumerator e(*tree, flat, eo);
    total += e.EnumerateAll(nullptr);
  }

  auto whole = builder.Build(query, *tree, BuildOptions{}, nullptr);
  ASSERT_TRUE(whole.ok());
  RefineCeci(*tree, store->num_vertices(), &whole.value(), nullptr);
  const FlatCeciIndex whole_flat = FlatCeciIndex::Build(*whole, *tree);
  Enumerator e(*tree, whole_flat, eo);
  EXPECT_EQ(total, e.EnumerateAll(nullptr));
}

TEST_F(StreamingBuilderTest, FailedReadIsReturnedFromBuild) {
  Graph data = GenerateSocialGraph(300, 6, 13);
  ASSERT_TRUE(WriteBinaryCsr(data, File("g.csr")).ok());
  // Keep the resident sections, drop the adjacency tail.
  std::filesystem::resize_file(File("g.csr"),
                               std::filesystem::file_size(File("g.csr")) -
                                   1024);
  auto store = OnDemandCsr::Open(File("g.csr"));
  ASSERT_TRUE(store.ok());
  const NlcIndex nlc(data);
  Graph query = MakePaperQuery(PaperQuery::kQG1);
  auto tree = QueryTree::Build(query, 0);
  ASSERT_TRUE(tree.ok());
  auto index = CeciBuilder(*store, nlc).Build(query, *tree, BuildOptions{},
                                              nullptr);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), Status::Code::kCorruption);
}

TEST_F(StreamingBuilderTest, StoreBuildWithPoolFailsCheck) {
  Graph data = testing::MakeUnlabeled(4, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(WriteBinaryCsr(data, File("g.csr")).ok());
  auto store = OnDemandCsr::Open(File("g.csr"));
  ASSERT_TRUE(store.ok());
  const NlcIndex nlc(*store);
  Graph query = testing::MakeUnlabeled(2, {{0, 1}});
  auto tree = QueryTree::Build(query, 0);
  ASSERT_TRUE(tree.ok());
  // The pool's threads exist when the death test forks.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ThreadPool pool(2);
  BuildOptions options;
  options.pool = &pool;
  EXPECT_DEATH(CeciBuilder(*store, nlc).Build(query, *tree, options, nullptr),
               "serially");
}

}  // namespace
}  // namespace ceci
