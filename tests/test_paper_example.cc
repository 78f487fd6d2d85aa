// Integration test reproducing the paper's running example end to end:
// Figure 1's query/data pair, the Figure 3 CECI contents after BFS
// filtering and reverse-BFS refinement, and the two embeddings of §4.
#include <gtest/gtest.h>

#include "ceci/ceci_builder.h"
#include "ceci/enumerator.h"
#include "ceci/matcher.h"
#include "ceci/refinement.h"
#include "ceci/symmetry.h"
#include "test_support.h"

namespace ceci {
namespace {

using ::ceci::testing::EmbeddingCollector;
using ::ceci::testing::PaperExample;

// 0-based alias for the paper's 1-based vertex names.
VertexId V(int k) { return static_cast<VertexId>(k - 1); }

std::vector<VertexId> Values(std::span<const VertexId> s) {
  return {s.begin(), s.end()};
}

class PaperCeciTest : public ::testing::Test {
 protected:
  PaperCeciTest()
      : data_(PaperExample::Data()),
        query_(PaperExample::Query()),
        nlc_(data_) {
    // Follow the paper exactly: root u1 (vertex 0), BFS matching order.
    auto tree = QueryTree::Build(query_, 0);
    CECI_CHECK(tree.ok());
    tree_ = std::move(tree).value();
    CeciBuilder builder(data_, nlc_);
    index_ = builder.Build(query_, tree_, BuildOptions{}, &build_stats_);
  }

  // Refines the built lists and freezes them into the arena.
  void Refine() {
    RefineCeci(tree_, data_.num_vertices(), &index_, &refine_stats_);
    flat_ = FlatCeciIndex::Build(index_, tree_);
  }

  Graph data_;
  Graph query_;
  NlcIndex nlc_;
  QueryTree tree_;
  CeciIndex index_;
  FlatCeciIndex flat_;
  BuildStats build_stats_;
  RefineStats refine_stats_;
};

TEST_F(PaperCeciTest, TeCandidatesAfterBfsFiltering) {
  // §3.2: after filtering, TE of u2 keeps <v1,{v3,v5,v7}>; the <v2,...>
  // entry dies with the cascade (v2 has no u3 candidates: v8 fails NLCF).
  const CandidateRuns& te_u2 = index_.at(1).te;
  EXPECT_EQ(Values(te_u2.Find(V(1))), (std::vector<VertexId>{V(3), V(5), V(7)}));
  EXPECT_TRUE(te_u2.Find(V(2)).empty());

  // TE of u3: <v1,{v4,v6}>.
  const CandidateRuns& te_u3 = index_.at(2).te;
  EXPECT_EQ(Values(te_u3.Find(V(1))), (std::vector<VertexId>{V(4), V(6)}));

  // Pivot set shrank to {v1}: the v2 cluster died during filtering.
  EXPECT_EQ(index_.at(0).candidates, (std::vector<VertexId>{V(1)}));
  EXPECT_GT(build_stats_.cascade_removals, 0u);
}

TEST_F(PaperCeciTest, NteCandidatesMatchFigure3) {
  // NTE (u2,u3) on node u3: <v3,{v4}>, <v5,{v4,v6}>, <v7,{v6}>
  // (v8 is never a candidate of u3, so it cannot appear as a value).
  ASSERT_EQ(index_.at(2).nte.size(), 1u);
  const CandidateRuns& nte_u3 = index_.at(2).nte[0];
  EXPECT_EQ(Values(nte_u3.Find(V(3))), (std::vector<VertexId>{V(4)}));
  EXPECT_EQ(Values(nte_u3.Find(V(5))), (std::vector<VertexId>{V(4), V(6)}));
  EXPECT_EQ(Values(nte_u3.Find(V(7))), (std::vector<VertexId>{V(6)}));

  // NTE (u3,u4) on node u4: keys are candidates of u3 = {v4,v6}.
  ASSERT_EQ(index_.at(3).nte.size(), 1u);
  const CandidateRuns& nte_u4 = index_.at(3).nte[0];
  EXPECT_EQ(Values(nte_u4.Find(V(4))), (std::vector<VertexId>{V(11)}));
  EXPECT_EQ(Values(nte_u4.Find(V(6))), (std::vector<VertexId>{V(13)}));
}

TEST_F(PaperCeciTest, RefinementPrunesV7AndItsEntries) {
  Refine();
  // §3.3: cardinality of (u2, v7) is 0 — its only u4 child v15 is not in
  // the NTE union of u4 — so v7 leaves the candidates of u2 and its
  // entries vanish from the lists of u2's children and NTE children.
  EXPECT_EQ(Values(flat_.candidates(1)),
            (std::vector<VertexId>{V(3), V(5)}));
  EXPECT_EQ(flat_.Te(3, V(7)).count, 0u);      // TE of u4
  EXPECT_EQ(flat_.Nte(2, 0, V(7)).count, 0u);  // NTE of u3
  EXPECT_GT(refine_stats_.pruned_candidates, 0u);
}

TEST_F(PaperCeciTest, CardinalitiesAfterRefinement) {
  Refine();
  // Leaves: cardinality 1. u2: v3→1, v5→1. Root pivot v1:
  // Π over children branches = (1+1) × (1+1) = 4, an upper bound on the
  // cluster's 2 true embeddings (§4.3 notes the overestimate).
  EXPECT_EQ(flat_.CardinalityOf(3, V(11)), 1u);
  EXPECT_EQ(flat_.CardinalityOf(3, V(13)), 1u);
  EXPECT_EQ(flat_.CardinalityOf(4, V(12)), 1u);
  EXPECT_EQ(flat_.CardinalityOf(1, V(3)), 1u);
  EXPECT_EQ(flat_.CardinalityOf(1, V(5)), 1u);
  EXPECT_EQ(flat_.CardinalityOf(0, V(1)), 4u);
  EXPECT_EQ(refine_stats_.total_cardinality, 4u);
}

TEST_F(PaperCeciTest, EnumerationFindsTheTwoEmbeddings) {
  Refine();
  auto symmetry = SymmetryConstraints::Compute(query_);
  EnumOptions options;
  options.symmetry = &symmetry;
  Enumerator enumerator(data_, tree_, flat_, options);
  EmbeddingCollector collector;
  EmbeddingVisitor visitor = std::ref(collector);
  std::uint64_t count = enumerator.EnumerateAll(&visitor);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(collector.AsSet(), PaperExample::ExpectedEmbeddings());
}

TEST_F(PaperCeciTest, EdgeVerificationModeAgrees) {
  Refine();
  auto symmetry = SymmetryConstraints::Compute(query_);
  EnumOptions options;
  options.symmetry = &symmetry;
  options.nte_intersection = false;
  Enumerator enumerator(data_, tree_, flat_, options);
  EXPECT_EQ(enumerator.EnumerateAll(nullptr), 2u);
  EXPECT_GT(enumerator.stats().edge_verifications, 0u);
  EXPECT_EQ(enumerator.stats().intersections, 0u);
}

TEST(PaperMatcherTest, FullPipelineFindsTwoEmbeddings) {
  Graph data = PaperExample::Data();
  Graph query = PaperExample::Query();
  CeciMatcher matcher(data);
  EmbeddingCollector collector;
  EmbeddingVisitor visitor = std::ref(collector);
  auto result = matcher.Match(query, MatchOptions{}, &visitor);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embedding_count, 2u);
  EXPECT_EQ(collector.AsSet(), PaperExample::ExpectedEmbeddings());
  EXPECT_GT(result->stats.ceci_bytes, 0u);
  // Refinement only removes candidate edges (the raw byte count can grow
  // because refinement materializes the cardinality arrays).
  EXPECT_LE(result->stats.candidate_edges,
            result->stats.candidate_edges_unrefined);
}

TEST(PaperMatcherTest, SearchCardinalityReductionFromIntro) {
  // §1: with embedding clusters the search cardinality drops from 32
  // (4×4×2) to 10. Our recursive-call count over the refined CECI must be
  // far below the unfiltered product of candidate set sizes. The paper's
  // plan: BFS order, and every level recursed into (no leaf counting).
  Graph data = PaperExample::Data();
  Graph query = PaperExample::Query();
  CeciMatcher matcher(data);
  MatchOptions options;
  options.order = OrderStrategy::kBfs;
  options.leaf_count_shortcut = false;
  auto result = matcher.Match(query, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->stats.enumeration.recursive_calls, 16u);
}

}  // namespace
}  // namespace ceci
