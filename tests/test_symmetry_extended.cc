// Extended symmetry-breaking validation: for a battery of symmetric query
// shapes, the broken count times |Aut| must equal the unbroken count, and
// the broken count must equal the number of distinct vertex-set matches
// found by brute force.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "ceci/matcher.h"
#include "ceci/symmetry.h"
#include "gen/paper_queries.h"
#include "gen/random_graphs.h"
#include "test_support.h"

namespace ceci {
namespace {

using ::ceci::testing::MakeUnlabeled;

struct Shape {
  const char* name;
  std::size_t n;
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::size_t expected_aut;
};

std::vector<Shape> Shapes() {
  return {
      {"edge", 2, {{0, 1}}, 2},
      {"path3", 3, {{0, 1}, {1, 2}}, 2},
      {"triangle", 3, {{0, 1}, {1, 2}, {0, 2}}, 6},
      {"path4", 4, {{0, 1}, {1, 2}, {2, 3}}, 2},
      {"star4", 4, {{0, 1}, {0, 2}, {0, 3}}, 6},
      {"square", 4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}}, 8},
      {"diamond", 4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}}, 4},
      {"k4", 4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, 24},
      {"bull", 5, {{0, 1}, {1, 2}, {0, 2}, {0, 3}, {1, 4}}, 2},
      {"house", 5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}, {1, 4}}, 2},
      {"c5", 5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}}, 10},
      {"k5", 5,
       {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3},
        {2, 4}, {3, 4}},
       120},
      {"butterfly", 5,
       {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}}, 8},
      {"k33", 6,
       {{0, 3}, {0, 4}, {0, 5}, {1, 3}, {1, 4}, {1, 5}, {2, 3}, {2, 4},
        {2, 5}},
       72},
      {"prism", 6,
       {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {0, 3}, {1, 4},
        {2, 5}},
       12},
  };
}

TEST(SymmetryExtendedTest, AutomorphismGroupOrders) {
  for (const Shape& shape : Shapes()) {
    Graph q = MakeUnlabeled(shape.n, shape.edges);
    auto sym = SymmetryConstraints::Compute(q);
    EXPECT_EQ(sym.automorphism_count(), shape.expected_aut) << shape.name;
  }
}

class SymmetryShapeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SymmetryShapeTest, BrokenCountTimesAutEqualsUnbroken) {
  const Shape shape = Shapes()[GetParam()];
  Graph query = MakeUnlabeled(shape.n, shape.edges);
  Graph data = GenerateSocialGraph(250, 10, 40 + GetParam());
  CeciMatcher matcher(data);
  MatchOptions broken;
  MatchOptions unbroken;
  unbroken.break_automorphisms = false;
  auto a = matcher.Match(query, broken);
  auto b = matcher.Match(query, unbroken);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->embedding_count, a->embedding_count * shape.expected_aut)
      << shape.name;
}

INSTANTIATE_TEST_SUITE_P(Shapes, SymmetryShapeTest,
                         ::testing::Range<std::size_t>(0, Shapes().size()));

TEST(SymmetryExtendedTest, BrokenEmbeddingsAreDistinctVertexSets) {
  // With all automorphisms broken, no two reported embeddings may use the
  // same vertex set. This holds for complete queries (a vertex set admits
  // exactly one triangle), unlike e.g. C4 where one K4 set holds three
  // distinct squares.
  Graph query = MakeUnlabeled(3, {{0, 1}, {1, 2}, {0, 2}});  // K3
  Graph data = GenerateSocialGraph(300, 10, 91);
  CeciMatcher matcher(data);
  std::set<std::vector<VertexId>> vertex_sets;
  std::size_t duplicates = 0;
  EmbeddingVisitor visitor = [&](std::span<const VertexId> m) {
    std::vector<VertexId> sorted(m.begin(), m.end());
    std::sort(sorted.begin(), sorted.end());
    if (!vertex_sets.insert(sorted).second) ++duplicates;
    return true;
  };
  auto result = matcher.Match(query, MatchOptions{}, &visitor);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(duplicates, 0u);
  EXPECT_EQ(vertex_sets.size(), result->embedding_count);
}

// The connected 4-vertex shapes with a cycle, numbered as the dist-batch
// workload writes them, plus the paper's QG1-QG5.
struct PlanShape {
  const char* name;
  Graph query;
};

std::vector<PlanShape> PlanShapes() {
  return {
      {"cycle", MakeUnlabeled(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}})},
      {"paw", MakeUnlabeled(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}})},
      {"diamond", MakeUnlabeled(4, {{0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}})},
      {"clique",
       MakeUnlabeled(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})},
      {"QG1", MakePaperQuery(PaperQuery::kQG1)},
      {"QG2", MakePaperQuery(PaperQuery::kQG2)},
      {"QG3", MakePaperQuery(PaperQuery::kQG3)},
      {"QG4", MakePaperQuery(PaperQuery::kQG4)},
      {"QG5", MakePaperQuery(PaperQuery::kQG5)},
  };
}

// Recursive calls of `prepared` under the set it was prepared with and
// under the other valid set.
std::pair<std::uint64_t, std::uint64_t> CallsChosenAndOther(
    const CeciMatcher& matcher, PreparedQuery* prepared) {
  MatchOptions options;
  const MatchResult chosen = matcher.Execute(*prepared, options);
  const std::uint64_t count = chosen.embedding_count;
  prepared->symmetry = prepared->symmetry.Mirrored();
  const MatchResult other = matcher.Execute(*prepared, options);
  EXPECT_EQ(other.embedding_count, count);
  prepared->symmetry = prepared->symmetry.Mirrored();
  return {chosen.stats.enumeration.recursive_calls,
          other.stats.enumeration.recursive_calls};
}

// The estimator against the deterministic counter: on Holme–Kim graphs,
// where low ids are hubs, and on their id-reversed copies, the set each
// query picks never searches more than the one it passed over.
TEST(PlanChoiceTest, ChosenSetNeverCostsMoreCalls) {
  for (std::uint64_t g = 0; g < 2; ++g) {
    const Graph original = GenerateSocialGraph(3000, 8, 7000 + g);
    const Graph reversed = ::ceci::testing::ReverseVertexIds(original);
    for (const bool reverse : {false, true}) {
      const Graph& data = reverse ? reversed : original;
      CeciMatcher matcher(data);
      for (const PlanShape& shape : PlanShapes()) {
        SCOPED_TRACE(std::string(shape.name) + (reverse ? " reversed" : "") +
                     " graph " + std::to_string(g));
        auto prepared = matcher.Prepare(shape.query, MatchOptions{});
        ASSERT_TRUE(prepared.ok());
        const MatchStats& s = prepared->stats;
        EXPECT_EQ(prepared->symmetry.mirrored(), s.restrictions_mirrored);
        EXPECT_EQ(s.restrictions_mirrored,
                  s.restriction_estimate.max_set <
                      s.restriction_estimate.min_set);
        const auto [chosen, other] = CallsChosenAndOther(matcher, &*prepared);
        EXPECT_LE(chosen, other);

        // Where the hubs sit decides the direction.
        const std::string name = shape.name;
        if (name == "cycle" || name == "QG5") {
          EXPECT_EQ(s.restrictions_mirrored, !reverse);
        } else if (name == "QG2") {
          EXPECT_EQ(s.restrictions_mirrored, reverse);
        } else if (name == "paw") {
          EXPECT_FALSE(s.restrictions_mirrored);
        }
      }
    }
  }
}

// Without automorphisms to break there is nothing to choose: no estimate
// runs and no plan time is spent.
TEST(PlanChoiceTest, AsymmetricQuerySkipsTheChoice) {
  const Graph data = GenerateSocialGraph(500, 6, 3);
  CeciMatcher matcher(data);
  MatchOptions unbroken;
  unbroken.break_automorphisms = false;
  auto prepared = matcher.Prepare(MakePaperQuery(PaperQuery::kQG2), unbroken);
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared->symmetry.empty());
  EXPECT_EQ(prepared->stats.plan_seconds, 0.0);
  EXPECT_EQ(prepared->stats.restriction_estimate.min_set, 0u);
  EXPECT_EQ(prepared->stats.restriction_estimate.max_set, 0u);
  EXPECT_FALSE(prepared->stats.restrictions_mirrored);
}

}  // namespace
}  // namespace ceci
