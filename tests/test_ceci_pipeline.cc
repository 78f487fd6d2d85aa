// Unit tests for CECI construction and refinement internals beyond the
// paper's running example: cascades, NTE-less builds, completeness.
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/invariant_auditor.h"
#include "ceci/ceci_builder.h"
#include "ceci/matcher.h"
#include "ceci/profiler.h"
#include "ceci/refinement.h"
#include "ceci/stats_json.h"
#include "json_test_util.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace ceci {
namespace {

using ::ceci::testing::MakeGraph;
using ::ceci::testing::MakeUnlabeled;
using ::ceci::testing::PaperExample;

struct Pipeline {
  explicit Pipeline(const Graph& data, const Graph& query, VertexId root,
                    const BuildOptions& options = BuildOptions{})
      : nlc(data) {
    auto t = QueryTree::Build(query, root);
    CECI_CHECK(t.ok());
    tree = std::move(t).value();
    CeciBuilder builder(data, nlc);
    index = builder.Build(query, tree, options, &build_stats);
    RefineCeci(tree, data.num_vertices(), &index, &refine_stats);
    flat = FlatCeciIndex::Build(index, tree);
    // Every pipeline test doubles as an auditor fixture: the invariant
    // auditor must accept the frozen index.
    audit = AuditCeciIndex(data, query, tree, flat);
    EXPECT_TRUE(audit.ok()) << audit.ToString();
  }

  NlcIndex nlc;
  QueryTree tree;
  CeciIndex index;
  FlatCeciIndex flat;
  BuildStats build_stats;
  RefineStats refine_stats;
  AuditReport audit;
};

TEST(CeciBuilderTest, TriangleOnTriangleKeepsEverything) {
  Graph data = MakeUnlabeled(3, {{0, 1}, {1, 2}, {0, 2}});
  Graph query = MakeUnlabeled(3, {{0, 1}, {1, 2}, {0, 2}});
  Pipeline p(data, query, 0);
  EXPECT_EQ(p.index.at(0).candidates.size(), 3u);
  EXPECT_EQ(p.refine_stats.pruned_candidates, 0u);
  // Per pivot: two children branches of 2 candidates each → 2×2 = 4
  // (cardinality over-estimates; the true per-pivot count is 2).
  EXPECT_EQ(p.refine_stats.total_cardinality, 12u);
}

TEST(CeciBuilderTest, LabelFilterPrunes) {
  // v3 (label 2) is adjacent to the pivot and must be rejected by LF when
  // expanding towards u1 (label 1).
  Graph data = MakeGraph({0, 1, 1, 2}, {{0, 1}, {0, 2}, {0, 3}});
  Graph query = MakeGraph({0, 1}, {{0, 1}});
  Pipeline p(data, query, 0);
  EXPECT_EQ(p.index.at(0).candidates, (std::vector<VertexId>{0}));
  EXPECT_EQ(p.index.at(1).candidates, (std::vector<VertexId>{1, 2}));
  EXPECT_GT(p.build_stats.rejected_label, 0u);
}

TEST(CeciBuilderTest, DegreeFilterPrunes) {
  // Star data; query triangle needs degree 2 everywhere.
  Graph data = MakeUnlabeled(4, {{0, 1}, {0, 2}, {0, 3}});
  Graph query = MakeUnlabeled(3, {{0, 1}, {1, 2}, {0, 2}});
  Pipeline p(data, query, 0);
  EXPECT_TRUE(p.index.at(0).candidates.empty());
}

TEST(CeciBuilderTest, NlcFilterPrunes) {
  // Query: center with one label-1 and one label-2 neighbor. Data vertex 0
  // has two label-1 neighbors only → NLC must reject it.
  Graph data = MakeGraph({0, 1, 1, 0, 1, 2}, {{0, 1}, {0, 2}, {3, 4}, {3, 5}});
  Graph query = MakeGraph({0, 1, 2}, {{0, 1}, {0, 2}});
  Pipeline p(data, query, 0);
  EXPECT_EQ(p.index.at(0).candidates, (std::vector<VertexId>{3}));
  EXPECT_GT(p.build_stats.rejected_nlc + p.build_stats.rejected_label, 0u);
}

TEST(CeciBuilderTest, EmptyKeyCascadeRemovesParentCandidate) {
  // Path query A-B-C-D. Decoy branch v0-v4(B)-v5(C)-v6(label 9): v5 fails
  // NLCF for u2 (no D neighbor), emptying v4's key in TE of u2, so the
  // cascade removes v4 from the candidates of u1 (Algorithm 1 lines 9-12).
  Graph data = MakeGraph({0, 1, 2, 3, 1, 2, 9},
                         {{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 5}, {5, 6}});
  Graph query = MakeGraph({0, 1, 2, 3}, {{0, 1}, {1, 2}, {2, 3}});
  Pipeline p(data, query, 0);
  EXPECT_EQ(p.index.at(1).candidates, (std::vector<VertexId>{1}));
  EXPECT_GT(p.build_stats.cascade_removals, 0u);
}

TEST(CeciBuilderTest, ParallelBuildMatchesSerial) {
  Graph data = PaperExample::Data();
  Graph query = PaperExample::Query();
  Pipeline serial(data, query, 0);
  ThreadPool pool(4);
  BuildOptions options;
  options.pool = &pool;
  options.parallel_threshold = 1;  // force the parallel path
  Pipeline parallel(data, query, 0, options);
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    EXPECT_EQ(serial.index.at(u).candidates, parallel.index.at(u).candidates)
        << "u=" << u;
    EXPECT_EQ(serial.index.at(u).cardinalities,
              parallel.index.at(u).cardinalities);
    EXPECT_EQ(serial.index.at(u).te.TotalValues(),
              parallel.index.at(u).te.TotalValues());
  }
}

TEST(CeciBuilderTest, NteFreeBuildHasNoNteLists) {
  Graph data = PaperExample::Data();
  Graph query = PaperExample::Query();
  NlcIndex nlc(data);
  auto tree = QueryTree::Build(query, 0);
  ASSERT_TRUE(tree.ok());
  BuildOptions options;
  options.build_nte_lists = false;
  CeciBuilder builder(data, nlc);
  CeciIndex index = builder.Build(query, *tree, options, nullptr);
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    EXPECT_TRUE(index.at(u).nte.empty());
  }
  // Refinement still works (no NTE union checks) and keeps completeness.
  RefineCeci(*tree, data.num_vertices(), &index, nullptr);
  EXPECT_FALSE(index.at(0).candidates.empty());
}

TEST(CeciIndexTest, SizeAccountingAndTheoreticalBound) {
  Graph data = PaperExample::Data();
  Graph query = PaperExample::Query();
  Pipeline p(data, query, 0);
  // CeciBytes of the arena is the §3.4 accounting of the refined lists.
  std::size_t keys = 0;
  std::size_t candidates = 0;
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    keys += p.index.at(u).te.num_keys();
    for (const CandidateRuns& list : p.index.at(u).nte) {
      keys += list.num_keys();
    }
    candidates += p.index.at(u).candidates.size();
  }
  EXPECT_EQ(CeciBytes(p.flat), keys * 28 + p.index.TotalCandidateEdges() * 4 +
                                   candidates * (4 + sizeof(Cardinality)));
  EXPECT_GT(p.index.TotalCandidateEdges(), 0u);
  std::size_t theoretical =
      CeciIndex::TheoreticalBytes(query.num_edges(), data.num_edges());
  EXPECT_EQ(theoretical, query.num_edges() * data.num_edges() * 8);
  // The refined index stores far fewer candidate edges than the bound.
  EXPECT_LT(p.index.TotalCandidateEdges() * 8, theoretical);
}

TEST(CeciIndexTest, CardinalityOfMissingCandidateIsZero) {
  Graph data = PaperExample::Data();
  Graph query = PaperExample::Query();
  Pipeline p(data, query, 0);
  EXPECT_EQ(p.flat.CardinalityOf(0, 99), 0u);
  EXPECT_EQ(p.flat.CardinalityOf(1, 6), 0u);  // v7 pruned by refinement
}

// The invariant auditor accepts the paper's Fig. 2 running example and
// actually exercises the candidate structure.
TEST(CeciPipelineTest, AuditorAcceptsPaperExample) {
  Graph data = PaperExample::Data();
  Graph query = PaperExample::Query();
  EXPECT_TRUE(AuditGraph(data).ok());
  EXPECT_TRUE(AuditGraph(query).ok());
  Pipeline p(data, query, 0);  // audits the frozen index
  EXPECT_TRUE(p.audit.ok()) << p.audit.ToString();
  EXPECT_GT(p.audit.checks_run, 50u);
}

// Completeness (Lemma 1): every embedding found by a brute-force scan has
// all its (parent-candidate, candidate) pairs present in the index lists.
TEST(CeciPipelineTest, CompletenessOnSmallRandomGraph) {
  Graph data = MakeUnlabeled(
      8, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {5, 6},
          {6, 7}, {4, 7}, {2, 5}, {1, 6}});
  Graph query = MakeUnlabeled(3, {{0, 1}, {1, 2}, {0, 2}});  // triangle
  Pipeline p(data, query, 0);
  // Brute force all triangles in data.
  std::size_t triangles = 0;
  for (VertexId a = 0; a < data.num_vertices(); ++a) {
    for (VertexId b : data.neighbors(a)) {
      if (b <= a) continue;
      for (VertexId c : data.neighbors(b)) {
        if (c <= b || !data.HasEdge(a, c)) continue;
        ++triangles;
        // Every triangle corner must survive as a candidate of some query
        // vertex; with one orbit, all corners must be candidates of root.
        for (VertexId corner : {a, b, c}) {
          bool found = false;
          for (VertexId u = 0; u < 3; ++u) {
            const auto& cands = p.index.at(u).candidates;
            if (std::binary_search(cands.begin(), cands.end(), corner)) {
              found = true;
            }
          }
          EXPECT_TRUE(found) << "corner " << corner << " lost";
        }
      }
    }
  }
  EXPECT_GT(triangles, 0u);
}

TEST(SkewSummaryTest, UniformValuesHaveZeroGini) {
  const std::vector<Cardinality> values = {4, 4, 4, 4};
  SkewSummary s = SkewSummary::Of(values);
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.total, 16u);
  EXPECT_EQ(s.max, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.max_over_mean, 1.0);
  EXPECT_DOUBLE_EQ(s.gini, 0.0);
}

TEST(SkewSummaryTest, ConcentratedMassApproachesGiniOne) {
  const std::vector<Cardinality> values = {0, 0, 0, 100};
  SkewSummary s = SkewSummary::Of(values);
  EXPECT_EQ(s.max, 100u);
  EXPECT_DOUBLE_EQ(s.max_over_mean, 4.0);
  EXPECT_DOUBLE_EQ(s.gini, 0.75);  // (n-1)/n for all mass on one item
}

TEST(CeciPipelineTest, ProfileJsonSchemaOnPaperExample) {
  Graph data = PaperExample::Data();
  Graph query = PaperExample::Query();
  CeciMatcher matcher(data);
  MatchOptions options;
  options.profile = true;
  options.threads = 2;
  auto result = matcher.Match(query, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->profile.has_value());

  auto doc = testing::ParseJson(MetricsReportJson(*result));
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->Has("profile"));
  const auto& profile = doc->At("profile");

  const auto& vertices = profile.At("vertices").array;
  ASSERT_EQ(vertices.size(), query.num_vertices());
  std::uint64_t byte_sum = 0;
  std::set<double> seen_u;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const auto& v = vertices[i];
    for (const char* key :
         {"u", "position", "candidates_filtered", "candidates_built",
          "candidates_refined", "rejected_label", "rejected_degree",
          "rejected_nlc", "refine_pruned", "refine_survival", "te_keys",
          "te_edges", "te_bytes", "nte_lists", "nte_edges", "nte_bytes",
          "candidate_bytes", "recursive_calls"}) {
      EXPECT_TRUE(v.Has(key)) << "vertex record missing " << key;
    }
    EXPECT_EQ(v.Num("position"), static_cast<double>(i));
    EXPECT_GT(v.Num("candidates_refined"), 0.0);
    EXPECT_LE(v.Num("candidates_refined"), v.Num("candidates_built"));
    seen_u.insert(v.Num("u"));
    byte_sum += static_cast<std::uint64_t>(
        v.Num("te_bytes") + v.Num("nte_bytes") + v.Num("candidate_bytes"));
  }
  EXPECT_EQ(seen_u.size(), query.num_vertices());  // each vertex once

  const auto& index = profile.At("index");
  EXPECT_EQ(index.Num("bytes"), index.Num("te_bytes") +
                                    index.Num("nte_bytes") +
                                    index.Num("candidate_bytes"));
  EXPECT_EQ(static_cast<std::uint64_t>(index.Num("bytes")), byte_sum);
  // Enumeration reads the flat layout by default, so the profiler's
  // footprint walk accounts for the arena: equal to flat_bytes up to the
  // < 8 bytes of alignment padding per slab boundary. (ceci_bytes still
  // describes the pointer layout's payload estimate — a different figure.)
  const auto& sidx = doc->At("stats").At("index");
  EXPECT_LE(index.Num("bytes"), sidx.Num("flat_bytes"));
  EXPECT_LT(sidx.Num("flat_bytes") - index.Num("bytes"), 72.0);

  for (const char* block : {"clusters", "work_units"}) {
    const auto& skew = profile.At(block);
    for (const char* key :
         {"count", "total", "max", "mean", "max_over_mean", "gini"}) {
      EXPECT_TRUE(skew.Has(key)) << block << " missing " << key;
    }
    EXPECT_GE(skew.Num("gini"), 0.0);
    EXPECT_LE(skew.Num("gini"), 1.0);
  }
  EXPECT_GT(profile.At("clusters").Num("count"), 0.0);

  const auto& workers = profile.At("workers");
  EXPECT_EQ(workers.Num("count"), 2.0);
  EXPECT_GE(workers.Num("occupancy"), 0.0);
  EXPECT_LE(workers.Num("occupancy"), 1.0);
  ASSERT_EQ(workers.At("per_worker").array.size(), 2u);
  double units = 0.0;
  for (const auto& w : workers.At("per_worker").array) {
    EXPECT_TRUE(w.Has("busy_seconds"));
    units += w.Num("units");
  }
  EXPECT_GT(units, 0.0);  // the two embeddings came from some work unit
}

TEST(CeciPipelineTest, ProfileAbsentByDefault) {
  Graph data = PaperExample::Data();
  Graph query = PaperExample::Query();
  CeciMatcher matcher(data);
  auto result = matcher.Match(query, MatchOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->profile.has_value());
  auto doc = testing::ParseJson(MetricsReportJson(*result));
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(doc->Has("profile"));
}

TEST(CeciPipelineTest, ProfilePresentButEmptyForInfeasibleQuery) {
  Graph data = PaperExample::Data();
  Graph query = MakeGraph({99, 99}, {{0, 1}});
  CeciMatcher matcher(data);
  MatchOptions options;
  options.profile = true;
  auto result = matcher.Match(query, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embedding_count, 0u);
  ASSERT_TRUE(result->profile.has_value());
  EXPECT_TRUE(result->profile->vertices.empty());
}

}  // namespace
}  // namespace ceci
