// Negative tests for the invariant auditor: plant one specific corruption
// in a Graph, a CeciIndex, an injectivity bitmap, or a work-unit partition
// and assert the auditor reports exactly the expected violation class.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "ceci/ceci_builder.h"
#include "ceci/extreme_cluster.h"
#include "ceci/matcher.h"
#include "ceci/refinement.h"
#include "ceci/symmetry.h"
#include "test_support.h"

namespace ceci {

// Friended backdoors (declared in the respective headers) used to plant
// corruption that the public API refuses to create.
class GraphTestPeer {
 public:
  static std::vector<VertexId>& neighbors(Graph* g) { return g->neighbors_; }
};

class CandidateListTestPeer {
 public:
  static std::vector<VertexId>& keys(CandidateList* l) { return l->keys_; }
  static std::vector<std::vector<VertexId>>& values(CandidateList* l) {
    return l->values_;
  }
};

// Plants corruption inside a flat arena (owned arenas only: Build/Clone).
// The const_casts are legitimate here — the bytes live in the peer-visible
// owned_ buffer, and FlatCeciIndex is immutable only by API contract.
class FlatIndexTestPeer {
 public:
  static FlatVertexMeta* VertexMetas(FlatCeciIndex* f) {
    return const_cast<FlatVertexMeta*>(f->vertices_.data());
  }
  static VertexId* Order(FlatCeciIndex* f) {
    return const_cast<VertexId*>(f->order_.data());
  }
  static FlatCeciIndex::Slab& Slab(FlatCeciIndex* f,
                                   FlatCeciIndex::SlabKind kind) {
    return f->slabs_[kind];
  }
  static std::uint64_t* BitmapPool(FlatCeciIndex* f) {
    return const_cast<std::uint64_t*>(f->bitmap_pool_.data());
  }
  static std::uint32_t* ArrayPool(FlatCeciIndex* f) {
    return const_cast<std::uint32_t*>(f->array_pool_.data());
  }
};

namespace {

using ::ceci::testing::MakeUnlabeled;
using ::ceci::testing::PaperExample;

// Builds the full build+refine pipeline for the paper's Fig. 2 example.
struct Fixture {
  Fixture() : data(PaperExample::Data()), query(PaperExample::Query()),
              nlc(data) {
    auto t = QueryTree::Build(query, 0);
    CECI_CHECK(t.ok());
    tree = std::move(t).value();
    CeciBuilder builder(data, nlc);
    index = builder.Build(query, tree, BuildOptions{}, nullptr);
    RefineCeci(tree, data.num_vertices(), &index, nullptr);
  }

  AuditReport Audit(bool refined = true) const {
    AuditOptions options;
    options.refined = refined;
    return AuditCeciIndex(data, query, tree, index, options);
  }

  Graph data;
  Graph query;
  NlcIndex nlc;
  QueryTree tree;
  CeciIndex index;
};

// Index of `span`'s first element within the graph's backing CSR array.
std::size_t CsrOffset(const Graph& g, std::span<const VertexId> span,
                      const std::vector<VertexId>& backing) {
  (void)g;
  return static_cast<std::size_t>(span.data() - backing.data());
}

TEST(AuditGraphTest, AcceptsHealthyGraphs) {
  EXPECT_TRUE(AuditGraph(PaperExample::Data()).ok());
  EXPECT_TRUE(AuditGraph(PaperExample::Query()).ok());
}

TEST(AuditGraphTest, DetectsUnsortedAdjacency) {
  Graph g = MakeUnlabeled(4, {{0, 1}, {0, 2}, {0, 3}});
  auto& csr = GraphTestPeer::neighbors(&g);
  const std::size_t at = CsrOffset(g, g.neighbors(0), csr);
  std::swap(csr[at], csr[at + 1]);  // neighbors of v0 become {2, 1, 3}

  AuditReport report = AuditGraph(g);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kGraphAdjacencyUnsorted), 1u);
}

TEST(AuditGraphTest, DetectsAsymmetricEdge) {
  Graph g = MakeUnlabeled(3, {{0, 1}, {1, 2}});
  auto& csr = GraphTestPeer::neighbors(&g);
  const std::size_t at = CsrOffset(g, g.neighbors(0), csr);
  csr[at] = 2;  // v0 now claims edge (0,2); v2 stores no reverse

  AuditReport report = AuditGraph(g);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kGraphAsymmetricEdge), 1u);
}

TEST(AuditGraphTest, DetectsOutOfRangeNeighbor) {
  Graph g = MakeUnlabeled(3, {{0, 1}, {1, 2}});
  auto& csr = GraphTestPeer::neighbors(&g);
  const std::size_t at = CsrOffset(g, g.neighbors(0), csr);
  csr[at] = 99;  // dangling vertex id

  AuditReport report = AuditGraph(g);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kGraphAdjacencyOutOfRange), 1u);
}

TEST(AuditIndexTest, AcceptsHealthyIndex) {
  Fixture f;
  AuditReport report = f.Audit();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks_run, 50u);
}

TEST(AuditIndexTest, DetectsUnsortedCandidates) {
  Fixture f;
  // Find a query vertex with at least two candidates and swap the first
  // pair out of order.
  for (VertexId u = 0; u < f.query.num_vertices(); ++u) {
    auto& cands = f.index.at(u).candidates;
    if (cands.size() >= 2) {
      std::swap(cands[0], cands[1]);
      break;
    }
  }
  AuditReport report = f.Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kCandidatesUnsorted), 1u);
}

TEST(AuditIndexTest, DetectsUnsortedListValues) {
  Fixture f;
  bool planted = false;
  for (VertexId u = 0; u < f.query.num_vertices() && !planted; ++u) {
    if (u == f.tree.root()) continue;
    auto& values = CandidateListTestPeer::values(&f.index.at(u).te);
    for (auto& vals : values) {
      if (vals.size() >= 2) {
        std::reverse(vals.begin(), vals.end());
        planted = true;
        break;
      }
    }
  }
  ASSERT_TRUE(planted) << "paper example lost its multi-value TE entries";

  AuditReport report = f.Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kListUnsorted), 1u);
}

TEST(AuditIndexTest, DetectsDanglingCandidateEdge) {
  Fixture f;
  // Replace one TE value set with {key}: graphs have no self-loops, so the
  // candidate edge (key, key) cannot exist in the data graph. The audit
  // runs unrefined so the planted corruption trips exactly one check.
  bool planted = false;
  for (VertexId u = 0; u < f.query.num_vertices() && !planted; ++u) {
    if (u == f.tree.root()) continue;
    auto& te = f.index.at(u).te;
    if (te.num_keys() == 0) continue;
    const VertexId key = CandidateListTestPeer::keys(&te)[0];
    CandidateListTestPeer::values(&te)[0] = {key};
    planted = true;
  }
  ASSERT_TRUE(planted);

  AuditReport report = f.Audit(/*refined=*/false);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.CountOf(InvariantClass::kDanglingCandidateEdge), 1u);
  EXPECT_EQ(report.total_violations, 1u);
}

TEST(AuditIndexTest, DetectsStaleValueAfterRefinement) {
  Fixture f;
  // A value that is no longer a candidate of its query vertex must be
  // flagged in refined indexes (refinement compaction scrubs these).
  bool planted = false;
  for (VertexId u = 0; u < f.query.num_vertices() && !planted; ++u) {
    if (u == f.tree.root()) continue;
    auto& te = f.index.at(u).te;
    if (te.num_keys() == 0) continue;
    const VertexId key = CandidateListTestPeer::keys(&te)[0];
    // Any data neighbor of `key` that is NOT a candidate of u keeps the
    // candidate edge real while breaking membership.
    const auto& cands = f.index.at(u).candidates;
    for (VertexId v : f.data.neighbors(key)) {
      if (!std::binary_search(cands.begin(), cands.end(), v)) {
        CandidateListTestPeer::values(&te)[0] = {v};
        planted = true;
        break;
      }
    }
  }
  ASSERT_TRUE(planted) << "no non-candidate neighbor available to plant";

  AuditReport report = f.Audit(/*refined=*/true);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kValueNotCandidate), 1u);
}

TEST(AuditIndexTest, DetectsBrokenEmptyKeyCascade) {
  Fixture f;
  // Drop the first TE key of some non-root vertex while keeping its parent
  // candidate alive: the empty-key cascade invariant breaks.
  bool planted = false;
  for (VertexId u = 0; u < f.query.num_vertices() && !planted; ++u) {
    if (u == f.tree.root()) continue;
    auto& te = f.index.at(u).te;
    if (te.num_keys() == 0) continue;
    CandidateListTestPeer::keys(&te).erase(
        CandidateListTestPeer::keys(&te).begin());
    CandidateListTestPeer::values(&te).erase(
        CandidateListTestPeer::values(&te).begin());
    planted = true;
  }
  ASSERT_TRUE(planted);

  AuditReport report = f.Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kEmptyKeyCascade), 1u);
}

TEST(AuditInjectivityTest, AcceptsConsistentState) {
  const std::vector<VertexId> mapping = {4, 1, 66};
  std::vector<std::uint64_t> bits(2, 0);
  for (VertexId v : mapping) bits[v >> 6] |= std::uint64_t{1} << (v & 63);

  AuditReport report;
  AuditInjectivity(mapping, bits, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditInjectivityTest, DetectsStaleBitmap) {
  // u1 -> v1 is mapped but its bit is clear; v9's bit is set with no
  // query vertex mapping to it. Both directions must be flagged.
  const std::vector<VertexId> mapping = {4, 1, kInvalidVertex};
  std::vector<std::uint64_t> bits(1, 0);
  bits[0] |= std::uint64_t{1} << 4;
  bits[0] |= std::uint64_t{1} << 9;  // stale mark

  AuditReport report;
  AuditInjectivity(mapping, bits, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.CountOf(InvariantClass::kInjectivityBitset), 2u);
}

TEST(AuditInjectivityTest, DetectsDuplicateMapping) {
  const std::vector<VertexId> mapping = {4, 4};
  std::vector<std::uint64_t> bits(1, std::uint64_t{1} << 4);

  AuditReport report;
  AuditInjectivity(mapping, bits, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kInjectivityBitset), 1u);
}

class AuditWorkUnitsTest : public ::testing::Test {
 protected:
  AuditWorkUnitsTest() : symmetry_(SymmetryConstraints::None(
                             fixture_.query.num_vertices())) {
    enum_options_.symmetry = &symmetry_;
  }

  std::vector<WorkUnit> Build(bool decompose, double beta = 0.2) {
    return BuildWorkUnits(fixture_.data, fixture_.tree, flat_, enum_options_,
                          /*workers=*/2, beta, decompose,
                          /*sort_by_cardinality=*/false, nullptr);
  }

  AuditReport Audit(const std::vector<WorkUnit>& units) {
    AuditReport report;
    AuditWorkUnits(fixture_.data, fixture_.tree, flat_, enum_options_, units,
                   &report);
    return report;
  }

  Fixture fixture_;
  FlatCeciIndex flat_ = FlatCeciIndex::Build(fixture_.index, fixture_.tree);
  SymmetryConstraints symmetry_;
  EnumOptions enum_options_;
};

TEST_F(AuditWorkUnitsTest, AcceptsHealthyPartitions) {
  AuditReport coarse = Audit(Build(/*decompose=*/false));
  EXPECT_TRUE(coarse.ok()) << coarse.ToString();
  // A tiny beta forces extreme-cluster decomposition into longer prefixes.
  AuditReport fine = Audit(Build(/*decompose=*/true, /*beta=*/1e-6));
  EXPECT_TRUE(fine.ok()) << fine.ToString();
}

TEST_F(AuditWorkUnitsTest, DetectsClusterGap) {
  std::vector<WorkUnit> units = Build(/*decompose=*/false);
  ASSERT_FALSE(units.empty());
  // Dropping every unit uncovers each pivot that holds an embedding; the
  // paper example has at least one.
  AuditReport report = Audit({});
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kClusterGap), 1u);
}

TEST_F(AuditWorkUnitsTest, DetectsDuplicateUnit) {
  std::vector<WorkUnit> units = Build(/*decompose=*/false);
  ASSERT_FALSE(units.empty());
  units.push_back(units.front());

  AuditReport report = Audit(units);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kClusterOverlap), 1u);
}

// ---------------------------------------------------------------------
// Flat-layout corruption planting: freeze the paper example's refined
// index into an (owned) arena, damage exactly one structure through
// FlatIndexTestPeer, and assert AuditFlatIndex pins the right class.

struct FlatFixture : Fixture {
  FlatFixture() : flat(FlatCeciIndex::Build(index, tree)) {}

  AuditReport AuditFlat() const {
    AuditReport report;
    AuditFlatIndex(tree, flat, &report);
    return report;
  }

  FlatCeciIndex flat;
};

TEST(AuditFlatIndexTest, AcceptsHealthyArena) {
  FlatFixture f;
  AuditReport report = f.AuditFlat();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks_run, 20u);
  AuditReport against;
  AuditFlatAgainstIndex(f.tree, f.index, f.flat, &against);
  EXPECT_TRUE(against.ok()) << against.ToString();
}

TEST(AuditFlatIndexTest, DetectsCandidateRangeEscapingItsSlab) {
  FlatFixture f;
  FlatIndexTestPeer::VertexMetas(&f.flat)[1].cand_count += 1000;
  AuditReport report = f.AuditFlat();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kFlatOffsetBounds), 1u);
}

TEST(AuditFlatIndexTest, DetectsMisalignedSlab) {
  FlatFixture f;
  FlatIndexTestPeer::Slab(&f.flat, FlatCeciIndex::kCandidates).offset += 4;
  AuditReport report = f.AuditFlat();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kFlatSlabOrder), 1u);
}

TEST(AuditFlatIndexTest, DetectsSlabEscapingTheArena) {
  FlatFixture f;
  FlatIndexTestPeer::Slab(&f.flat, FlatCeciIndex::kBitmapPool).bytes += 1024;
  AuditReport report = f.AuditFlat();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kFlatSlabOrder), 1u);
}

TEST(AuditFlatIndexTest, DetectsTamperedMatchingOrder) {
  FlatFixture f;
  VertexId* order = FlatIndexTestPeer::Order(&f.flat);
  std::swap(order[0], order[1]);
  AuditReport report = f.AuditFlat();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kFlatRepresentation), 1u);
}

TEST(AuditFlatIndexTest, DetectsBitmapPopcountDrift) {
  // The paper example's value sets are all sparse, so build a dense one:
  // a hub with 70 leaves makes the TE entry a bitmap (2 words beat 70
  // ranks). Toggling rank 0 desynchronizes popcount and stored count.
  std::vector<Label> labels(71, 1);
  labels[0] = 0;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 1; v <= 70; ++v) edges.push_back({0, v});
  Graph data = ceci::testing::MakeGraph(labels, edges);
  Graph query = ceci::testing::MakeGraph({0, 1}, {{0, 1}});
  NlcIndex nlc(data);
  auto tree = QueryTree::Build(query, 0);
  ASSERT_TRUE(tree.ok());
  CeciBuilder builder(data, nlc);
  CeciIndex index = builder.Build(query, *tree, BuildOptions{}, nullptr);
  RefineCeci(*tree, data.num_vertices(), &index, nullptr);
  FlatCeciIndex flat = FlatCeciIndex::Build(index, *tree);
  ASSERT_GE(flat.BitmapEntries(), 1u);

  FlatIndexTestPeer::BitmapPool(&flat)[0] ^= 1u;
  AuditReport report;
  AuditFlatIndex(*tree, flat, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kFlatRepresentation), 1u);
}

TEST(AuditFlatIndexTest, DetectsUnsortedRankArray) {
  FlatFixture f;
  // Find an array entry with two distinct ranks and swap them in the pool.
  std::size_t at = static_cast<std::size_t>(-1);
  f.flat.ForEachList([&](VertexId, std::int32_t, VertexId,
                         const FlatCeciIndex::EntryRef& ref) {
    if (at == static_cast<std::size_t>(-1) && !ref.is_bitmap() &&
        ref.ranks.size() >= 2) {
      at = static_cast<std::size_t>(ref.ranks.data() -
                                    f.flat.array_pool().data());
    }
  });
  ASSERT_NE(at, static_cast<std::size_t>(-1))
      << "paper example lost its multi-rank array entries";
  std::uint32_t* pool = FlatIndexTestPeer::ArrayPool(&f.flat);
  std::swap(pool[at], pool[at + 1]);
  AuditReport report = f.AuditFlat();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kFlatRepresentation), 1u);
}

TEST(AuditFlatIndexTest, DetectsDriftFromThePointerIndex) {
  FlatFixture f;
  // Mutate the pointer side after the freeze: the layouts now disagree on
  // one TE value set, which only the cross-check can see (the arena alone
  // is still perfectly valid).
  bool planted = false;
  for (VertexId u = 0; u < f.query.num_vertices() && !planted; ++u) {
    if (u == f.tree.root()) continue;
    auto& te = f.index.at(u).te;
    for (auto& vals : CandidateListTestPeer::values(&te)) {
      if (vals.size() >= 2) {
        vals.pop_back();
        planted = true;
        break;
      }
    }
  }
  ASSERT_TRUE(planted);
  EXPECT_TRUE(f.AuditFlat().ok());
  AuditReport against;
  AuditFlatAgainstIndex(f.tree, f.index, f.flat, &against);
  EXPECT_FALSE(against.ok());
  EXPECT_GE(against.CountOf(InvariantClass::kFlatRepresentation), 1u);
}

// Fixture running a full profiled Prepare + Execute and keeping the
// prepared query, whose frozen arena the profile describes — exactly what
// `ceci_query --explain --audit` does.
struct ProfiledMatch {
  ProfiledMatch() : data(PaperExample::Data()), query(PaperExample::Query()) {
    CeciMatcher matcher(data);
    MatchOptions options;
    options.profile = true;
    auto p = matcher.Prepare(query, options);
    CECI_CHECK(p.ok());
    prepared = std::move(p).value();
    MatchResult result = matcher.Execute(prepared, options);
    CECI_CHECK(result.profile.has_value());
    profile = *result.profile;
  }

  Graph data;
  Graph query;
  PreparedQuery prepared;
  QueryProfile profile;
};

TEST(AuditQueryProfileTest, AcceptsProfileFromRealMatch) {
  ProfiledMatch m;
  AuditReport report;
  AuditQueryProfile(m.prepared.tree, m.prepared.flat, m.profile, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks_run, 0u);
}

TEST(AuditQueryProfileTest, DetectsTamperedCandidateCount) {
  ProfiledMatch m;
  m.profile.vertices[2].candidates_refined += 1;
  AuditReport report;
  AuditQueryProfile(m.prepared.tree, m.prepared.flat, m.profile, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.CountOf(InvariantClass::kProfileMismatch), 0u);
}

TEST(AuditQueryProfileTest, DetectsTamperedTeEdgeCount) {
  ProfiledMatch m;
  m.profile.vertices[1].te_edges += 5;
  AuditReport report;
  AuditQueryProfile(m.prepared.tree, m.prepared.flat, m.profile, &report);
  EXPECT_GT(report.CountOf(InvariantClass::kProfileMismatch), 0u);
}

TEST(AuditQueryProfileTest, DetectsTamperedByteTotal) {
  ProfiledMatch m;
  m.profile.index_bytes += 64;
  AuditReport report;
  AuditQueryProfile(m.prepared.tree, m.prepared.flat, m.profile, &report);
  EXPECT_GT(report.CountOf(InvariantClass::kProfileMismatch), 0u);
}

TEST(AuditQueryProfileTest, DetectsVertexCountMismatch) {
  ProfiledMatch m;
  m.profile.vertices.pop_back();
  AuditReport report;
  AuditQueryProfile(m.prepared.tree, m.prepared.flat, m.profile, &report);
  EXPECT_GT(report.CountOf(InvariantClass::kProfileMismatch), 0u);
}

// Runs a real end-to-end match so the termination audit sees genuine
// accounting, then lets tests tamper with individual fields.
MatchResult RealMatch(const MatchOptions& options = {}) {
  Graph data = PaperExample::Data();  // matcher keeps a reference
  CeciMatcher matcher(data);
  auto result = matcher.Match(PaperExample::Query(), options);
  CECI_CHECK(result.ok());
  return *std::move(result);
}

TEST(AuditMatchResultTest, AcceptsCompletedMatch) {
  MatchResult result = RealMatch();
  AuditReport report;
  AuditMatchResult(result, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks_run, 0u);
}

TEST(AuditMatchResultTest, AcceptsDeadlineTrippedMatch) {
  MatchOptions options;
  options.budget.deadline_seconds = 1e-9;  // expires before any work
  MatchResult result = RealMatch(options);
  ASSERT_EQ(result.termination, TerminationReason::kDeadline);
  AuditReport report;
  AuditMatchResult(result, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditMatchResultTest, DetectsTamperedTermination) {
  MatchResult result = RealMatch();
  result.termination = TerminationReason::kDeadline;  // flag never set
  AuditReport report;
  AuditMatchResult(result, &report);
  EXPECT_GT(report.CountOf(InvariantClass::kTerminationAccounting), 0u);
}

TEST(AuditMatchResultTest, DetectsBudgetFlagWithoutMatchingReason) {
  MatchResult result = RealMatch();
  result.stats.budget.cancelled = true;  // claims cancellation, says completed
  AuditReport report;
  AuditMatchResult(result, &report);
  EXPECT_GT(report.CountOf(InvariantClass::kTerminationAccounting), 0u);
}

TEST(AuditMatchResultTest, DetectsTamperedEmbeddingCount) {
  MatchResult result = RealMatch();
  result.embedding_count += 1;
  AuditReport report;
  AuditMatchResult(result, &report);
  EXPECT_GT(report.CountOf(InvariantClass::kTerminationAccounting), 0u);
}

TEST(AuditMatchResultTest, DetectsTamperedWorkerCounts) {
  MatchOptions options;
  options.threads = 2;
  MatchResult result = RealMatch(options);
  ASSERT_FALSE(result.stats.worker_embeddings.empty());
  result.stats.worker_embeddings[0] += 1;
  AuditReport report;
  AuditMatchResult(result, &report);
  EXPECT_GT(report.CountOf(InvariantClass::kTerminationAccounting), 0u);
}

TEST(AuditMatchResultTest, ViolationClassHasStableName) {
  EXPECT_STREQ(InvariantClassName(InvariantClass::kTerminationAccounting),
               "termination_accounting");
}

TEST(AuditReportTest, ToStringAndMergeBehave) {
  AuditReport a;
  a.checks_run = 3;
  EXPECT_EQ(a.ToString(), "audit OK (3 checks)");

  AuditReport b;
  b.Add(InvariantClass::kIndexShape, "planted");
  b.checks_run = 2;
  a.Merge(b);
  EXPECT_FALSE(a.ok());
  EXPECT_EQ(a.total_violations, 1u);
  EXPECT_EQ(a.checks_run, 5u);
  EXPECT_NE(a.ToString().find("audit FAILED"), std::string::npos);
  EXPECT_NE(a.ToString().find("[index_shape] planted"), std::string::npos);
}

TEST(AuditReportTest, RecordingIsCappedButTotalKeepsCounting) {
  AuditReport r;
  r.max_recorded = 4;
  for (int i = 0; i < 10; ++i) {
    r.Add(InvariantClass::kIndexShape, "planted");
  }
  EXPECT_EQ(r.total_violations, 10u);
  EXPECT_EQ(r.violations.size(), 4u);
  EXPECT_EQ(r.CountOf(InvariantClass::kIndexShape), 4u);  // recorded only
  EXPECT_NE(r.ToString().find("6 further violation(s) not recorded"),
            std::string::npos);
}

}  // namespace
}  // namespace ceci
