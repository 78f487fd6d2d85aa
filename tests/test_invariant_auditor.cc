// Negative tests for the invariant auditor: plant one specific corruption
// in a Graph, a frozen CECI arena, an injectivity bitmap, a work-unit
// partition or a root order and assert the auditor reports exactly the
// expected violation class.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "ceci/ceci_builder.h"
#include "ceci/extreme_cluster.h"
#include "ceci/index_io.h"
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

// Plants corruption inside a flat arena (owned arenas only: Build/Clone,
// or a Prepare). The const_casts are legitimate here — the bytes live in
// the peer-visible owned_ buffer, and FlatCeciIndex is immutable only by
// API contract.
class FlatIndexTestPeer {
 public:
  static FlatVertexMeta* VertexMetas(FlatCeciIndex* f) {
    return const_cast<FlatVertexMeta*>(f->vertices_.data());
  }
  static VertexId* Order(FlatCeciIndex* f) {
    return const_cast<VertexId*>(f->order_.data());
  }
  static VertexId* Candidates(FlatCeciIndex* f) {
    return const_cast<VertexId*>(f->candidates_.data());
  }
  static Cardinality* Cardinalities(FlatCeciIndex* f) {
    return const_cast<Cardinality*>(f->cardinalities_.data());
  }
  static FlatListMeta* ListMetas(FlatCeciIndex* f) {
    return const_cast<FlatListMeta*>(f->lists_.data());
  }
  static FlatEntry* Entries(FlatCeciIndex* f) {
    return const_cast<FlatEntry*>(f->entries_.data());
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

// Prepares the paper's Fig. 2 example and keeps its frozen index — the
// PreparedQuery::flat that `ceci_query --audit` audits.
struct Fixture {
  Fixture() : data(PaperExample::Data()), query(PaperExample::Query()) {
    auto p = CeciMatcher(data).Prepare(query, MatchOptions{});
    CECI_CHECK(p.ok());
    tree = std::move(p->tree);
    flat = std::move(p->flat);
  }

  // Builds, refines and freezes `q` over `d` on the BFS tree rooted at
  // `root`.
  Fixture(Graph d, Graph q, VertexId root)
      : data(std::move(d)), query(std::move(q)) {
    NlcIndex nlc(data);
    auto t = QueryTree::Build(query, root);
    CECI_CHECK(t.ok());
    tree = std::move(t).value();
    CeciIndex index =
        CeciBuilder(data, nlc).Build(query, tree, BuildOptions{}, nullptr);
    RefineCeci(tree, data.num_vertices(), &index, nullptr);
    flat = FlatCeciIndex::Build(index, tree);
  }

  AuditReport Audit() const { return AuditCeciIndex(data, query, tree, flat); }
  AuditReport AuditFlat() const {
    AuditReport report;
    AuditFlatIndex(tree, flat, &report);
    return report;
  }

  // One array entry of the arena: where its ranks start in the array pool.
  struct ArrayEntry {
    VertexId owner;
    VertexId key;
    std::span<const std::uint32_t> ranks;
    std::size_t at;
  };
  // Every array entry, in list order. A TE entry's key is the tree
  // parent's candidate of its rank.
  std::vector<ArrayEntry> ArrayEntries() const {
    std::vector<ArrayEntry> out;
    flat.ForEachList([&](VertexId owner, std::int32_t slot,
                         VertexId key_or_index,
                         const FlatCeciIndex::EntryRef& ref) {
      if (ref.is_bitmap()) return;
      const VertexId key =
          slot < 0 ? flat.candidates(tree.parent(owner))[key_or_index]
                   : key_or_index;
      out.push_back({owner, key, ref.ranks,
                     static_cast<std::size_t>(ref.ranks.data() -
                                              flat.array_pool().data())});
    });
    return out;
  }

  Graph data;
  Graph query;
  QueryTree tree;
  FlatCeciIndex flat;
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
  bool planted = false;
  for (VertexId u = 0; u < f.query.num_vertices() && !planted; ++u) {
    const FlatVertexMeta& m = f.flat.vertex_metas()[u];
    if (m.cand_count >= 2) {
      VertexId* cands = FlatIndexTestPeer::Candidates(&f.flat) + m.cand_begin;
      std::swap(cands[0], cands[1]);
      planted = true;
    }
  }
  ASSERT_TRUE(planted);
  AuditReport report = f.Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kCandidatesUnsorted), 1u);
}

TEST(AuditIndexTest, DetectsUnsortedListValues) {
  Fixture f;
  // Swap two ranks of a multi-value entry: the decoded value set is no
  // longer ascending.
  bool planted = false;
  for (const auto& e : f.ArrayEntries()) {
    if (e.ranks.size() >= 2) {
      std::uint32_t* pool = FlatIndexTestPeer::ArrayPool(&f.flat);
      std::swap(pool[e.at], pool[e.at + 1]);
      planted = true;
      break;
    }
  }
  ASSERT_TRUE(planted) << "paper example lost its multi-value entries";

  AuditReport report = f.Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kListUnsorted), 1u);
}

TEST(AuditIndexTest, DetectsDanglingCandidateEdge) {
  Fixture f;
  // Point one stored value at another candidate of the same vertex that is
  // not adjacent to the key, keeping the ranks strictly ascending. The
  // arena stays valid and every other invariant holds, so the planted
  // corruption trips exactly one check.
  bool planted = false;
  for (const auto& e : f.ArrayEntries()) {
    const auto cands = f.flat.candidates(e.owner);
    for (std::size_t j = 0; j < e.ranks.size() && !planted; ++j) {
      const std::uint32_t lo = j == 0 ? 0 : e.ranks[j - 1] + 1;
      const std::uint32_t hi = j + 1 == e.ranks.size()
                                   ? static_cast<std::uint32_t>(cands.size())
                                   : e.ranks[j + 1];
      for (std::uint32_t r = lo; r < hi; ++r) {
        if (r != e.ranks[j] && !f.data.HasEdge(e.key, cands[r])) {
          FlatIndexTestPeer::ArrayPool(&f.flat)[e.at + j] = r;
          planted = true;
          break;
        }
      }
    }
    if (planted) break;
  }
  ASSERT_TRUE(planted) << "no non-adjacent candidate available to plant";

  EXPECT_TRUE(f.AuditFlat().ok());
  AuditReport report = f.Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.CountOf(InvariantClass::kDanglingCandidateEdge), 1u);
  EXPECT_EQ(report.total_violations, 1u) << report.ToString();
}

TEST(AuditIndexTest, DetectsStaleValueAfterRefinement) {
  Fixture f;
  // A stored rank at the owner's candidate count names no candidate: the
  // value is not (or no longer) a candidate of its query vertex. Raising
  // an entry's last rank keeps the ranks ascending.
  const auto entries = f.ArrayEntries();
  ASSERT_FALSE(entries.empty());
  const auto& e = entries.front();
  FlatIndexTestPeer::ArrayPool(&f.flat)[e.at + e.ranks.size() - 1] =
      static_cast<std::uint32_t>(f.flat.candidates(e.owner).size());

  AuditReport report = f.Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kValueNotCandidate), 1u);
}

TEST(AuditIndexTest, DetectsBrokenEmptyKeyCascade) {
  Fixture f;
  // Move the last TE entry of some non-root vertex to the head of the TE
  // list after it, keeping the ranges back to back: its parent's largest
  // candidate is left without a TE entry, and the empty-key cascade
  // invariant breaks.
  FlatListMeta* lists = FlatIndexTestPeer::ListMetas(&f.flat);
  const std::size_t num_lists = f.flat.list_metas().size();
  bool planted = false;
  for (VertexId u = 0; u < f.query.num_vertices() && !planted; ++u) {
    const std::uint32_t l = f.flat.vertex_metas()[u].te_list;
    if (l == kNoFlatList || l + 1 >= num_lists ||
        lists[l].entry_count == 0 ||
        f.flat.vertex_metas()[lists[l + 1].owner].te_list != l + 1) {
      continue;
    }
    --lists[l].entry_count;
    ++lists[l + 1].entry_count;
    --lists[l + 1].entry_begin;
    planted = true;
  }
  ASSERT_TRUE(planted) << "paper example lost its adjacent TE lists";

  AuditReport report = f.Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kEmptyKeyCascade), 1u);
}

TEST(AuditIndexTest, DetectsEmptyValueSet) {
  Fixture f;
  // A key whose value set emptied must have been cascaded away.
  ASSERT_FALSE(f.flat.all_entries().empty());
  FlatIndexTestPeer::Entries(&f.flat)[0].count_and_tag = 0;

  AuditReport report = f.Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kEmptyKeyCascade), 1u);
}

TEST(AuditIndexTest, DetectsZeroCardinality) {
  Fixture f;
  ASSERT_FALSE(f.flat.cardinalities(f.tree.root()).empty());
  FlatIndexTestPeer::Cardinalities(
      &f.flat)[f.flat.vertex_metas()[f.tree.root()].cand_begin] = 0;

  AuditReport report = f.Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kCardinalityShape), 1u);
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

  // One unit per live root: one worker at β = 1 splits no cluster.
  std::vector<WorkUnit> Build() { return Build(/*workers=*/1, /*beta=*/1.0); }
  std::vector<WorkUnit> Build(std::size_t workers, double beta) {
    return DecomposeRootOrder(
        fixture_.data, fixture_.tree, fixture_.flat, enum_options_,
        RootOrder(fixture_.flat, fixture_.tree.root()), workers, beta,
        nullptr);
  }

  AuditReport Audit(const std::vector<WorkUnit>& units) {
    AuditReport report;
    AuditWorkUnits(fixture_.data, fixture_.tree, fixture_.flat, enum_options_, units,
                   &report);
    return report;
  }

  Fixture fixture_;
  SymmetryConstraints symmetry_;
  EnumOptions enum_options_;
};

TEST_F(AuditWorkUnitsTest, AcceptsHealthyPartitions) {
  AuditReport coarse = Audit(Build());
  EXPECT_TRUE(coarse.ok()) << coarse.ToString();
  // A tiny beta forces extreme-cluster decomposition into longer prefixes.
  AuditReport fine = Audit(Build(/*workers=*/2, /*beta=*/1e-6));
  EXPECT_TRUE(fine.ok()) << fine.ToString();
}

TEST_F(AuditWorkUnitsTest, DetectsClusterGap) {
  std::vector<WorkUnit> units = Build();
  ASSERT_FALSE(units.empty());
  // Dropping every unit uncovers each pivot that holds an embedding; the
  // paper example has at least one.
  AuditReport report = Audit({});
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kClusterGap), 1u);
}

TEST_F(AuditWorkUnitsTest, DetectsDuplicateUnit) {
  std::vector<WorkUnit> units = Build();
  ASSERT_FALSE(units.empty());
  units.push_back(units.front());

  AuditReport report = Audit(units);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kClusterOverlap), 1u);
}

// ST and CGD enumerate the root order itself, one root per unit.
TEST_F(AuditWorkUnitsTest, AcceptsTheRootOrder) {
  AuditReport report;
  AuditRootOrder(fixture_.data, fixture_.tree, fixture_.flat, enum_options_,
                 RootOrder(fixture_.flat, fixture_.tree.root()), &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks_run, 0u);
}

TEST_F(AuditWorkUnitsTest, RootOrderDroppingALiveRootIsAGap) {
  std::vector<std::uint32_t> order =
      RootOrder(fixture_.flat, fixture_.tree.root());
  // Drop a root whose cluster holds an embedding.
  Enumerator probe(fixture_.data, fixture_.tree, fixture_.flat,
                   enum_options_);
  const auto dropped =
      std::find_if(order.begin(), order.end(), [&](std::uint32_t r) {
        return probe.EnumerateFromRanks(std::span<const std::uint32_t>(&r, 1),
                                        nullptr) > 0;
      });
  ASSERT_NE(dropped, order.end());
  order.erase(dropped);

  AuditReport report;
  AuditRootOrder(fixture_.data, fixture_.tree, fixture_.flat, enum_options_,
                 order, &report);
  EXPECT_EQ(report.total_violations, 1u) << report.ToString();
  EXPECT_EQ(report.CountOf(InvariantClass::kClusterGap), 1u);
}

TEST_F(AuditWorkUnitsTest, RootOrderRepeatingARootIsAnOverlap) {
  std::vector<std::uint32_t> order =
      RootOrder(fixture_.flat, fixture_.tree.root());
  ASSERT_FALSE(order.empty());
  order.push_back(order.back());

  AuditReport report;
  AuditRootOrder(fixture_.data, fixture_.tree, fixture_.flat, enum_options_,
                 order, &report);
  EXPECT_EQ(report.total_violations, 1u) << report.ToString();
  EXPECT_EQ(report.CountOf(InvariantClass::kClusterOverlap), 1u);
}

TEST_F(AuditWorkUnitsTest, RootOrderRankPastTheCandidatesIsInvalid) {
  std::vector<std::uint32_t> order =
      RootOrder(fixture_.flat, fixture_.tree.root());
  order.push_back(static_cast<std::uint32_t>(
      fixture_.flat.candidates(fixture_.tree.root()).size()));

  AuditReport report;
  AuditRootOrder(fixture_.data, fixture_.tree, fixture_.flat, enum_options_,
                 order, &report);
  EXPECT_EQ(report.total_violations, 1u) << report.ToString();
  EXPECT_EQ(report.CountOf(InvariantClass::kWorkUnitInvalid), 1u);
}

// The catalogue in docs/static_analysis.md names exactly the classes the
// auditor emits: a table row per InvariantClassName value, and no row for
// a name the code does not have.
TEST(InvariantCatalogTest, DocsNameExactlyTheEmittedClasses) {
  const std::string path = std::string(CECI_DOCS_DIR) + "/static_analysis.md";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot read " << path;
  std::multiset<std::string> documented;
  bool in_catalog = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("### ", 0) == 0) {
      in_catalog = line == "### Invariant catalog";
    }
    // Catalogue rows read "| `class_name` | invariant |".
    if (!in_catalog || line.rfind("| `", 0) != 0) continue;
    const std::size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    documented.insert(line.substr(3, end - 3));
  }
  std::multiset<std::string> emitted;
  // kDistAccounting is the enum's last value.
  for (int c = 0; c <= static_cast<int>(InvariantClass::kDistAccounting);
       ++c) {
    emitted.insert(InvariantClassName(static_cast<InvariantClass>(c)));
  }
  EXPECT_EQ(documented, emitted);
}

// ---------------------------------------------------------------------
// Flat-layout corruption planting: damage exactly one structure of the
// paper example's arena through FlatIndexTestPeer, and assert
// AuditFlatIndex pins the right class.

TEST(AuditFlatIndexTest, AcceptsHealthyArena) {
  Fixture f;
  AuditReport report = f.AuditFlat();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks_run, 20u);
}

TEST(AuditFlatIndexTest, DetectsCandidateRangeEscapingItsSlab) {
  Fixture f;
  FlatIndexTestPeer::VertexMetas(&f.flat)[1].cand_count += 1000;
  AuditReport report = f.AuditFlat();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kFlatOffsetBounds), 1u);
}

TEST(AuditFlatIndexTest, DetectsMisalignedSlab) {
  Fixture f;
  FlatIndexTestPeer::Slab(&f.flat, FlatCeciIndex::kCandidates).offset += 4;
  AuditReport report = f.AuditFlat();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kFlatSlabOrder), 1u);
}

TEST(AuditFlatIndexTest, DetectsSlabEscapingTheArena) {
  Fixture f;
  FlatIndexTestPeer::Slab(&f.flat, FlatCeciIndex::kBitmapPool).bytes += 1024;
  AuditReport report = f.AuditFlat();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kFlatSlabOrder), 1u);
}

TEST(AuditFlatIndexTest, DetectsTamperedMatchingOrder) {
  Fixture f;
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
  Fixture f;
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
  // The pointer index this test once compared the arena against is gone;
  // the drift it caught — a value set that lost an element after the
  // freeze — breaks the cardinality recurrence (§3.3) instead, which the
  // index audit re-derives from the arena alone.
  Fixture f;
  bool planted = false;
  for (VertexId u = 0; u < f.query.num_vertices() && !planted; ++u) {
    if (u == f.tree.root()) continue;
    const FlatListMeta& lm =
        f.flat.list_metas()[f.flat.vertex_metas()[u].te_list];
    for (std::uint32_t i = 0; i < lm.entry_count && !planted; ++i) {
      FlatEntry& e = FlatIndexTestPeer::Entries(&f.flat)[lm.entry_begin + i];
      if (!e.is_bitmap() && e.count() >= 2) {
        --e.count_and_tag;  // drops the entry's last rank
        planted = true;
      }
    }
  }
  ASSERT_TRUE(planted) << "paper example lost its multi-value TE entries";
  EXPECT_TRUE(f.AuditFlat().ok());
  AuditReport report = f.Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(InvariantClass::kCardinalityShape), 1u);
}

// ---------------------------------------------------------------------
// One layout check, two callers: every fault below, planted in an arena,
// is reported by AuditFlatIndex under its class and refused by the CEIX
// loader. WriteFlatIndex seals the planted arena (every slab, slab-table
// and header CRC matches it), so only the loader's layout check can
// object.

// The paper example's value sets are all sparse; a hub with 70 leaves
// under a one-edge query rooted at the hub stores its TE entry as a
// bitmap (2 words beat 70 ranks).
Fixture DenseFixture() {
  std::vector<Label> labels(71, 1);
  labels[0] = 0;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 1; v <= 70; ++v) edges.push_back({0, v});
  return Fixture(ceci::testing::MakeGraph(labels, edges),
                 ceci::testing::MakeGraph({0, 1}, {{0, 1}}), 0);
}

struct LayoutFaultCase {
  const char* what;
  bool dense;  // plant into DenseFixture() instead of the paper example
  InvariantClass cls;
  std::function<bool(Fixture&)> plant;  // false: no site to plant into
};

const LayoutFaultCase kLayoutFaults[] = {
    {"empty value set", false, InvariantClass::kFlatRepresentation,
     [](Fixture& f) {
       FlatIndexTestPeer::Entries(&f.flat)[0].count_and_tag = 0;
       return true;
     }},
    // Shift a candidate range one slot left, onto the previous vertex's
    // last candidate: still in bounds, sorted and as long, but the ranges
    // overlap.
    {"overlapping candidate range", false, InvariantClass::kFlatRepresentation,
     [](Fixture& f) {
       const VertexId* cands = FlatIndexTestPeer::Candidates(&f.flat);
       for (FlatVertexMeta& m : std::span<FlatVertexMeta>(
                FlatIndexTestPeer::VertexMetas(&f.flat),
                f.flat.num_query_vertices())) {
         if (m.cand_begin > 0 && m.cand_count > 0 &&
             cands[m.cand_begin - 1] < cands[m.cand_begin]) {
           --m.cand_begin;
           return true;
         }
       }
       return false;
     }},
    {"list owned by another vertex", false,
     InvariantClass::kFlatRepresentation,
     [](Fixture& f) {
       FlatListMeta& lm = FlatIndexTestPeer::ListMetas(&f.flat)[0];
       lm.owner = (lm.owner + 1) % f.flat.num_query_vertices();
       return true;
     }},
    {"bitmap popcount drift", true, InvariantClass::kFlatRepresentation,
     [](Fixture& f) {
       if (f.flat.BitmapEntries() == 0) return false;
       FlatIndexTestPeer::BitmapPool(&f.flat)[0] ^= 1u;
       return true;
     }},
    {"bitmap width", false, InvariantClass::kFlatRepresentation,
     [](Fixture& f) {
       ++FlatIndexTestPeer::VertexMetas(&f.flat)[0].bitmap_words;
       return true;
     }},
    {"unsorted ranks", false, InvariantClass::kFlatRepresentation,
     [](Fixture& f) {
       for (const auto& e : f.ArrayEntries()) {
         if (e.ranks.size() < 2) continue;
         std::uint32_t* pool = FlatIndexTestPeer::ArrayPool(&f.flat);
         std::swap(pool[e.at], pool[e.at + 1]);
         return true;
       }
       return false;
     }},
    {"rank past the candidate count", false,
     InvariantClass::kFlatRepresentation,
     [](Fixture& f) {
       const auto entries = f.ArrayEntries();
       if (entries.empty()) return false;
       const auto& e = entries.front();
       FlatIndexTestPeer::ArrayPool(&f.flat)[e.at + e.ranks.size() - 1] =
           static_cast<std::uint32_t>(f.flat.candidates(e.owner).size());
       return true;
     }},
    {"tampered matching order", false, InvariantClass::kFlatRepresentation,
     [](Fixture& f) {
       VertexId* order = FlatIndexTestPeer::Order(&f.flat);
       std::swap(order[0], order[1]);
       return true;
     }},
    {"candidate range escaping its slab", false,
     InvariantClass::kFlatOffsetBounds,
     [](Fixture& f) {
       FlatIndexTestPeer::VertexMetas(&f.flat)[1].cand_count += 1000;
       return true;
     }},
    {"misaligned slab", false, InvariantClass::kFlatSlabOrder,
     [](Fixture& f) {
       FlatIndexTestPeer::Slab(&f.flat, FlatCeciIndex::kCandidates).offset +=
           4;
       return true;
     }},
};

TEST(AuditFlatIndexTest, LoaderAndAuditorRefuseEveryLayoutFault) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("ceci_layout_fault_" + std::to_string(::getpid()) + ".idx");
  auto load = [&](const Fixture& f, bool use_mmap) {
    CECI_CHECK(WriteFlatIndex(f.flat, f.tree,
                              SymmetryConstraints::None(f.query.num_vertices()),
                              "", path.string())
                   .ok());
    return OpenFlatIndex(path.string(), IndexLoadOptions{.use_mmap = use_mmap});
  };
  for (const bool dense : {false, true}) {
    Fixture pristine = dense ? DenseFixture() : Fixture();
    ASSERT_TRUE(pristine.AuditFlat().ok()) << pristine.AuditFlat().ToString();
    ASSERT_TRUE(load(pristine, false).ok());
  }
  for (const LayoutFaultCase& c : kLayoutFaults) {
    SCOPED_TRACE(c.what);
    Fixture f = c.dense ? DenseFixture() : Fixture();
    ASSERT_TRUE(c.plant(f)) << "no site to plant into";
    const AuditReport report = f.AuditFlat();
    EXPECT_GE(report.CountOf(c.cls), 1u) << report.ToString();
    for (const bool use_mmap : {false, true}) {
      EXPECT_EQ(load(f, use_mmap).status().code(), Status::Code::kCorruption)
          << "mmap " << use_mmap;
    }
  }
  std::filesystem::remove(path);
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
