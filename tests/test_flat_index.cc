// FlatCeciIndex unit tests: arena construction from a refined mutable
// index, the hybrid array/bitmap representation rule, entry decoding,
// exact byte accounting, cloning, pointer/flat enumeration agreement, and
// golden arena images that pin the freeze output byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "baselines/vf2.h"
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
#include "test_support.h"
#include "util/bitmap.h"
#include "util/crc32.h"

namespace ceci {
namespace {

using ::ceci::testing::EmbeddingCollector;
using ::ceci::testing::GoldenDataGraph;
using ::ceci::testing::MakeGraph;
using ::ceci::testing::PaperExample;

// Refined pipeline + its frozen flat form for one (data, query) pair.
struct Frozen {
  Frozen(const Graph& data_graph, const Graph& query_graph, VertexId root)
      : data(data_graph), query(query_graph), nlc(data) {
    auto t = QueryTree::Build(query, root);
    CECI_CHECK(t.ok());
    tree = std::move(t).value();
    CeciBuilder builder(data, nlc);
    index = builder.Build(query, tree, BuildOptions{}, nullptr);
    RefineCeci(tree, data.num_vertices(), &index, nullptr);
    flat = FlatCeciIndex::Build(index, tree);
  }

  Graph data;
  Graph query;
  NlcIndex nlc;
  QueryTree tree;
  CeciIndex index;
  FlatCeciIndex flat;
};

// Decodes a flat value set back to sorted data-vertex ids through the
// owner's candidate array.
std::vector<VertexId> Decode(const FlatCeciIndex& flat, VertexId owner,
                             const FlatCeciIndex::EntryRef& ref) {
  const auto cands = flat.candidates(owner);
  std::vector<VertexId> out;
  if (ref.is_bitmap()) {
    std::vector<std::uint32_t> ranks;
    BitmapExtract(ref.bits, &ranks);
    for (std::uint32_t r : ranks) out.push_back(cands[r]);
  } else {
    for (std::uint32_t r : ref.ranks) out.push_back(cands[r]);
  }
  return out;
}

TEST(FlatIndexTest, DefaultConstructedIsEmpty) {
  FlatCeciIndex flat;
  EXPECT_TRUE(flat.empty());
  EXPECT_FALSE(flat.mapped());
  EXPECT_EQ(flat.ArenaBytes(), 0u);
  EXPECT_EQ(flat.num_query_vertices(), 0u);
}

TEST(FlatIndexTest, BuildPreservesCandidatesAndOrder) {
  Frozen f(PaperExample::Data(), PaperExample::Query(), 0);
  ASSERT_EQ(f.flat.num_query_vertices(), f.query.num_vertices());
  const auto& order = f.tree.matching_order();
  ASSERT_EQ(f.flat.matching_order().size(), order.size());
  EXPECT_TRUE(std::equal(order.begin(), order.end(),
                         f.flat.matching_order().begin()));
  for (VertexId u = 0; u < f.query.num_vertices(); ++u) {
    const auto& want = f.index.at(u).candidates;
    const auto got = f.flat.candidates(u);
    ASSERT_EQ(got.size(), want.size()) << "u" << u;
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));
    const auto& want_card = f.index.at(u).cardinalities;
    const auto got_card = f.flat.cardinalities(u);
    ASSERT_EQ(got_card.size(), want_card.size());
    EXPECT_TRUE(std::equal(want_card.begin(), want_card.end(),
                           got_card.begin()));
    EXPECT_EQ(f.flat.bitmap_words(u), BitmapWords(want.size()));
  }
}

TEST(FlatIndexTest, EntriesDecodeToTheMutableLists) {
  Frozen f(PaperExample::Data(), PaperExample::Query(), 0);
  for (VertexId u = 0; u < f.query.num_vertices(); ++u) {
    const auto& vi = f.index.at(u);
    for (std::size_t i = 0; i < vi.te.num_keys(); ++i) {
      const VertexId key = vi.te.keys[i];
      const auto ref = f.flat.Te(u, key);
      const auto values = vi.te.Find(key);
      EXPECT_EQ(ref.count, values.size());
      const auto ids = Decode(f.flat, u, ref);
      EXPECT_TRUE(std::equal(values.begin(), values.end(), ids.begin()))
          << "u" << u << " key v" << key;
    }
    // Absent keys yield an empty ref, both spans empty.
    const auto miss = f.flat.Te(u, 9999);
    EXPECT_EQ(miss.count, 0u);
    EXPECT_TRUE(miss.ranks.empty());
    EXPECT_TRUE(miss.bits.empty());
    for (std::size_t k = 0; k < vi.nte.size(); ++k) {
      for (std::size_t i = 0; i < vi.nte[k].num_keys(); ++i) {
        const VertexId key = vi.nte[k].keys[i];
        const auto ref = f.flat.Nte(u, k, key);
        const auto values = vi.nte[k].Find(key);
        ASSERT_EQ(ref.count, values.size());
        const auto ids = Decode(f.flat, u, ref);
        EXPECT_TRUE(std::equal(values.begin(), values.end(), ids.begin()));
      }
    }
  }
}

TEST(FlatIndexTest, HybridRulePicksTheSmallerRepresentation) {
  Frozen f(PaperExample::Data(), PaperExample::Query(), 0);
  std::size_t arrays = 0, bitmaps = 0, entries = 0;
  f.flat.ForEachList([&](VertexId owner, std::int32_t, VertexId,
                         const FlatCeciIndex::EntryRef& ref) {
    ++entries;
    ASSERT_GT(ref.count, 0u);
    // Exactly one representation is populated.
    EXPECT_NE(ref.ranks.empty(), ref.bits.empty());
    const std::size_t bitmap_bytes =
        std::size_t{f.flat.bitmap_words(owner)} * 8;
    const std::size_t array_bytes = std::size_t{ref.count} * 4;
    EXPECT_EQ(ref.is_bitmap(), bitmap_bytes < array_bytes)
        << "owner u" << owner << ", count " << ref.count;
    if (ref.is_bitmap()) {
      ++bitmaps;
      EXPECT_EQ(BitmapPopcount(ref.bits), ref.count);
    } else {
      ++arrays;
      EXPECT_TRUE(std::is_sorted(ref.ranks.begin(), ref.ranks.end()));
    }
  });
  EXPECT_EQ(f.flat.ArrayEntries(), arrays);
  EXPECT_EQ(f.flat.BitmapEntries(), bitmaps);
  EXPECT_EQ(arrays + bitmaps, entries);
}

TEST(FlatIndexTest, DenseValueSetsBecomeBitmaps) {
  // One A hub with 70 B leaves: the TE entry under the hub key holds all
  // 70 candidate ranks, and 2 bitmap words (16 bytes) beat 70 ranks
  // (280 bytes).
  std::vector<Label> labels(71, 1);
  labels[0] = 0;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 1; v <= 70; ++v) edges.push_back({0, v});
  Graph data = MakeGraph(labels, edges);
  Graph query = MakeGraph({0, 1}, {{0, 1}});
  Frozen f(data, query, 0);
  const auto ref = f.flat.Te(1, 0);
  ASSERT_EQ(ref.count, 70u);
  EXPECT_TRUE(ref.is_bitmap());
  EXPECT_EQ(f.flat.BitmapEntries(), 1u);
  EXPECT_EQ(Decode(f.flat, 1, ref).size(), 70u);
}

TEST(FlatIndexTest, DiagnosticsMatchTheMutableIndex) {
  Frozen f(PaperExample::Data(), PaperExample::Query(), 0);
  std::size_t edges = 0;
  f.flat.ForEachList([&](VertexId, std::int32_t, VertexId,
                         const FlatCeciIndex::EntryRef& ref) {
    edges += ref.count;
  });
  EXPECT_EQ(f.flat.TotalCandidateEdges(), edges);
  EXPECT_EQ(f.flat.TotalCandidateEdges(), f.index.TotalCandidateEdges());
  VertexId max_id = 0;
  for (VertexId u = 0; u < f.query.num_vertices(); ++u) {
    for (VertexId v : f.flat.candidates(u)) max_id = std::max(max_id, v);
  }
  EXPECT_EQ(f.flat.MaxCandidateId(), max_id);
}

TEST(FlatIndexTest, MemoryFootprintSumsToArenaBytes) {
  Frozen f(PaperExample::Data(), PaperExample::Query(), 0);
  std::size_t total = 0;
  for (VertexId u = 0; u < f.query.num_vertices(); ++u) {
    const auto fp = f.flat.MemoryFootprint(u);
    total += fp.te_bytes + fp.nte_bytes + fp.candidate_bytes;
  }
  // Exact up to inter-slab alignment padding (< 8 bytes per boundary).
  EXPECT_LE(total, f.flat.ArenaBytes());
  EXPECT_LT(f.flat.ArenaBytes() - total, FlatCeciIndex::kNumSlabs * 8);
}

TEST(FlatIndexTest, CloneIsAnIndependentDeepCopy) {
  Frozen f(PaperExample::Data(), PaperExample::Query(), 0);
  FlatCeciIndex clone = f.flat.Clone();
  EXPECT_EQ(clone.ArenaBytes(), f.flat.ArenaBytes());
  EXPECT_FALSE(clone.mapped());
  ASSERT_EQ(clone.num_query_vertices(), f.flat.num_query_vertices());
  // Destroy the source; the clone must still enumerate correctly.
  { FlatCeciIndex discard = std::move(f.flat); }
  SymmetryConstraints sym = SymmetryConstraints::None(f.query.num_vertices());
  EnumOptions eo;
  eo.symmetry = &sym;
  Enumerator e(f.data, f.tree, clone, eo);
  EmbeddingCollector collector;
  EmbeddingVisitor visitor = [&](std::span<const VertexId> m) {
    return collector(m);
  };
  e.EnumerateAll(&visitor);
  EXPECT_EQ(collector.AsSet(), PaperExample::ExpectedEmbeddings());
}

TEST(FlatIndexTest, EnumerationMatchesVf2Oracle) {
  // Unlabeled on purpose: every paper query is unlabeled, and QG5 (the
  // house) needs the full graph as its candidate pool to have matches on
  // a graph this small.
  Graph data = GenerateSocialGraph(400, 6, 17);
  for (PaperQuery pq : {PaperQuery::kQG3, PaperQuery::kQG5}) {
    Graph query = MakePaperQuery(pq);
    Frozen f(data, query, 0);
    SymmetryConstraints sym = SymmetryConstraints::Compute(query);
    EnumOptions eo;
    eo.symmetry = &sym;
    EmbeddingCollector from_oracle, from_flat;
    EmbeddingVisitor oracle_visitor = std::ref(from_oracle);
    Vf2Count(data, query, Vf2Options{}, &oracle_visitor);
    Enumerator e(data, f.tree, f.flat, eo);
    EmbeddingVisitor visitor = std::ref(from_flat);
    e.EnumerateAll(&visitor);
    EXPECT_EQ(from_flat.AsSet(), from_oracle.AsSet()) << PaperQueryName(pq);
    EXPECT_EQ(from_flat.raw().size(), from_flat.AsSet().size());
    EXPECT_FALSE(from_oracle.raw().empty()) << PaperQueryName(pq);
  }
}

TEST(FlatIndexTest, InfeasibleQueryFreezesToEmptySlabs) {
  // Label 7 never appears in the data graph: every candidate set is empty
  // after refinement, and the arena degenerates to metadata-only slabs.
  Graph data = PaperExample::Data();
  Graph query = MakeGraph({0, 7}, {{0, 1}});
  Frozen f(data, query, 0);
  for (VertexId u = 0; u < 2; ++u) {
    EXPECT_TRUE(f.flat.candidates(u).empty());
  }
  EXPECT_EQ(f.flat.TotalCandidateEdges(), 0u);
  SymmetryConstraints sym = SymmetryConstraints::None(2);
  EnumOptions eo;
  eo.symmetry = &sym;
  Enumerator e(data, f.tree, f.flat, eo);
  EXPECT_EQ(e.EnumerateAll(nullptr), 0u);
}

TEST(FlatIndexDeathTest, NonCandidateValueTripsTheFreezeCheck) {
  // u1's candidates are v3 and v5. A TE value that is neither has no
  // rank, whether it sorts below, between, or past them.
  Graph query = MakeGraph({0, 0}, {{0, 1}});
  auto tree = QueryTree::Build(query, 0);
  ASSERT_TRUE(tree.ok());
  for (VertexId stray : {VertexId{0}, VertexId{4}, VertexId{1000}}) {
    CeciIndex index(2);
    index.at(0).candidates = {1, 2};
    index.at(1).candidates = {3, 5};
    CandidateRuns& te = index.at(1).te;
    te.pool.push_back(3);
    te.CloseRun(1, 0);
    te.pool.push_back(stray);
    te.CloseRun(2, 1);
    EXPECT_DEATH(FlatCeciIndex::Build(index, *tree),
                 "is not an alive candidate")
        << "stray value v" << stray;
  }
}

// Golden arenas: CRC-32 and size of the frozen arena for generated graphs
// and queries with fixed seeds. The arena is the CEIX on-disk image, so a
// change to how Build() produces it must leave every byte in place.
struct GoldenArena {
  const char* family;   // "er", "ba" or "social"
  bool labeled;         // 4 random labels on the data graph
  std::size_t query_size;
  std::uint64_t query_seed;
  std::uint32_t crc;
  std::size_t bytes;
};

// The recorded arenas were built under the BFS matching order, which fixes
// each non-tree edge's orientation, so the pipeline pins it.
FlatCeciIndex FreezeThroughPipeline(const Graph& data, const Graph& query) {
  NlcIndex nlc(data);
  auto pre =
      Preprocess(data, nlc, query, PreprocessOptions{OrderStrategy::kBfs});
  CECI_CHECK(pre.ok()) << pre.status().ToString();
  CeciIndex index =
      CeciBuilder(data, nlc).Build(query, pre->tree, BuildOptions{}, nullptr);
  RefineCeci(pre->tree, data.num_vertices(), &index, nullptr);
  return FlatCeciIndex::Build(index, pre->tree);
}

TEST(FlatIndexGoldenTest, ArenasAreByteIdenticalToTheRecordedImages) {
  const GoldenArena kCases[] = {
      {"er", false, 3, 21, 1786602538u, 79144},
      {"er", false, 5, 22, 3930771242u, 152256},
      {"er", true, 4, 23, 1594845723u, 13624},
      {"er", true, 6, 24, 953197325u, 23776},
      {"ba", false, 3, 25, 575257347u, 56968},
      {"ba", false, 5, 26, 2947561393u, 107904},
      {"ba", true, 4, 27, 286613624u, 8648},
      {"ba", true, 6, 28, 443530311u, 13056},
      {"social", false, 3, 29, 4264961414u, 52816},
      {"social", false, 6, 30, 3186728132u, 120648},
      {"social", true, 4, 31, 4249261606u, 7216},
      {"social", true, 5, 32, 2809523522u, 7928},
  };
  std::size_t array_entries = 0, bitmap_entries = 0;
  for (const GoldenArena& c : kCases) {
    const Graph data = GoldenDataGraph(c.family, c.labeled);
    QueryGenOptions qopt;
    qopt.num_vertices = c.query_size;
    qopt.seed = c.query_seed;
    qopt.inherit_labels = c.labeled;
    SCOPED_TRACE(::testing::Message()
                 << c.family << (c.labeled ? " labeled" : "") << " size "
                 << c.query_size << " seed " << c.query_seed);
    const std::optional<Graph> query = GenerateQuery(data, qopt);
    ASSERT_TRUE(query.has_value());
    const FlatCeciIndex flat = FreezeThroughPipeline(data, *query);
    const auto arena = flat.arena();
    EXPECT_EQ(flat.ArenaBytes(), c.bytes);
    EXPECT_EQ(Crc32(arena.data(), arena.size()), c.crc);
    EXPECT_GT(flat.TotalCandidateEdges(), 0u);
    array_entries += flat.ArrayEntries();
    bitmap_entries += flat.BitmapEntries();
  }
  // The cases cover both sides of the hybrid rule.
  EXPECT_GT(array_entries, 0u);
  EXPECT_GT(bitmap_entries, 0u);
}

TEST(FlatIndexGoldenTest, InfeasibleQueryArenaIsByteIdentical) {
  // Label 9 never occurs in the 4-label data graph: only metadata remains.
  const Graph data = GoldenDataGraph("social", true);
  const Graph query = MakeGraph({0, 9, 1}, {{0, 1}, {1, 2}, {0, 2}});
  const FlatCeciIndex flat = FreezeThroughPipeline(data, query);
  const auto arena = flat.arena();
  EXPECT_EQ(flat.TotalCandidateEdges(), 0u);
  EXPECT_EQ(flat.ArenaBytes(), 136u);
  EXPECT_EQ(Crc32(arena.data(), arena.size()), 709559313u);
}

}  // namespace
}  // namespace ceci
