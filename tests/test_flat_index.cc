// FlatCeciIndex unit tests: arena construction from a refined mutable
// index, the hybrid array/bitmap representation rule, entry decoding,
// exact byte accounting, cloning, pointer/flat enumeration agreement, and
// golden arena images that pin the freeze output byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <tuple>
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

// The data-vertex ids of a staging run of ranks into u's candidates.
std::vector<VertexId> Ids(const CeciIndex& index, VertexId u,
                          std::span<const VertexId> ranks) {
  std::vector<VertexId> out;
  for (VertexId r : ranks) out.push_back(index.at(u).candidates[r]);
  return out;
}

// Every NTE entry of the arena by (owner, NTE slot, key), as ForEachList
// walks them: the reference the rank-window lookup (NteAt) must agree with.
using NteEntries =
    std::map<std::tuple<VertexId, std::int32_t, VertexId>,
             FlatCeciIndex::EntryRef>;
NteEntries ListNteEntries(const FlatCeciIndex& flat) {
  NteEntries out;
  flat.ForEachList([&](VertexId owner, std::int32_t slot, VertexId key,
                       const FlatCeciIndex::EntryRef& ref) {
    if (slot >= 0) out.emplace(std::make_tuple(owner, slot, key), ref);
  });
  return out;
}

// The NTE entry of `key` in u's list k; empty when the list has none.
FlatCeciIndex::EntryRef FindNte(const NteEntries& entries, VertexId u,
                                std::size_t k, VertexId key) {
  const auto it =
      entries.find(std::make_tuple(u, static_cast<std::int32_t>(k), key));
  return it == entries.end() ? FlatCeciIndex::EntryRef{} : it->second;
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
  const NteEntries nte_entries = ListNteEntries(f.flat);
  for (VertexId u = 0; u < f.query.num_vertices(); ++u) {
    const auto& vi = f.index.at(u);
    if (u != f.tree.root()) {
      // Run i belongs to the parent's candidate at rank i, and so does TE
      // entry i.
      ASSERT_EQ(vi.te.num_runs(),
                f.flat.candidates(f.tree.parent(u)).size());
      ASSERT_EQ(f.flat.te_count(u), vi.te.num_runs());
      for (std::size_t i = 0; i < vi.te.num_runs(); ++i) {
        const auto ref = f.flat.TeEntry(u, i);
        EXPECT_EQ(ref.count, vi.te.values_at(i).size());
        EXPECT_EQ(Decode(f.flat, u, ref), Ids(f.index, u, vi.te.values_at(i)))
            << "u" << u << " entry " << i;
      }
      // A rank past the list yields an empty ref, both spans empty.
      const auto miss = f.flat.TeEntry(u, vi.te.num_runs());
      EXPECT_EQ(miss.count, 0u);
      EXPECT_TRUE(miss.ranks.empty());
      EXPECT_TRUE(miss.bits.empty());
    }
    for (std::size_t k = 0; k < vi.nte.size(); ++k) {
      const auto keys = f.flat.NteKeys(u, k);
      EXPECT_TRUE(std::equal(vi.nte[k].keys.begin(), vi.nte[k].keys.end(),
                             keys.begin(), keys.end()));
      for (std::size_t i = 0; i < vi.nte[k].num_keys(); ++i) {
        const VertexId key = vi.nte[k].keys[i];
        const auto ref = FindNte(nte_entries, u, k, key);
        const auto values = vi.nte[k].Find(key);
        ASSERT_EQ(ref.count, values.size());
        EXPECT_EQ(Decode(f.flat, u, ref), Ids(f.index, u, values));
      }
    }
  }
}

// Two entry refs name the same stored value set.
void ExpectSameEntry(const FlatCeciIndex::EntryRef& got,
                     const FlatCeciIndex::EntryRef& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.ranks.data(), want.ranks.data());
  EXPECT_EQ(got.ranks.size(), want.ranks.size());
  EXPECT_EQ(got.bits.data(), want.bits.data());
  EXPECT_EQ(got.bits.size(), want.bits.size());
}

TEST(FlatIndexTest, RankLookupsFindTheEntriesKeyLookupsFind) {
  // Every TE entry by its parent candidate's rank, against the staging
  // index's run of that rank, and every NTE entry inside its rank
  // window, against the entry listed under that key.
  for (const char* family : {"ba", "er"}) {
    const Graph data = GoldenDataGraph(family, false);
    for (PaperQuery pq : {PaperQuery::kQG2, PaperQuery::kQG5}) {
      SCOPED_TRACE(std::string(family) + " " + PaperQueryName(pq));
      Frozen f(data, MakePaperQuery(pq), 0);
      const NteEntries nte_entries = ListNteEntries(f.flat);
      std::size_t nte_lists = 0;
      for (VertexId u = 0; u < f.query.num_vertices(); ++u) {
        if (u == f.tree.root()) continue;
        const auto parent_cands = f.flat.candidates(f.tree.parent(u));
        ASSERT_EQ(f.flat.te_count(u), parent_cands.size());
        for (std::size_t r = 0; r < parent_cands.size(); ++r) {
          EXPECT_EQ(Decode(f.flat, u, f.flat.TeEntry(u, r)),
                    Ids(f.index, u, f.index.at(u).te.values_at(r)))
              << "u" << u << " rank " << r;
        }
        EXPECT_EQ(f.flat.TeEntry(u, parent_cands.size()).count, 0u);
        EXPECT_EQ(f.flat.TeEntry(u, CandidateRanks::kAbsent).count, 0u);
        const auto nte_ids = f.tree.nte_in(u);
        for (std::size_t k = 0; k < nte_ids.size(); ++k) {
          ++nte_lists;
          const VertexId u_n = f.tree.non_tree_edges()[nte_ids[k]].parent;
          const auto cands = f.flat.candidates(u_n);
          const auto count = static_cast<std::uint32_t>(cands.size());
          for (std::uint32_t r = 0; r < count; ++r) {
            ExpectSameEntry(f.flat.NteAt(u, k, cands[r], r, count),
                            FindNte(nte_entries, u, k, cands[r]));
          }
        }
      }
      EXPECT_GT(nte_lists, 0u);
    }
  }
}

TEST(FlatIndexTest, NteAtSearchesAListMissingKeys) {
  // Triangle on root u0: u1 and u2 hang off u0, and the non-tree edge
  // u1 -> u2 keys u2's NTE list by u1's candidates 1..7. The list misses
  // the first (1), a middle (4) and the last (7) of them.
  Graph query = MakeGraph({0, 0, 0}, {{0, 1}, {0, 2}, {1, 2}});
  auto tree = QueryTree::Build(query, 0);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->nte_in(2).size(), 1u);
  ASSERT_EQ(tree->non_tree_edges()[tree->nte_in(2)[0]].parent, 1u);
  // Values are ranks: TE run i belongs to u0's candidate at rank i, and
  // u2's values 0..2 stand for v20..v22.
  CeciIndex index(3);
  index.at(0).candidates = {10, 11};
  index.at(1).candidates = {1, 2, 3, 4, 5, 6, 7};
  index.at(2).candidates = {20, 21, 22};
  auto add_run = [](RunPool* list, std::vector<VertexId> values) {
    const std::size_t begin = list->pool.size();
    list->pool.insert(list->pool.end(), values.begin(), values.end());
    list->CloseRun(begin);
  };
  auto add_keyed = [](KeyedRuns* list, VertexId key,
                      std::vector<VertexId> values) {
    const std::size_t begin = list->pool.size();
    list->pool.insert(list->pool.end(), values.begin(), values.end());
    list->CloseRun(key, begin);
  };
  add_run(&index.at(1).te, {0, 1, 2, 3});
  add_run(&index.at(1).te, {3, 4, 5, 6});
  add_run(&index.at(2).te, {0, 1});
  add_run(&index.at(2).te, {1, 2});
  index.at(2).nte.resize(1);
  add_keyed(&index.at(2).nte[0], 2, {0});
  add_keyed(&index.at(2).nte[0], 3, {1});
  add_keyed(&index.at(2).nte[0], 5, {0, 2});
  add_keyed(&index.at(2).nte[0], 6, {2});
  const FlatCeciIndex flat = FlatCeciIndex::Build(index, *tree);

  const NteEntries nte_entries = ListNteEntries(flat);
  const auto cands = flat.candidates(1);
  const auto count = static_cast<std::uint32_t>(cands.size());
  std::size_t found = 0;
  for (std::uint32_t r = 0; r < count; ++r) {
    const FlatCeciIndex::EntryRef want = FindNte(nte_entries, 2, 0, cands[r]);
    ExpectSameEntry(flat.NteAt(2, 0, cands[r], r, count), want);
    found += want.count > 0 ? 1 : 0;
  }
  EXPECT_EQ(found, 4u);
  EXPECT_EQ(flat.NteAt(2, 0, 8, CandidateRanks::kAbsent, count).count, 0u);
  EXPECT_EQ(flat.NteAt(2, 0, 8, count, count).count, 0u);
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
  const auto ref = f.flat.TeEntry(1, 0);  // the hub, u0's only candidate
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
  // u1's candidates are v3 and v5, ranks 0 and 1. A stored rank at or
  // past 2 names no candidate; in a dense entry it would set a bit past
  // the bitmap, so the freeze checks every rank.
  Graph query = MakeGraph({0, 0}, {{0, 1}});
  auto tree = QueryTree::Build(query, 0);
  ASSERT_TRUE(tree.ok());
  for (VertexId stray : {VertexId{2}, VertexId{64}, VertexId{1000}}) {
    CeciIndex index(2);
    index.at(0).candidates = {1, 2};
    index.at(1).candidates = {3, 5};
    RunPool& te = index.at(1).te;
    te.pool.push_back(0);
    te.CloseRun(0);
    te.pool.push_back(stray);
    te.CloseRun(1);
    EXPECT_DEATH(FlatCeciIndex::Build(index, *tree),
                 "is past the 2 candidates of its owner")
        << "stray rank " << stray;
  }
}

TEST(FlatIndexDeathTest, TeListOffItsParentTripsTheFreezeCheck) {
  // u0 has two candidates, so u1's TE list must hold exactly two runs.
  Graph query = MakeGraph({0, 0}, {{0, 1}});
  auto tree = QueryTree::Build(query, 0);
  ASSERT_TRUE(tree.ok());
  for (std::size_t runs : {1u, 3u}) {
    CeciIndex index(2);
    index.at(0).candidates = {1, 2};
    index.at(1).candidates = {3, 5};
    RunPool& te = index.at(1).te;
    for (std::size_t i = 0; i < runs; ++i) {
      te.pool.push_back(0);
      te.CloseRun(i);
    }
    EXPECT_DEATH(FlatCeciIndex::Build(index, *tree),
                 "is not one run per candidate of its parent")
        << runs << " runs";
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
      {"er", false, 3, 21, 4022510079u, 75144},
      {"er", false, 5, 22, 3245353499u, 144256},
      {"er", true, 4, 23, 4243966292u, 12304},
      {"er", true, 6, 24, 4106282880u, 21408},
      {"ba", false, 3, 25, 1101613095u, 52968},
      {"ba", false, 5, 26, 530754087u, 99904},
      {"ba", true, 4, 27, 469396906u, 7808},
      {"ba", true, 6, 28, 1084961802u, 11672},
      {"social", false, 3, 29, 522539935u, 49176},
      {"social", false, 6, 30, 3470247988u, 112976},
      {"social", true, 4, 31, 1368039389u, 6552},
      {"social", true, 5, 32, 1098880707u, 7168},
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
