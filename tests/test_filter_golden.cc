// Golden equivalence of filtering once per query. Preprocess writes every
// (query vertex, data vertex) LF/DF/NLC verdict into one FilterTable and
// CeciBuilder::Build reads it instead of re-running the filters per scanned
// neighbour. The values below were recorded with the builder that re-ran
// the filters; every execution path must reproduce them exactly: candidate
// counts, built candidate-set sizes, every BuildStats counter, the
// embedding count and the frozen arena image. The paths include the
// shared-storage one (§5), which builds from a CSR file read on demand.
// The arena CRCs and sizes are those of the v4 layout, whose TE lists
// store no keys; every other value predates it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "ceci/ceci_builder.h"
#include "ceci/enumerator.h"
#include "ceci/flat_index.h"
#include "ceci/matcher.h"
#include "ceci/preprocess.h"
#include "ceci/refinement.h"
#include "ceci/scheduler.h"
#include "ceci/symmetry.h"
#include "gen/query_gen.h"
#include "graph/graph_builder.h"
#include "graphio/binary_csr.h"
#include "test_support.h"
#include "util/crc32.h"
#include "util/thread_pool.h"

namespace ceci {
namespace {

using ::ceci::testing::GoldenDataGraph;
using ::ceci::testing::MakeGraph;

// What one pipeline run produced for a (data, query) pair.
struct Observation {
  std::vector<std::size_t> candidate_counts;  // Preprocess
  std::vector<std::size_t> built_sizes;       // |C(u)| after Build
  std::uint64_t rejected_label = 0;
  std::uint64_t rejected_degree = 0;
  std::uint64_t rejected_nlc = 0;
  std::uint64_t cascade_removals = 0;
  std::uint64_t nte_cascade_removals = 0;
  std::uint64_t frontier_expansions = 0;
  std::uint64_t neighbors_scanned = 0;
  std::uint64_t embeddings = 0;
  std::uint32_t arena_crc = 0;
  std::size_t arena_bytes = 0;

  bool operator==(const Observation&) const = default;
};

std::string Join(const std::vector<std::size_t>& values) {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ", ") << values[i];
  }
  out << '}';
  return out.str();
}

// Prints an observation as the initializer of a GoldenCase::expected, so a
// mismatch shows the row to compare against.
std::string Format(const Observation& o) {
  std::ostringstream out;
  out << "{" << Join(o.candidate_counts) << ", " << Join(o.built_sizes)
      << ", " << o.rejected_label << ", " << o.rejected_degree << ", "
      << o.rejected_nlc << ", " << o.cascade_removals << ", "
      << o.nte_cascade_removals << ", " << o.frontier_expansions << ", "
      << o.neighbors_scanned << ", " << o.embeddings << ", " << o.arena_crc
      << "u, " << o.arena_bytes << "}";
  return out.str();
}

void PrintTo(const Observation& o, std::ostream* os) { *os << Format(o); }

void RecordBuild(const BuildStats& s, Observation* o) {
  o->rejected_label = s.rejected_label;
  o->rejected_degree = s.rejected_degree;
  o->rejected_nlc = s.rejected_nlc;
  o->cascade_removals = s.cascade_removals;
  o->nte_cascade_removals = s.nte_cascade_removals;
  o->frontier_expansions = s.frontier_expansions;
  o->neighbors_scanned = s.neighbors_scanned;
}

void RecordArena(const FlatCeciIndex& flat, Observation* o) {
  const auto arena = flat.arena();
  o->arena_crc = Crc32(arena.data(), arena.size());
  o->arena_bytes = flat.ArenaBytes();
}

// The recorded arenas were built under the BFS matching order, which
// fixes each non-tree edge's orientation; every path here pins it.
constexpr OrderStrategy kGoldenOrder = OrderStrategy::kBfs;

std::vector<std::size_t> CandidateCounts(const Graph& data,
                                         const NlcIndex& nlc,
                                         const Graph& query) {
  auto pre = Preprocess(data, nlc, query, PreprocessOptions{kGoldenOrder});
  CECI_CHECK(pre.ok()) << pre.status().ToString();
  return pre->candidate_counts;
}

// Production path: CeciMatcher::Prepare hands Preprocess's table to Build;
// the built sizes and the frozen arena are read between Prepare and
// Execute.
Observation ObserveMatch(const Graph& data, const Graph& query) {
  Observation o;
  o.candidate_counts = CandidateCounts(data, NlcIndex(data), query);
  CeciMatcher matcher(data);
  MatchOptions options;
  options.order = kGoldenOrder;
  auto prepared = matcher.Prepare(query, options);
  CECI_CHECK(prepared.ok()) << prepared.status().ToString();
  o.built_sizes = prepared->counts.built;
  RecordArena(prepared->flat, &o);
  const MatchResult result = matcher.Execute(*prepared, options);
  RecordBuild(result.stats.build, &o);
  o.embeddings = result.embedding_count;
  return o;
}

// Bare Build without a table or root candidates: Build fills its own
// table. With `pool`, every frontier expands through the parallel bins.
Observation ObserveBareBuild(const Graph& data, const Graph& query,
                             ThreadPool* pool) {
  Observation o;
  NlcIndex nlc(data);
  auto pre = Preprocess(data, nlc, query, PreprocessOptions{kGoldenOrder});
  CECI_CHECK(pre.ok()) << pre.status().ToString();
  o.candidate_counts = pre->candidate_counts;
  BuildOptions options;
  options.pool = pool;
  options.parallel_threshold = 1;
  BuildStats stats;
  CeciIndex index =
      CeciBuilder(data, nlc).Build(query, pre->tree, options, &stats);
  RecordBuild(stats, &o);
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    o.built_sizes.push_back(index.at(u).candidates.size());
  }
  RefineCeci(pre->tree, data.num_vertices(), &index, nullptr);
  const FlatCeciIndex flat = FlatCeciIndex::Build(index, pre->tree);
  RecordArena(flat, &o);
  const SymmetryConstraints symmetry = SymmetryConstraints::Compute(query);
  ScheduleOptions schedule;
  schedule.enumeration.symmetry = &symmetry;
  o.embeddings = RunParallelEnumeration(data, pre->tree, flat, schedule,
                                        nullptr)
                     .embeddings;
  return o;
}

// Shared-storage path: the data graph is written to a CSR file and only
// read back through an OnDemandCsr. Preprocess, the NLC index and Build
// run over the store; refinement, the freeze and enumeration need no data
// graph.
Observation ObserveStoreBuild(const Graph& data, const Graph& query) {
  static int counter = 0;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ceci_golden_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter++) + ".csr"))
          .string();
  CECI_CHECK(WriteBinaryCsr(data, path).ok());
  auto store = OnDemandCsr::Open(path);
  std::filesystem::remove(path);  // the open stream keeps it readable
  CECI_CHECK(store.ok()) << store.status().ToString();

  Observation o;
  const NlcIndex nlc(*store);
  auto pre = Preprocess(*store, nlc, query, PreprocessOptions{kGoldenOrder});
  CECI_CHECK(pre.ok()) << pre.status().ToString();
  o.candidate_counts = pre->candidate_counts;
  BuildOptions options;
  options.filter_table = &pre->filter;
  options.root_candidates = &pre->root_candidates;
  BuildStats stats;
  auto index =
      CeciBuilder(*store, nlc).Build(query, pre->tree, options, &stats);
  CECI_CHECK(index.ok()) << index.status().ToString();
  RecordBuild(stats, &o);
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    o.built_sizes.push_back(index->at(u).candidates.size());
  }
  RefineCeci(pre->tree, store->num_vertices(), &index.value(), nullptr);
  const FlatCeciIndex flat = FlatCeciIndex::Build(*index, pre->tree);
  RecordArena(flat, &o);
  const SymmetryConstraints symmetry = SymmetryConstraints::Compute(query);
  EnumOptions enum_options;
  enum_options.symmetry = &symmetry;
  o.embeddings =
      Enumerator(pre->tree, flat, enum_options).EnumerateAll(nullptr);
  return o;
}

// The labeled social graph with a rare fifth label 4 added to every fifth
// vertex: a query vertex carrying {l, 4} scans bucket 4, not its first
// label l.
Graph MultiLabelDataGraph() {
  const Graph base = GoldenDataGraph("social", true);
  GraphBuilder builder;
  builder.ReserveVertices(base.num_vertices());
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    for (Label l : base.labels(v)) builder.AddLabel(v, l);
    if (v % 5 == 0) builder.AddLabel(v, 4);
    for (VertexId w : base.neighbors(v)) {
      if (v < w) builder.AddEdge(v, w);
    }
  }
  auto g = builder.Build();
  CECI_CHECK(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

// The subgraph induced by `vertices`, every label copied.
Graph InducedQuery(const Graph& data, const std::vector<VertexId>& vertices) {
  GraphBuilder builder;
  for (VertexId i = 0; i < vertices.size(); ++i) {
    for (Label l : data.labels(vertices[i])) builder.AddLabel(i, l);
    for (VertexId j = 0; j < i; ++j) {
      if (data.HasEdge(vertices[i], vertices[j])) builder.AddEdge(i, j);
    }
  }
  auto g = builder.Build();
  CECI_CHECK(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

// A triangle a-b-c plus five more neighbours of a, anchored at the first
// vertex a that carries label 4 and closes a triangle. Query vertex a has
// degree >= 7, above the data graph's minimum degree, so the degree
// filter rejects some of its neighbours too.
Graph MultiLabelQuery(const Graph& data) {
  for (VertexId a = 0; a < data.num_vertices(); a += 5) {
    for (VertexId b : data.neighbors(a)) {
      for (VertexId c : data.neighbors(b)) {
        if (c == a || !data.HasEdge(a, c)) continue;
        std::vector<VertexId> vertices = {a, b, c};
        for (VertexId d : data.neighbors(a)) {
          if (d != b && d != c && vertices.size() < 8) vertices.push_back(d);
        }
        if (vertices.size() == 8) return InducedQuery(data, vertices);
      }
    }
  }
  CECI_CHECK(false) << "no anchored triangle in the multi-label graph";
  return Graph();
}

struct GoldenCase {
  const char* family;  // "er", "ba", "social", or "multi"
  bool labeled;        // 4 random labels on the data graph
  std::size_t query_size;
  std::uint64_t query_seed;
  Observation expected;
};

void ExpectEveryPathMatches(const Graph& data, const Graph& query,
                            const Observation& expected) {
  ThreadPool pool(2);
  const Observation via_match = ObserveMatch(data, query);
  EXPECT_EQ(via_match, expected) << "through Match";
  const Observation serial = ObserveBareBuild(data, query, nullptr);
  EXPECT_EQ(serial, expected) << "through a bare Build";
  const Observation parallel = ObserveBareBuild(data, query, &pool);
  EXPECT_EQ(parallel, expected) << "through a parallel bare Build";
  const Observation stored = ObserveStoreBuild(data, query);
  EXPECT_EQ(stored, expected) << "through a Build over the CSR store";
}

TEST(FilterOnceGoldenTest, EveryPathReproducesTheRecordedBuild) {
  // Per case: candidate counts; built candidate-set sizes; rejected
  // label, degree, nlc, cascade and NTE-cascade removals, frontier
  // expansions, neighbours scanned; embeddings, arena CRC, arena bytes.
  const GoldenCase kCases[] = {
      {"er", false, 3, 21,
       {{500, 500, 500},
        {500, 500, 500},
        0, 0, 0, 0, 0, 1000, 12600,
        39756, 4022510079u, 75144}},
      {"er", false, 5, 22,
       {{500, 500, 500, 500, 500},
        {500, 500, 500, 500, 500},
        0, 0, 0, 0, 0, 2000, 25200,
        6263138, 3245353499u, 144256}},
      {"er", true, 4, 23,
       {{118, 103, 126, 120},
        {117, 102, 126, 120},
        3173, 0, 18, 1, 0, 332, 4309,
        4190, 4243966292u, 12304}},
      {"er", true, 6, 24,
       {{132, 109, 131, 131, 113, 107},
        {131, 109, 130, 130, 113, 107},
        5609, 0, 56, 1, 0, 592, 7729,
        49509, 4106282880u, 21408}},
      {"ba", false, 3, 25,
       {{500, 500, 500},
        {500, 500, 500},
        0, 0, 0, 0, 0, 1000, 7804,
        29673, 1101613095u, 52968}},
      {"ba", false, 5, 26,
       {{500, 500, 500, 500, 500},
        {500, 500, 500, 500, 500},
        0, 0, 0, 0, 0, 2000, 15608,
        4999809, 530754087u, 99904}},
      {"ba", true, 4, 27,
       {{104, 82, 69, 106},
        {99, 75, 67, 104},
        1507, 0, 25, 2, 0, 211, 2111,
        3863, 469396906u, 7808}},
      {"ba", true, 6, 28,
       {{103, 85, 82, 63, 69, 106},
        {97, 84, 78, 58, 67, 98},
        2572, 0, 81, 7, 0, 355, 3532,
        19141, 1084961802u, 11672}},
      {"social", false, 3, 29,
       {{600, 455, 600},
        {600, 455, 600},
        0, 0, 0, 0, 0, 910, 6050,
        20814, 522539935u, 49176}},
      {"social", false, 6, 30,
       {{600, 366, 455, 366, 455, 600},
        {594, 366, 455, 366, 455, 600},
        0, 581, 0, 0, 0, 2374, 17438,
        21789749, 3470247988u, 112976}},
      {"social", true, 4, 31,
       {{102, 62, 65, 112},
        {92, 56, 54, 102},
        1453, 13, 30, 6, 0, 178, 2016,
        3845, 1368039389u, 6552}},
      {"social", true, 5, 32,
       {{95, 54, 53, 66, 44},
        {78, 46, 52, 59, 42},
        1456, 19, 66, 8, 0, 250, 2605,
        878, 1098880707u, 7168}},
  };
  for (const GoldenCase& c : kCases) {
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
    ExpectEveryPathMatches(data, *query, c.expected);
  }
}

TEST(FilterOnceGoldenTest, ScanLabelIsNotTheFirstLabel) {
  const Graph data = MultiLabelDataGraph();
  const Graph query = MultiLabelQuery(data);
  // Query vertex 0 carries {l, 4}: bucket 4 is the rarer one.
  ASSERT_EQ(query.labels(0).size(), 2u);
  ASSERT_EQ(query.labels(0)[1], 4u);
  ASSERT_NE(query.label(0), 4u);
  ASSERT_LT(data.VerticesWithLabel(4).size(),
            data.VerticesWithLabel(query.label(0)).size());
  ExpectEveryPathMatches(data, query,
                         {{2, 12, 12, 17, 17, 6, 14, 38},
                          {1, 2, 3, 4, 5, 1, 4, 7},
                          188, 14, 10, 1, 5, 63, 1956, 7, 3914152618u, 1472});
}

TEST(FilterOnceGoldenTest, InfeasibleQuery) {
  // Label 9 never occurs in the 4-label data graph. Match stops after
  // preprocessing; a bare Build still runs and yields an empty index.
  const Graph data = GoldenDataGraph("social", true);
  const Graph query = MakeGraph({0, 9, 1}, {{0, 1}, {1, 2}, {0, 2}});
  const Observation expected_match = {{0, 0, 0}, {}, 0, 0, 0, 0, 0,
                                      0, 0, 0, 0u, 0};
  const Observation via_match = ObserveMatch(data, query);
  EXPECT_EQ(via_match, expected_match);
  const Observation expected_build = {{0, 0, 0}, {0, 0, 0}, 0, 0, 0, 0, 0,
                                      0, 0, 0, 709559313u, 136};
  const Observation serial = ObserveBareBuild(data, query, nullptr);
  EXPECT_EQ(serial, expected_build);
}

// The neighbour-label mask prefilter (NlcIndex::mask) must leave every
// verdict as the count merge alone gives it.

// The verdict of (u, v) with NLC decided by NlcIndex::Covers alone: the
// filter as it stood before the mask prefilter.
std::uint8_t CoversOnlyVerdict(const Graph& data, const NlcIndex& nlc,
                               const Graph& query, VertexId u, VertexId v) {
  if (!data.HasAllLabels(v, query.labels(u))) return FilterTable::kLabel;
  if (data.degree(v) < query.degree(u)) return FilterTable::kDegree;
  if (!nlc.Covers(v, NlcIndex::Profile(query, u))) return FilterTable::kNlc;
  return FilterTable::kPass;
}

TEST(NlcMaskFilterTest, FoldedLabelsKeepEveryCoversVerdict) {
  const Graph data = ::ceci::testing::FoldedLabelGraph();
  const NlcIndex nlc(data);
  std::size_t mask_rejects = 0;  // the mask test alone rejected
  std::size_t fold_passes = 0;   // the mask passed a pair the merge rejects
  std::size_t pairs = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    QueryGenOptions qopt;
    qopt.num_vertices = 4 + seed % 4;
    qopt.seed = seed;
    const std::optional<Graph> query = GenerateQuery(data, qopt);
    ASSERT_TRUE(query.has_value()) << "seed " << seed;
    const FilterTable table = FilterTable::Compute(data, nlc, *query, nullptr);
    for (VertexId u = 0; u < query->num_vertices(); ++u) {
      const auto profile = NlcIndex::Profile(*query, u);
      ASSERT_FALSE(nlc.PresenceDecides(profile));
      const std::uint64_t need = NlcIndex::MaskOf(profile);
      for (VertexId v = 0; v < data.num_vertices(); ++v) {
        const std::uint8_t expected =
            CoversOnlyVerdict(data, nlc, *query, u, v);
        ASSERT_EQ(table.row(u)[v], expected)
            << "seed " << seed << " u" << u << " v" << v;
        if (expected != FilterTable::kNlc) continue;
        ++pairs;
        if ((nlc.mask(v) & need) != need) {
          ++mask_rejects;
        } else {
          ++fold_passes;
        }
      }
    }
  }
  // Both branches ran: rejections the mask settles alone, and mask passes
  // (folded labels among them) that only the merge rejects.
  EXPECT_GT(mask_rejects, 0u);
  EXPECT_GT(fold_passes, 0u);
  EXPECT_EQ(mask_rejects + fold_passes, pairs);
}

TEST(NlcMaskFilterTest, PresenceDecidedVerdictsMatchCovers) {
  const Graph data = GoldenDataGraph("social", true);
  const NlcIndex nlc(data);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    QueryGenOptions qopt;
    qopt.num_vertices = 4 + seed % 4;
    qopt.seed = seed;
    const std::optional<Graph> query = GenerateQuery(data, qopt);
    ASSERT_TRUE(query.has_value()) << "seed " << seed;
    const FilterTable table = FilterTable::Compute(data, nlc, *query, nullptr);
    for (VertexId u = 0; u < query->num_vertices(); ++u) {
      for (VertexId v = 0; v < data.num_vertices(); ++v) {
        ASSERT_EQ(table.row(u)[v], CoversOnlyVerdict(data, nlc, *query, u, v))
            << "seed " << seed << " u" << u << " v" << v;
      }
    }
  }
}

TEST(NlcMaskFilterTest, TwoNeighboursOfOneLabelRejectAVertexWithOne) {
  // Data vertex 0 has one label-1 and one label-2 neighbour; query vertex
  // 0 needs two label-1 neighbours. The mask test passes (bit 1 is set),
  // so the count merge must reject.
  const Graph data = MakeGraph({0, 1, 2}, {{0, 1}, {0, 2}});
  const Graph query = MakeGraph({0, 1, 1}, {{0, 1}, {0, 2}});
  const NlcIndex nlc(data);
  const auto profile = NlcIndex::Profile(query, 0);
  const std::uint64_t need = NlcIndex::MaskOf(profile);
  ASSERT_EQ(nlc.mask(0) & need, need);
  ASSERT_FALSE(nlc.PresenceDecides(profile));
  std::vector<std::size_t> counts;
  const FilterTable table = FilterTable::Compute(data, nlc, query, &counts);
  EXPECT_EQ(table.row(0)[0], FilterTable::kNlc);
  EXPECT_EQ(counts[0], 0u);
}

}  // namespace
}  // namespace ceci
