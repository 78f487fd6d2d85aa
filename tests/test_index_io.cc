// Tests for CECI index persistence (§6.4's non-volatile-storage plan).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "ceci/ceci_builder.h"
#include "ceci/enumerator.h"
#include "ceci/index_io.h"
#include "ceci/refinement.h"
#include "ceci/symmetry.h"
#include "gen/paper_queries.h"
#include "gen/random_graphs.h"
#include "test_support.h"
#include "util/crc32.h"

namespace ceci {
namespace {

class IndexIoTest : public ::testing::Test {
 protected:
  IndexIoTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("ceci_idx_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~IndexIoTest() override { std::filesystem::remove_all(dir_); }

  std::string File(const std::string& name) const {
    return (dir_ / name).string();
  }

  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

struct Built {
  Built(const Graph& data, const Graph& query, VertexId root)
      : nlc(data), sym(SymmetryConstraints::Compute(query)) {
    auto t = QueryTree::Build(query, root);
    CECI_CHECK(t.ok());
    tree = std::move(t).value();
    CeciBuilder builder(data, nlc);
    index = builder.Build(query, tree, BuildOptions{}, nullptr);
    RefineCeci(tree, data.num_vertices(), &index, nullptr);
    flat = FlatCeciIndex::Build(index, tree);
  }

  // Writes the arena with its tree and restriction set.
  Status Write(const std::string& pattern, const std::string& path) const {
    return WriteFlatIndex(flat, tree, sym, pattern, path);
  }

  NlcIndex nlc;
  SymmetryConstraints sym;
  QueryTree tree;
  CeciIndex index;     // the refined mutable form
  FlatCeciIndex flat;  // its frozen arena, what the image stores
};

TEST_F(IndexIoTest, RoundTripPreservesStructure) {
  Graph data = GenerateSocialGraph(500, 8, 3);
  Graph query = MakePaperQuery(PaperQuery::kQG3);
  Built b(data, query, 0);
  ASSERT_TRUE(b.Write("", File("q.idx")).ok());
  auto loaded = ReadFlatIndex(b.tree, File("q.idx"));
  ASSERT_TRUE(loaded.ok());
  // Checked against the mutable index the arena was frozen from.
  for (VertexId u = 0; u < 4; ++u) {
    const CeciVertexData& want = b.index.at(u);
    const auto cands = loaded->candidates(u);
    const auto cards = loaded->cardinalities(u);
    EXPECT_EQ(std::vector<VertexId>(cands.begin(), cands.end()),
              want.candidates);
    EXPECT_EQ(std::vector<Cardinality>(cards.begin(), cards.end()),
              want.cardinalities);
    const FlatCeciIndex::VertexFootprint f = loaded->MemoryFootprint(u);
    EXPECT_EQ(f.te_keys, want.te.num_runs());
    EXPECT_EQ(f.te_edges, want.te.TotalValues());
    ASSERT_EQ(loaded->nte_count(u), want.nte.size());
    std::size_t nte_edges = 0;
    for (const KeyedRuns& list : want.nte) nte_edges += list.TotalValues();
    EXPECT_EQ(f.nte_edges, nte_edges);
  }
}

TEST_F(IndexIoTest, LoadedIndexEnumeratesIdentically) {
  Graph data = GenerateSocialGraph(600, 10, 5);
  Graph query = MakePaperQuery(PaperQuery::kQG5);
  Built b(data, query, 0);
  ASSERT_TRUE(b.Write("", File("q.idx")).ok());
  auto loaded = ReadFlatIndex(b.tree, File("q.idx"));
  ASSERT_TRUE(loaded.ok());

  EnumOptions eo;
  eo.symmetry = &b.sym;
  Enumerator original(data, b.tree, b.flat, eo);
  Enumerator restored(data, b.tree, *loaded, eo);
  EXPECT_EQ(restored.EnumerateAll(nullptr), original.EnumerateAll(nullptr));
}

TEST_F(IndexIoTest, RejectsWrongQuerySize) {
  Graph data = testing::PaperExample::Data();
  Built b(data, testing::PaperExample::Query(), 0);
  ASSERT_TRUE(b.Write("", File("q.idx")).ok());
  Graph other = MakePaperQuery(PaperQuery::kQG1);
  auto tree = QueryTree::Build(other, 0);
  ASSERT_TRUE(tree.ok());
  auto loaded = ReadFlatIndex(*tree, File("q.idx"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(IndexIoTest, RejectsWrongMatchingOrder) {
  Graph data = testing::PaperExample::Data();
  Graph query = testing::PaperExample::Query();
  Built b(data, query, 0);
  ASSERT_TRUE(b.Write("", File("q.idx")).ok());
  // Same query, different root → different order.
  auto other_tree = QueryTree::Build(query, 2);
  ASSERT_TRUE(other_tree.ok());
  auto loaded = ReadFlatIndex(*other_tree, File("q.idx"));
  EXPECT_FALSE(loaded.ok());
}

TEST_F(IndexIoTest, RejectsCorruptFile) {
  Graph data = testing::PaperExample::Data();
  Built b(data, testing::PaperExample::Query(), 0);
  std::ofstream out(File("junk.idx"), std::ios::binary);
  out << "NOTANINDEXATALL____________________";
  out.close();
  auto loaded = ReadFlatIndex(b.tree, File("junk.idx"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST_F(IndexIoTest, RejectsMissingFile) {
  Graph data = testing::PaperExample::Data();
  Built b(data, testing::PaperExample::Query(), 0);
  auto loaded = ReadFlatIndex(b.tree, File("absent.idx"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kIoError);
}

TEST_F(IndexIoTest, RejectsTruncatedFile) {
  Graph data = GenerateSocialGraph(300, 6, 7);
  Graph query = MakePaperQuery(PaperQuery::kQG2);
  Built b(data, query, 0);
  ASSERT_TRUE(b.Write("", File("full.idx")).ok());
  std::ifstream in(File("full.idx"), std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  std::ofstream out(File("half.idx"), std::ios::binary);
  out.write(content.data(), static_cast<std::streamsize>(content.size() / 2));
  out.close();
  auto loaded = ReadFlatIndex(b.tree, File("half.idx"));
  EXPECT_FALSE(loaded.ok());
}

// ---------------------------------------------------------------------
// Flat-image hardening: the v4 format served by `ceci_serve --index`.

// Reads the whole file into a byte string.
std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A written flat image plus its ground-truth embedding count, enumerated
// from the in-memory arena before the image is written.
struct FlatImage {
  FlatImage(const Graph& data_graph, const Graph& query_graph,
            const std::string& path)
      : data(data_graph), query(query_graph), built(data, query, 0) {
    embeddings = Enumerate(built.flat);
    CECI_CHECK(built.Write("(a)-(b)", path).ok());
  }

  EnumOptions Options() {
    sym = SymmetryConstraints::None(query.num_vertices());
    EnumOptions eo;
    eo.symmetry = &sym;
    return eo;
  }

  std::uint64_t Enumerate(const FlatCeciIndex& index) {
    Enumerator e(data, built.tree, index, Options());
    return e.EnumerateAll(nullptr);
  }

  Graph data;
  Graph query;
  Built built;
  SymmetryConstraints sym;
  std::uint64_t embeddings = 0;
};

TEST_F(IndexIoTest, FlatRoundTripOwnedAndMapped) {
  FlatImage img(GenerateSocialGraph(600, 8, 11),
                MakePaperQuery(PaperQuery::kQG3), File("f.idx"));
  IndexLoadOptions copy;
  auto owned = ReadFlatIndex(img.built.tree, File("f.idx"), copy);
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  EXPECT_FALSE(owned->mapped());
  EXPECT_EQ(owned->ArenaBytes(), img.built.flat.ArenaBytes());
  EXPECT_EQ(img.Enumerate(*owned), img.embeddings);

  IndexLoadOptions mmapped;
  mmapped.use_mmap = true;
  auto mapped = ReadFlatIndex(img.built.tree, File("f.idx"), mmapped);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->mapped());
  EXPECT_EQ(img.Enumerate(*mapped), img.embeddings);
}

TEST_F(IndexIoTest, OpenFlatIndexRecoversThePattern) {
  FlatImage img(testing::PaperExample::Data(), testing::PaperExample::Query(),
                File("p.idx"));
  auto loaded = OpenFlatIndex(File("p.idx"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->pattern, "(a)-(b)");
  EXPECT_EQ(loaded->index.num_query_vertices(),
            img.built.flat.num_query_vertices());
}

TEST_F(IndexIoTest, FlatRoundTripDegenerateEmptyIndex) {
  // Label 9 does not exist in the data graph: every candidate set is
  // empty, and the image is all-metadata. It must still round-trip.
  Graph data = testing::PaperExample::Data();
  Graph query = testing::MakeGraph({0, 9}, {{0, 1}});
  Built b(data, query, 0);
  ASSERT_TRUE(b.Write("", File("empty.idx")).ok());
  auto loaded = ReadFlatIndex(b.tree, File("empty.idx"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->candidates(0).empty());
  EXPECT_TRUE(loaded->candidates(1).empty());
  EXPECT_EQ(loaded->TotalCandidateEdges(), 0u);
}

TEST_F(IndexIoTest, FlatRoundTripLargeIndex) {
  FlatImage img(GenerateSocialGraph(4000, 10, 3),
                MakePaperQuery(PaperQuery::kQG5), File("big.idx"));
  IndexLoadOptions mmapped;
  mmapped.use_mmap = true;
  auto loaded = ReadFlatIndex(img.built.tree, File("big.idx"), mmapped);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(img.Enumerate(*loaded), img.embeddings);
}

TEST_F(IndexIoTest, FlatRejectsBadMagic) {
  FlatImage img(testing::PaperExample::Data(), testing::PaperExample::Query(),
                File("m.idx"));
  std::string bytes = SlurpFile(File("m.idx"));
  bytes[0] = 'X';
  WriteBytes(File("m.idx"), bytes);
  auto loaded = OpenFlatIndex(File("m.idx"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST_F(IndexIoTest, FlatRejectsUnsupportedVersion) {
  FlatImage img(testing::PaperExample::Data(), testing::PaperExample::Query(),
                File("v.idx"));
  std::string bytes = SlurpFile(File("v.idx"));
  bytes[4] = static_cast<char>(bytes[4] + 1);  // version field
  WriteBytes(File("v.idx"), bytes);
  auto loaded = OpenFlatIndex(File("v.idx"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST_F(IndexIoTest, FlatRejectsTruncatedSlabTable) {
  FlatImage img(testing::PaperExample::Data(), testing::PaperExample::Query(),
                File("t.idx"));
  std::string bytes = SlurpFile(File("t.idx"));
  WriteBytes(File("t.idx"), bytes.substr(0, 200));  // header survives
  auto loaded = OpenFlatIndex(File("t.idx"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST_F(IndexIoTest, FlatChecksumCatchesArenaBitRot) {
  FlatImage img(GenerateSocialGraph(400, 6, 29),
                MakePaperQuery(PaperQuery::kQG1), File("rot.idx"));
  std::string bytes = SlurpFile(File("rot.idx"));
  ASSERT_GT(bytes.size(), 400u);
  bytes[400] = static_cast<char>(bytes[400] ^ 0x40);  // inside the arena
  WriteBytes(File("rot.idx"), bytes);
  auto loaded = OpenFlatIndex(File("rot.idx"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST_F(IndexIoTest, ByteFlipFuzzFailsCleanlyEverywhere) {
  // Flip one byte at ~100 positions across the image. Every load must
  // either fail with a clean Status or — if it somehow passes validation —
  // still enumerate the correct count. No crash, no OOB access (asan CI
  // job runs this suite).
  FlatImage img(GenerateSocialGraph(300, 6, 41),
                MakePaperQuery(PaperQuery::kQG2), File("fuzz.idx"));
  const std::string pristine = SlurpFile(File("fuzz.idx"));
  ASSERT_FALSE(pristine.empty());
  const std::size_t step = std::max<std::size_t>(1, pristine.size() / 97);
  for (std::size_t at = 0; at < pristine.size(); at += step) {
    std::string bytes = pristine;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x5A);
    WriteBytes(File("fuzz.idx"), bytes);
    auto loaded = ReadFlatIndex(img.built.tree, File("fuzz.idx"));
    if (loaded.ok()) {
      EXPECT_EQ(img.Enumerate(*loaded), img.embeddings)
          << "byte " << at << " flipped";
    } else {
      EXPECT_NE(loaded.status().code(), Status::Code::kOk) << "byte " << at;
    }
  }
}


// ---------------------------------------------------------------------
// CEIX v3: the query plan (tree parents, chosen restriction set).

// Overwrites u32 word `word` of the plan region and re-seals the plan and
// header checksums, so only the plan validation can object.
void PatchPlanWord(std::string* bytes, std::size_t word, std::uint32_t value) {
  auto u64_at = [&](std::size_t at) {
    std::uint64_t v;
    std::memcpy(&v, bytes->data() + at, sizeof(v));
    return v;
  };
  const std::uint64_t plan_offset = u64_at(40);
  const std::uint64_t plan_bytes = u64_at(64) - plan_offset;
  std::memcpy(bytes->data() + plan_offset + 4 * word, &value, sizeof(value));
  const std::uint32_t plan_crc =
      Crc32(bytes->data() + plan_offset, static_cast<std::size_t>(plan_bytes));
  std::memcpy(bytes->data() + 84, &plan_crc, sizeof(plan_crc));
  const std::uint32_t header_crc = Crc32(bytes->data(), 100);
  std::memcpy(bytes->data() + 100, &header_crc, sizeof(header_crc));
}

// Overwrites u32 element `index` of arena slab `kind` and re-seals that
// slab's checksum, the slab table's and the header's, so only the
// structural checks can object.
void PatchArenaWord(std::string* bytes, FlatCeciIndex::SlabKind kind,
                    std::size_t index, std::uint32_t value) {
  constexpr std::size_t kSlabTable = 104, kRecordBytes = 24, kArena = 320;
  const std::size_t record = kSlabTable + kRecordBytes * kind;
  std::uint64_t offset, slab_bytes;
  std::memcpy(&offset, bytes->data() + record, sizeof(offset));
  std::memcpy(&slab_bytes, bytes->data() + record + 8, sizeof(slab_bytes));
  std::memcpy(bytes->data() + kArena + offset + 4 * index, &value,
              sizeof(value));
  const std::uint32_t slab_crc =
      Crc32(bytes->data() + kArena + offset, slab_bytes);
  std::memcpy(bytes->data() + record + 20, &slab_crc, sizeof(slab_crc));
  const std::uint32_t table_crc =
      Crc32(bytes->data() + kSlabTable,
            kRecordBytes * FlatCeciIndex::kNumSlabs);
  std::memcpy(bytes->data() + 80, &table_crc, sizeof(table_crc));
  const std::uint32_t header_crc = Crc32(bytes->data(), 100);
  std::memcpy(bytes->data() + 100, &header_crc, sizeof(header_crc));
}

TEST_F(IndexIoTest, TeListLengthDiffersFromTheParentsCandidatesIsCorruption) {
  // Enumeration reads a TE entry by its parent candidate's rank, so a TE
  // list must hold exactly one entry per candidate of its tree parent.
  // Here the last entry of one TE list moves to the head of the TE list
  // after it: entry and key ranges stay back to back and every value set
  // stays well-formed, so only the two lists' lengths are wrong.
  Graph data = GenerateSocialGraph(300, 6, 7);
  Graph query = MakePaperQuery(PaperQuery::kQG2);
  Built b(data, query, 0);
  ASSERT_TRUE(b.Write("", File("te.idx")).ok());
  ASSERT_TRUE(OpenFlatIndex(File("te.idx")).ok());

  // Adjacent TE lists l (of u) and l + 1 (of w), where u's last entry is a
  // rank array that also names candidates of w.
  const auto lists = b.flat.list_metas();
  std::size_t l = lists.size();
  VertexId u = 0;
  for (VertexId v = 0; v < query.num_vertices() && l == lists.size(); ++v) {
    const std::uint32_t te = b.flat.vertex_metas()[v].te_list;
    if (te == kNoFlatList || te + 1 >= lists.size() ||
        lists[te].entry_count == 0) {
      continue;
    }
    const VertexId w = lists[te + 1].owner;
    const FlatCeciIndex::EntryRef last =
        b.flat.TeEntry(v, lists[te].entry_count - 1);
    if (b.flat.vertex_metas()[w].te_list == te + 1 && !last.is_bitmap() &&
        last.ranks.back() < b.flat.candidates(w).size()) {
      l = te;
      u = v;
    }
  }
  ASSERT_LT(l, lists.size()) << "no two adjacent TE lists to shift between";
  std::string bytes = SlurpFile(File("te.idx"));
  auto patch = [&](std::size_t list, std::size_t field_offset,
                   std::uint32_t value) {
    PatchArenaWord(&bytes, FlatCeciIndex::kListMeta,
                   (list * sizeof(FlatListMeta) + field_offset) / 4, value);
  };
  patch(l, offsetof(FlatListMeta, entry_count), lists[l].entry_count - 1);
  patch(l + 1, offsetof(FlatListMeta, entry_count),
        lists[l + 1].entry_count + 1);
  patch(l + 1, offsetof(FlatListMeta, entry_begin),
        lists[l + 1].entry_begin - 1);
  WriteBytes(File("te.idx"), bytes);
  for (const bool use_mmap : {false, true}) {
    auto loaded = OpenFlatIndex(File("te.idx"), IndexLoadOptions{use_mmap});
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
    EXPECT_NE(loaded.status().message().find("TE list of u" +
                                             std::to_string(u)),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(IndexIoTest, NteKeyOutsideTheParentsCandidatesIsCorruption) {
  // NteAt finds an NTE key only inside the rank window that the NTE
  // parent's candidate count implies, which holds when the list's keys are
  // a subset of those candidates. Here the last key of an NTE list moves
  // past every candidate of its NTE parent: the keys still ascend and every
  // layout fact holds, but a rank lookup would miss keys the list holds.
  // Only the query tree names the NTE parent, so the readers that know it
  // refuse the image.
  Graph data = GenerateSocialGraph(300, 6, 7);
  Graph query = MakePaperQuery(PaperQuery::kQG2);
  Built b(data, query, 0);
  ASSERT_TRUE(b.Write("", File("nte.idx")).ok());
  ASSERT_TRUE(ReadFlatIndex(b.tree, File("nte.idx")).ok());

  VertexId u = 0;
  while (u < query.num_vertices() && b.flat.nte_count(u) == 0) ++u;
  ASSERT_LT(u, query.num_vertices());
  const FlatListMeta& nte =
      b.flat.list_metas()[b.flat.vertex_metas()[u].nte_begin];
  ASSERT_GT(nte.entry_count, 0u);
  const VertexId parent =
      b.tree.non_tree_edges()[b.tree.nte_in(u)[0]].parent;
  std::string bytes = SlurpFile(File("nte.idx"));
  PatchArenaWord(&bytes, FlatCeciIndex::kKeys,
                 nte.key_begin + nte.entry_count - 1,
                 b.flat.candidates(parent).back() + 1);
  WriteBytes(File("nte.idx"), bytes);
  for (const bool use_mmap : {false, true}) {
    const IndexLoadOptions load{use_mmap};
    auto read = ReadFlatIndex(b.tree, File("nte.idx"), load);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), Status::Code::kCorruption);
    EXPECT_NE(read.status().message().find("NTE keys of u" +
                                           std::to_string(u)),
              std::string::npos)
        << read.status().ToString();
    auto opened = OpenFlatIndex(File("nte.idx"), load);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto tree = ImageQueryTree(*opened, query);
    ASSERT_FALSE(tree.ok());
    EXPECT_EQ(tree.status().code(), Status::Code::kCorruption);
  }
}

TEST_F(IndexIoTest, RoundTripPreservesParentsAndRestrictions) {
  Graph data = GenerateSocialGraph(500, 8, 3);
  Graph query = MakePaperQuery(PaperQuery::kQG5);
  Built b(data, query, 0);
  ASSERT_FALSE(b.sym.empty());
  for (const bool mirror : {false, true}) {
    const SymmetryConstraints written = mirror ? b.sym.Mirrored() : b.sym;
    ASSERT_TRUE(
        WriteFlatIndex(b.flat, b.tree, written, "", File("plan.idx")).ok());
    auto loaded = OpenFlatIndex(File("plan.idx"));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->parents.size(), query.num_vertices());
    for (VertexId u = 0; u < query.num_vertices(); ++u) {
      EXPECT_EQ(loaded->parents[u], b.tree.parent(u)) << "u" << u;
    }
    const SymmetryConstraints& got = loaded->symmetry;
    EXPECT_EQ(got.mirrored(), mirror);
    EXPECT_EQ(got.automorphism_count(), b.sym.automorphism_count());
    ASSERT_EQ(got.constraints().size(), written.constraints().size());
    for (std::size_t i = 0; i < got.constraints().size(); ++i) {
      const SymmetryConstraints::Constraint& want = written.constraints()[i];
      EXPECT_EQ(got.constraints()[i].smaller, want.smaller);
      EXPECT_EQ(got.constraints()[i].larger, want.larger);
    }
    // The stored set enumerates the stored arena to the same count.
    EnumOptions eo;
    eo.symmetry = &got;
    Enumerator restored(data, b.tree, loaded->index, eo);
    eo.symmetry = &b.sym;
    Enumerator original(data, b.tree, b.flat, eo);
    EXPECT_EQ(restored.EnumerateAll(nullptr), original.EnumerateAll(nullptr));
  }
}

TEST_F(IndexIoTest, BreakingOffRoundTripsAsAnEmptySet) {
  Graph data = GenerateSocialGraph(300, 6, 7);
  Graph query = MakePaperQuery(PaperQuery::kQG2);
  Built b(data, query, 0);
  ASSERT_TRUE(WriteFlatIndex(b.flat, b.tree,
                             SymmetryConstraints::None(query.num_vertices()),
                             "", File("none.idx"))
                  .ok());
  auto loaded = OpenFlatIndex(File("none.idx"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->symmetry.empty());
  EXPECT_EQ(loaded->symmetry.automorphism_count(), 0u);
}

// The 4-cycle 0-1-2-3 (QG2) and the 4-cycle 0-1-3-2 share the order
// [0, 1, 3, 2] and one incoming non-tree edge at vertex 2, but not their
// BFS trees: vertex 2 hangs off 1 in the first and off 0 in the second.
// An image built on one must not load for the other.
TEST_F(IndexIoTest, ImageQueryTreeRejectsOtherTreeParents) {
  Graph data = GenerateSocialGraph(300, 6, 7);
  Graph built_on = MakePaperQuery(PaperQuery::kQG2);
  Graph other = testing::MakeUnlabeled(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  Built b(data, built_on, 0);
  const std::vector<VertexId> order = {0, 1, 3, 2};
  ASSERT_EQ(std::vector<VertexId>(b.tree.matching_order().begin(),
                                  b.tree.matching_order().end()),
            order);
  ASSERT_TRUE(b.Write("", File("tree.idx")).ok());
  auto loaded = OpenFlatIndex(File("tree.idx"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  auto same = ImageQueryTree(*loaded, built_on);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  // The other cycle fits the order and the NTE counts ...
  auto other_tree = QueryTree::Build(other, 0);
  ASSERT_TRUE(other_tree.ok());
  ASSERT_TRUE(other_tree->SetMatchingOrder(order).ok());
  for (VertexId u = 0; u < 4; ++u) {
    ASSERT_EQ(other_tree->nte_in(u).size(), loaded->index.nte_count(u));
  }
  // ... and only the stored parents tell the two apart.
  auto rejected = ImageQueryTree(*loaded, other);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Status::Code::kInvalidArgument);
  EXPECT_FALSE(ReadFlatIndex(*other_tree, File("tree.idx")).ok());
}

TEST_F(IndexIoTest, OlderImageVersionsAreUnsupported) {
  // v2 images lack the plan region; v3 images store TE keys.
  FlatImage img(testing::PaperExample::Data(), testing::PaperExample::Query(),
                File("old.idx"));
  const std::string pristine = SlurpFile(File("old.idx"));
  for (const std::uint32_t version : {2u, 3u}) {
    std::string bytes = pristine;
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    WriteBytes(File("old.idx"), bytes);
    auto loaded = OpenFlatIndex(File("old.idx"));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
    EXPECT_NE(loaded.status().message().find("unsupported index version " +
                                             std::to_string(version)),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(IndexIoTest, MalformedRestrictionPairsAreCorruption) {
  Graph data = GenerateSocialGraph(300, 6, 7);
  Graph query = MakePaperQuery(PaperQuery::kQG2);  // 4 vertices, 4 pairs
  Built b(data, query, 0);
  ASSERT_FALSE(b.sym.empty());
  ASSERT_TRUE(b.Write("", File("pairs.idx")).ok());
  const std::string pristine = SlurpFile(File("pairs.idx"));
  const std::size_t first_pair = query.num_vertices();  // after the parents
  const VertexId smaller = b.sym.constraints()[0].smaller;
  struct Case {
    const char* what;
    std::size_t word;
    std::uint32_t value;
  };
  for (const Case& c : {Case{"id past the query", first_pair, 4},
                        Case{"larger id past the query", first_pair + 1, 9},
                        Case{"a == b", first_pair + 1, smaller}}) {
    std::string bytes = pristine;
    PatchPlanWord(&bytes, c.word, c.value);
    WriteBytes(File("pairs.idx"), bytes);
    auto loaded = OpenFlatIndex(File("pairs.idx"));
    ASSERT_FALSE(loaded.ok()) << c.what;
    EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption) << c.what;
  }
  // A parent past the query is corruption too.
  std::string bytes = pristine;
  PatchPlanWord(&bytes, 1, 7);
  WriteBytes(File("pairs.idx"), bytes);
  auto loaded = OpenFlatIndex(File("pairs.idx"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

}  // namespace
}  // namespace ceci
