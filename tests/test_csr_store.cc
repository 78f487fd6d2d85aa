// Tests for the on-demand CSR store (§5's shared-storage substrate): the
// binary CSR file opened with adjacency read per request.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "gen/random_graphs.h"
#include "graph/graph_builder.h"
#include "graphio/binary_csr.h"
#include "test_support.h"

namespace ceci {
namespace {

using ::ceci::testing::MakeGraph;

class CsrStoreTest : public ::testing::Test {
 protected:
  CsrStoreTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("ceci_csr_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~CsrStoreTest() override { std::filesystem::remove_all(dir_); }

  std::string File(const std::string& name) const {
    return (dir_ / name).string();
  }

  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

TEST_F(CsrStoreTest, RoundTripsAdjacencyAndLabels) {
  Graph g = MakeGraph({2, 3, 2, 7, 0},
                      {{0, 1}, {1, 2}, {2, 3}, {0, 3}, {3, 4}});
  ASSERT_TRUE(WriteBinaryCsr(g, File("g.csr2")).ok());
  auto store = OnDemandCsr::Open(File("g.csr2"));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->num_vertices(), g.num_vertices());
  EXPECT_EQ(store->num_directed_edges(), g.num_directed_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(store->degree(v), g.degree(v));
    auto labels = store->labels(v);
    auto expected = g.labels(v);
    EXPECT_TRUE(std::equal(labels.begin(), labels.end(), expected.begin(),
                           expected.end()));
    auto adj = store->neighbors(v);
    ASSERT_TRUE(store->status().ok());
    auto gadj = g.neighbors(v);
    EXPECT_TRUE(std::equal(adj.begin(), adj.end(), gadj.begin(), gadj.end()));
  }
}

TEST_F(CsrStoreTest, CountsRequestsAndBytes) {
  Graph g = GenerateErdosRenyi(500, 2500, 7);
  ASSERT_TRUE(WriteBinaryCsr(g, File("er.csr2")).ok());
  auto store = OnDemandCsr::Open(File("er.csr2"));
  ASSERT_TRUE(store.ok());
  std::uint64_t expected_bytes = 0;
  for (VertexId v = 0; v < 100; ++v) {
    store->neighbors(v);
    expected_bytes += g.degree(v) * sizeof(VertexId);
  }
  ASSERT_TRUE(store->status().ok());
  EXPECT_EQ(store->requests(), 100u);
  EXPECT_EQ(store->bytes_read(), expected_bytes);
}

TEST_F(CsrStoreTest, IsolatedVertexReadsEmpty) {
  GraphBuilder b;
  b.ReserveVertices(3);
  b.AddEdge(0, 1);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(WriteBinaryCsr(*g, File("iso.csr2")).ok());
  auto store = OnDemandCsr::Open(File("iso.csr2"));
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store->neighbors(2).empty());
  EXPECT_TRUE(store->status().ok());
}

TEST_F(CsrStoreTest, RejectsMissingFile) {
  auto store = OnDemandCsr::Open(File("absent.csr2"));
  EXPECT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), Status::Code::kIoError);
}

TEST_F(CsrStoreTest, RejectsBadMagic) {
  std::ofstream out(File("bad.csr2"), std::ios::binary);
  out << "JUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNK";
  out.close();
  auto store = OnDemandCsr::Open(File("bad.csr2"));
  EXPECT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), Status::Code::kCorruption);
}

TEST_F(CsrStoreTest, RejectsTruncatedResidentSection) {
  Graph g = GenerateErdosRenyi(200, 600, 9);
  ASSERT_TRUE(WriteBinaryCsr(g, File("full.csr2")).ok());
  // Copy only a prefix of the file.
  std::ifstream in(File("full.csr2"), std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  std::ofstream out(File("trunc.csr2"), std::ios::binary);
  out.write(content.data(), static_cast<std::streamsize>(content.size() / 8));
  out.close();
  auto store = OnDemandCsr::Open(File("trunc.csr2"));
  EXPECT_FALSE(store.ok());
}

TEST_F(CsrStoreTest, TruncatedAdjacencyDetectedOnRead) {
  Graph g = GenerateErdosRenyi(200, 600, 10);
  ASSERT_TRUE(WriteBinaryCsr(g, File("full.csr2")).ok());
  std::ifstream in(File("full.csr2"), std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  // Keep the resident sections, drop the adjacency tail.
  std::ofstream out(File("tail.csr2"), std::ios::binary);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size() - 1024));
  out.close();
  auto store = OnDemandCsr::Open(File("tail.csr2"));
  ASSERT_TRUE(store.ok());  // resident sections intact
  // Reading the last vertex's adjacency must fail cleanly.
  EXPECT_TRUE(
      store->neighbors(static_cast<VertexId>(store->num_vertices() - 1))
          .empty());
  EXPECT_FALSE(store->status().ok());
}

TEST_F(CsrStoreTest, MatchesInMemoryGraphOnRandomInput) {
  Graph g = GenerateSocialGraph(1000, 8, 11);
  ASSERT_TRUE(WriteBinaryCsr(g, File("s.csr2")).ok());
  auto store = OnDemandCsr::Open(File("s.csr2"));
  ASSERT_TRUE(store.ok());
  for (VertexId v = 0; v < g.num_vertices(); v += 7) {
    auto adj = store->neighbors(v);
    auto expect = g.neighbors(v);
    EXPECT_TRUE(
        std::equal(adj.begin(), adj.end(), expect.begin(), expect.end()));
  }
  EXPECT_TRUE(store->status().ok());
}

// The path 0-1-2-3, one label per vertex, lays out as: header (32 bytes),
// offsets {0, 1, 3, 5, 6} at 32, label offsets {0, 1, 2, 3, 4} at 72,
// labels at 92, adjacency {1 | 0 2 | 1 3 | 2} at 108.
constexpr std::uint64_t kOffsetsAt = 32;
constexpr std::uint64_t kLabelOffsetsAt = 72;
constexpr std::uint64_t kAdjacencyAt = 108;

// Writes the path file and overwrites the value at byte `at` with `value`.
template <typename T>
void WritePatchedPath(const std::string& path, std::uint64_t at, T value) {
  Graph g = MakeGraph({0, 1, 2, 3}, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(WriteBinaryCsr(g, path).ok());
  ASSERT_EQ(std::filesystem::file_size(path), kAdjacencyAt + 6 * 4);
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(at));
  f.write(reinterpret_cast<const char*>(&value), sizeof(T));
  ASSERT_TRUE(f.good());
}

TEST_F(CsrStoreTest, ReadRejectsOutOfRangeNeighbor) {
  // Vertex 0's only neighbour 1 becomes 999999 >= |V|.
  WritePatchedPath(File("id.csr"), kAdjacencyAt, std::uint32_t{999999});
  auto store = OnDemandCsr::Open(File("id.csr"));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(store->neighbors(0).empty());
  EXPECT_EQ(store->status().code(), Status::Code::kCorruption);
}

TEST_F(CsrStoreTest, ReadRejectsUnsortedNeighbors) {
  // Vertex 1's list {0, 2} becomes {2, 2}.
  WritePatchedPath(File("dup.csr"), kAdjacencyAt + 4, std::uint32_t{2});
  auto store = OnDemandCsr::Open(File("dup.csr"));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->neighbors(0).size(), 1u);
  EXPECT_TRUE(store->status().ok());
  EXPECT_TRUE(store->neighbors(1).empty());
  EXPECT_EQ(store->status().code(), Status::Code::kCorruption);
}

TEST_F(CsrStoreTest, OpenRejectsLabelOffsetPastLabelSection) {
  WritePatchedPath(File("lab.csr"), kLabelOffsetsAt + 4 * 4,
                   std::uint32_t{1} << 30);
  auto store = OnDemandCsr::Open(File("lab.csr"));
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), Status::Code::kCorruption);
}

TEST_F(CsrStoreTest, OpenRejectsDecreasingOffsets) {
  // offsets[1] = 5 > offsets[2] = 3 would make degree(1) wrap to 2^64 - 2.
  WritePatchedPath(File("off.csr"), kOffsetsAt + 8, std::uint64_t{5});
  auto store = OnDemandCsr::Open(File("off.csr"));
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), Status::Code::kCorruption);
}

}  // namespace
}  // namespace ceci
