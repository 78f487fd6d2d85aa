// Unit tests for SNAP edge-list and binary CSR I/O.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "graphio/binary_csr.h"
#include "graphio/edge_list.h"
#include "test_support.h"

namespace ceci {
namespace {

using ::ceci::testing::MakeGraph;

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("ceci_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }

  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

TEST(EdgeListTest, ParsesSnapFormat) {
  auto g = ParseEdgeList("# comment line\n0 1\n1 2\n2 0\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->num_edges(), 3u);
  EXPECT_TRUE(g->HasEdge(0, 2));
}

TEST(EdgeListTest, SkipsBlankAndPercentComments) {
  auto g = ParseEdgeList("% header\n\n0 1\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1u);
}

TEST(EdgeListTest, TabSeparated) {
  auto g = ParseEdgeList("0\t1\n1\t2\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
}

TEST(EdgeListTest, RejectsMalformedLine) {
  auto g = ParseEdgeList("0 1\n0 1 2\n");
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), Status::Code::kCorruption);
}

TEST(EdgeListTest, RejectsNonNumeric) {
  auto g = ParseEdgeList("a b\n");
  EXPECT_FALSE(g.ok());
}

TEST(EdgeListTest, RejectsEmptyInput) {
  auto g = ParseEdgeList("# nothing\n");
  EXPECT_FALSE(g.ok());
}

TEST(EdgeListTest, MissingFileIsIoError) {
  auto g = ReadEdgeList("/nonexistent/path/graph.txt");
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), Status::Code::kIoError);
}

TEST(LabeledGraphTest, ParsesVertexAndEdgeRecords) {
  auto g = ParseLabeledGraph("v 0 3\nv 1 5\nv 2 3\ne 0 1\ne 1 2\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->label(0), 3u);
  EXPECT_EQ(g->label(1), 5u);
  EXPECT_TRUE(g->HasEdge(1, 2));
}

TEST(LabeledGraphTest, MultiLabelVertices) {
  auto g = ParseLabeledGraph("v 0 1 2 3\nv 1 0\ne 0 1\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->labels(0).size(), 3u);
}

TEST(LabeledGraphTest, IgnoresTransactionHeader) {
  auto g = ParseLabeledGraph("t # 0\nv 0 1\nv 1 1\ne 0 1\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 2u);
}

TEST(LabeledGraphTest, RejectsUnknownRecord) {
  auto g = ParseLabeledGraph("x 0 1\n");
  EXPECT_FALSE(g.ok());
}

TEST(LabeledGraphTest, RoundTripsThroughFile) {
  TempDir dir;
  Graph original = MakeGraph({2, 3, 2, 7}, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  ASSERT_TRUE(WriteLabeledGraph(original, dir.File("g.txt")).ok());
  auto loaded = ReadLabeledGraph(dir.File("g.txt"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_vertices(), original.num_vertices());
  EXPECT_EQ(loaded->num_edges(), original.num_edges());
  for (VertexId v = 0; v < original.num_vertices(); ++v) {
    EXPECT_EQ(loaded->label(v), original.label(v));
    auto a = original.neighbors(v);
    auto b = loaded->neighbors(v);
    EXPECT_EQ(std::vector<VertexId>(a.begin(), a.end()),
              std::vector<VertexId>(b.begin(), b.end()));
  }
}

TEST(BinaryCsrTest, RoundTrips) {
  TempDir dir;
  Graph original =
      MakeGraph({1, 2, 1, 4, 0}, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});
  ASSERT_TRUE(WriteBinaryCsr(original, dir.File("g.bin")).ok());
  auto loaded = ReadBinaryCsr(dir.File("g.bin"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_vertices(), original.num_vertices());
  EXPECT_EQ(loaded->num_edges(), original.num_edges());
  for (VertexId v = 0; v < original.num_vertices(); ++v) {
    EXPECT_EQ(loaded->label(v), original.label(v));
    EXPECT_EQ(loaded->degree(v), original.degree(v));
  }
}

TEST(BinaryCsrTest, RejectsBadMagic) {
  TempDir dir;
  std::ofstream out(dir.File("bad.bin"), std::ios::binary);
  out << "NOTCECI_GARBAGE_PADDING_TO_HEADER_SIZE_________";
  out.close();
  auto loaded = ReadBinaryCsr(dir.File("bad.bin"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST(BinaryCsrTest, RejectsTruncatedFile) {
  TempDir dir;
  std::ofstream out(dir.File("short.bin"), std::ios::binary);
  out << "CE";
  out.close();
  auto loaded = ReadBinaryCsr(dir.File("short.bin"));
  EXPECT_FALSE(loaded.ok());
}

TEST(BinaryCsrTest, LabelCountBeyondFileIsCorruption) {
  // The header's label-entry count (bytes 24..31) claims 2^62 entries; the
  // reader must refuse it before allocating.
  TempDir dir;
  const std::string path = dir.File("labels.bin");
  ASSERT_TRUE(
      WriteBinaryCsr(MakeGraph({0, 1, 2, 3}, {{0, 1}, {1, 2}, {2, 3}}), path)
          .ok());
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(24);
  const std::uint64_t huge = std::uint64_t{1} << 62;
  f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  f.close();
  auto loaded = ReadBinaryCsr(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST(BinaryCsrTest, MissingFileIsIoError) {
  auto loaded = ReadBinaryCsr("/nonexistent/g.bin");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kIoError);
}

}  // namespace
}  // namespace ceci
