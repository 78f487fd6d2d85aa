// Shared fixtures and helpers for the CECI test suite.
#ifndef CECI_TESTS_TEST_SUPPORT_H_
#define CECI_TESTS_TEST_SUPPORT_H_

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gen/labels.h"
#include "gen/random_graphs.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "util/logging.h"

namespace ceci::testing {

/// Builds a graph from explicit labels and edges; aborts on invalid input.
inline Graph MakeGraph(const std::vector<Label>& labels,
                       const std::vector<std::pair<VertexId, VertexId>>&
                           edges) {
  GraphBuilder builder;
  builder.ReserveVertices(labels.size());
  for (VertexId v = 0; v < labels.size(); ++v) builder.AddLabel(v, labels[v]);
  for (auto [u, v] : edges) builder.AddEdge(u, v);
  auto g = builder.Build();
  CECI_CHECK(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

/// An unlabeled graph (all label 0).
inline Graph MakeUnlabeled(std::size_t n,
                           const std::vector<std::pair<VertexId, VertexId>>&
                               edges) {
  return MakeGraph(std::vector<Label>(n, 0), edges);
}

/// `g` with every vertex id v renamed n-1-v (labels and edges follow).
/// Hubs of a preferential-attachment graph then sit at high ids instead
/// of low ones, which flips which automorphism-breaking direction is
/// cheaper.
inline Graph ReverseVertexIds(const Graph& g) {
  const VertexId n = static_cast<VertexId>(g.num_vertices());
  GraphBuilder builder;
  builder.ReserveVertices(n);
  for (VertexId v = 0; v < n; ++v) {
    for (Label l : g.labels(v)) builder.AddLabel(n - 1 - v, l);
  }
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId w : g.neighbors(v)) {
      if (v < w) builder.AddEdge(n - 1 - v, n - 1 - w);
    }
  }
  auto out = builder.Build();
  CECI_CHECK(out.ok()) << out.status().ToString();
  return std::move(out).value();
}

/// The data graphs of the golden tests (arena images, filter-once builds):
/// "er", "ba" or "social", optionally with 4 random labels. Their fixed
/// seeds are part of the recorded values.
inline Graph GoldenDataGraph(const std::string& family, bool labeled) {
  Graph g = family == "er"   ? GenerateErdosRenyi(500, 3000, 11)
            : family == "ba" ? GenerateBarabasiAlbert(500, 4, 12)
                             : GenerateSocialGraph(600, 6, 13);
  return labeled ? AssignRandomLabels(g, 4, 14) : g;
}

/// A 1500-vertex social graph, one label per vertex from {0..7} and
/// {64..71}: label l + 64 shares neighbour-label mask bit l with label l
/// (NlcIndex::mask), and with 72 labels the mask alone never decides NLC.
inline Graph FoldedLabelGraph() {
  const Graph g = AssignRandomLabels(GenerateSocialGraph(1500, 5, 31), 16, 32);
  GraphBuilder builder;
  builder.ReserveVertices(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const Label l = g.label(v);
    builder.AddLabel(v, l < 8 ? l : l + 56);
    for (VertexId w : g.neighbors(v)) {
      if (v < w) builder.AddEdge(v, w);
    }
  }
  auto out = builder.Build();
  CECI_CHECK(out.ok()) << out.status().ToString();
  return std::move(out).value();
}

/// The paper's running example (Figures 1 and 3), reconstructed from the
/// narration in §2-§3. Vertices are 0-based: paper's v1 is vertex 0.
/// Labels: A=0 (v1,v2), B=1 (v3,v5,v7,v9), C=2 (v4,v6,v8,v10),
/// D=3 (v11,v13,v15), E=4 (v12,v14).
struct PaperExample {
  /// Query u1..u5 = vertices 0..4, labels A,B,C,D,E; edges u1-u2, u1-u3,
  /// u2-u3, u2-u4, u3-u4, u3-u5.
  static Graph Query() {
    return MakeGraph({0, 1, 2, 3, 4},
                     {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {2, 4}});
  }

  static Graph Data() {
    // v(k) in the paper is vertex k-1 here.
    auto V = [](int k) { return static_cast<VertexId>(k - 1); };
    std::vector<Label> labels(15, 0);
    labels[V(1)] = 0;  // A
    labels[V(2)] = 0;
    labels[V(3)] = 1;  // B
    labels[V(5)] = 1;
    labels[V(7)] = 1;
    labels[V(9)] = 1;
    labels[V(4)] = 2;  // C
    labels[V(6)] = 2;
    labels[V(8)] = 2;
    labels[V(10)] = 2;
    labels[V(11)] = 3;  // D
    labels[V(13)] = 3;
    labels[V(15)] = 3;
    labels[V(12)] = 4;  // E
    labels[V(14)] = 4;
    std::vector<std::pair<VertexId, VertexId>> edges = {
        // A-B
        {V(1), V(3)}, {V(1), V(5)}, {V(1), V(7)}, {V(2), V(7)}, {V(2), V(9)},
        // A-C
        {V(1), V(4)}, {V(1), V(6)}, {V(2), V(8)},
        // B-C (candidates of the non-tree edge u2-u3)
        {V(3), V(4)}, {V(5), V(4)}, {V(5), V(6)}, {V(7), V(6)}, {V(7), V(8)},
        // B-D (u2-u4 tree edge)
        {V(3), V(11)}, {V(5), V(13)}, {V(7), V(15)}, {V(9), V(15)},
        // B-C filler giving v9 a C neighbor
        {V(9), V(10)},
        // C-D (u3-u4 non-tree edge)
        {V(4), V(11)}, {V(6), V(13)}, {V(8), V(15)}, {V(8), V(10)},
        // C-E (u3-u5 tree edge)
        {V(4), V(12)}, {V(6), V(14)},
    };
    return MakeGraph(labels, edges);
  }

  /// The two embeddings the paper lists: (v1,v3,v4,v11,v12) and
  /// (v1,v5,v6,v13,v14), as mappings indexed by query vertex.
  static std::set<std::vector<VertexId>> ExpectedEmbeddings() {
    auto V = [](int k) { return static_cast<VertexId>(k - 1); };
    return {{V(1), V(3), V(4), V(11), V(12)},
            {V(1), V(5), V(6), V(13), V(14)}};
  }
};

/// Canonical set-of-mappings collector for visitor-based tests.
class EmbeddingCollector {
 public:
  bool operator()(std::span<const VertexId> mapping) {
    embeddings_.emplace_back(mapping.begin(), mapping.end());
    return true;
  }

  std::set<std::vector<VertexId>> AsSet() const {
    return {embeddings_.begin(), embeddings_.end()};
  }
  const std::vector<std::vector<VertexId>>& raw() const { return embeddings_; }

 private:
  std::vector<std::vector<VertexId>> embeddings_;
};

}  // namespace ceci::testing

#endif  // CECI_TESTS_TEST_SUPPORT_H_
