// In-memory labeled graph in CSR form with sorted adjacency lists.
//
// This single representation serves both data graphs and query graphs
// (paper §2.1): vertices carry one or more labels; adjacency is undirected
// (directed inputs are symmetrized at build time, matching the paper's
// treatment of directed data graphs for undirected query matching).
#ifndef CECI_GRAPH_GRAPH_H_
#define CECI_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"

namespace ceci {

/// Resident vertex labels: each vertex's sorted label run and the inverted
/// index grouping vertices by label. A Graph holds one, and so does the
/// on-demand CSR store (graphio/binary_csr.h), whose adjacency lives in
/// storage but whose labels stay in memory.
class VertexLabels {
 public:
  VertexLabels() = default;

  /// `offsets` (|V|+1 entries) delimits each vertex's non-empty, sorted
  /// run in `labels`; builds the inverted index over them.
  VertexLabels(std::vector<std::uint32_t> offsets, std::vector<Label> labels);

  std::span<const Label> of(VertexId v) const {
    return {labels_.data() + offsets_[v], labels_.data() + offsets_[v + 1]};
  }

  bool HasLabel(VertexId v, Label l) const;
  bool HasAllLabels(VertexId v, std::span<const Label> required) const;

  /// Max label value + 1.
  std::size_t num_labels() const { return num_labels_; }

  /// Sorted list of vertices carrying label l.
  std::span<const VertexId> VerticesWithLabel(Label l) const;

  std::size_t MemoryBytes() const;

 private:
  std::vector<std::uint32_t> offsets_;      // size |V|+1
  std::vector<Label> labels_;               // concatenated sorted runs
  std::vector<EdgeId> index_offsets_;       // size num_labels_+1
  std::vector<VertexId> index_;             // vertices grouped by label
  std::size_t num_labels_ = 0;
};

/// Immutable labeled graph. Construct through GraphBuilder.
class Graph {
 public:
  Graph() = default;

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Number of vertices.
  std::size_t num_vertices() const { return offsets_.size() - 1; }

  /// Number of undirected edges (each stored twice internally).
  std::size_t num_edges() const { return neighbors_.size() / 2; }

  /// Number of directed adjacency entries (2 * num_edges()).
  std::size_t num_directed_edges() const { return neighbors_.size(); }

  /// Degree of v.
  std::size_t degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Sorted, duplicate-free neighbor list of v.
  std::span<const VertexId> neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  /// True iff (u, v) is an edge; O(log degree(min)).
  bool HasEdge(VertexId u, VertexId v) const;

  /// Labels of v, sorted ascending. Most vertices have exactly one.
  std::span<const Label> labels(VertexId v) const { return labels_.of(v); }

  /// First (primary) label of v.
  Label label(VertexId v) const { return labels_.of(v)[0]; }

  /// True iff v carries label l.
  bool HasLabel(VertexId v, Label l) const { return labels_.HasLabel(v, l); }

  /// True iff every label in `required` is carried by v
  /// (the L_q(u) ⊆ L(f(u)) containment of §2.1).
  bool HasAllLabels(VertexId v, std::span<const Label> required) const {
    return labels_.HasAllLabels(v, required);
  }

  /// Number of distinct labels in the graph (max label value + 1).
  std::size_t num_labels() const { return labels_.num_labels(); }

  /// Sorted list of vertices carrying label l (inverted label index).
  std::span<const VertexId> VerticesWithLabel(Label l) const {
    return labels_.VerticesWithLabel(l);
  }

  /// Maximum vertex degree.
  std::size_t max_degree() const { return max_degree_; }

  /// Human-readable one-line summary: |V|, |E|, labels, max degree.
  std::string Summary() const;

  /// Approximate heap footprint in bytes (CSR + labels + label index).
  std::size_t MemoryBytes() const;

 private:
  friend class GraphBuilder;
  // Test-only backdoor for planting CSR corruption (invariant-auditor
  // negative tests); never referenced by library code.
  friend class GraphTestPeer;

  std::vector<EdgeId> offsets_;        // size |V|+1
  std::vector<VertexId> neighbors_;    // size 2|E|, sorted per vertex
  VertexLabels labels_;
  std::size_t max_degree_ = 0;
};

}  // namespace ceci

#endif  // CECI_GRAPH_GRAPH_H_
