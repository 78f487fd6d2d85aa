// BFS query tree with tree edges (TE) and non-tree edges (NTE), paper §2.2.
//
// The tree fixes the shape of the CECI: every non-root query vertex stores
// TE candidates keyed by its tree parent's candidates, and one NTE candidate
// list per incident non-tree edge. The matching order must be a topological
// order of the tree (parent before child); the NTE parent/child roles derive
// from that order (§3.2: "the node appearing earlier in the matching order
// acts as the parent").
#ifndef CECI_CECI_QUERY_TREE_H_
#define CECI_CECI_QUERY_TREE_H_

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace ceci {

/// A query edge not on the BFS tree. `parent` precedes `child` in the
/// matching order.
struct NonTreeEdge {
  VertexId parent;
  VertexId child;
};

/// Immutable BFS tree over a connected query graph.
class QueryTree {
 public:
  /// Empty tree; usable only after assignment from Build().
  QueryTree() = default;

  /// Builds the BFS tree rooted at `root`. The default matching order is
  /// the BFS traversal order. Fails if the query is disconnected.
  static Result<QueryTree> Build(const Graph& query, VertexId root);

  /// Replaces the matching order. `order` must be a permutation of the
  /// query vertices that is a topological order of the tree (every vertex
  /// after its tree parent); NTE orientations are recomputed.
  Status SetMatchingOrder(std::vector<VertexId> order);

  VertexId root() const { return root_; }
  std::size_t num_vertices() const { return parent_.size(); }

  /// BFS traversal order (root first).
  const std::vector<VertexId>& bfs_order() const { return bfs_order_; }

  /// The matching (visit) order used for CECI construction & enumeration.
  const std::vector<VertexId>& matching_order() const {
    return matching_order_;
  }

  /// Position of u in the matching order.
  std::size_t order_position(VertexId u) const { return order_pos_[u]; }

  /// Tree parent of u; kInvalidVertex for the root.
  VertexId parent(VertexId u) const { return parent_[u]; }

  /// Tree children of u.
  std::span<const VertexId> children(VertexId u) const {
    return children_[u];
  }

  /// BFS depth of u (root = 0).
  std::size_t depth(VertexId u) const { return depth_[u]; }

  /// All non-tree edges, oriented by the current matching order.
  const std::vector<NonTreeEdge>& non_tree_edges() const { return ntes_; }

  /// Indices into non_tree_edges() whose child is u.
  std::span<const std::uint32_t> nte_in(VertexId u) const {
    return nte_in_[u];
  }

  /// Indices into non_tree_edges() whose parent is u.
  std::span<const std::uint32_t> nte_out(VertexId u) const {
    return nte_out_[u];
  }

  std::size_t num_tree_edges() const { return num_vertices() - 1; }
  std::size_t num_non_tree_edges() const { return ntes_.size(); }

 private:
  void ReorientNonTreeEdges();

  VertexId root_ = kInvalidVertex;
  std::vector<VertexId> bfs_order_;
  std::vector<VertexId> matching_order_;
  std::vector<std::size_t> order_pos_;
  std::vector<VertexId> parent_;
  std::vector<std::vector<VertexId>> children_;  // lint: not-per-key
  std::vector<std::size_t> depth_;
  std::vector<NonTreeEdge> ntes_;
  std::vector<std::vector<std::uint32_t>> nte_in_;
  std::vector<std::vector<std::uint32_t>> nte_out_;
};

}  // namespace ceci

#endif  // CECI_CECI_QUERY_TREE_H_
