#include "graph/graph_builder.h"

#include <algorithm>
#include <utility>

namespace ceci {

void GraphBuilder::ReserveVertices(std::size_t n) {
  num_vertices_ = std::max(num_vertices_, n);
}

void GraphBuilder::AddLabel(VertexId v, Label l) {
  num_vertices_ = std::max<std::size_t>(num_vertices_, v + 1);
  labels_.emplace_back(v, l);
}

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  if (u == v) return;
  num_vertices_ = std::max<std::size_t>(num_vertices_,
                                        std::max(u, v) + std::size_t{1});
  edges_.emplace_back(u, v);
}

Result<Graph> GraphBuilder::Build() {
  if (num_vertices_ == 0) {
    return Status::InvalidArgument("graph has no vertices");
  }
  const std::size_t n = num_vertices_;

  // Symmetrize, sort, dedupe adjacency.
  std::vector<std::pair<VertexId, VertexId>> directed;
  directed.reserve(edges_.size() * 2);
  for (auto [u, v] : edges_) {
    directed.emplace_back(u, v);
    directed.emplace_back(v, u);
  }
  std::sort(directed.begin(), directed.end());
  directed.erase(std::unique(directed.begin(), directed.end()),
                 directed.end());

  Graph g;
  g.offsets_.assign(n + 1, 0);
  for (auto [u, v] : directed) g.offsets_[u + 1]++;
  for (std::size_t i = 0; i < n; ++i) g.offsets_[i + 1] += g.offsets_[i];
  g.neighbors_.resize(directed.size());
  {
    std::vector<EdgeId> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
    for (auto [u, v] : directed) g.neighbors_[cursor[u]++] = v;
  }

  // Labels: sort by (vertex, label), dedupe; default label 0 for unlabeled.
  std::sort(labels_.begin(), labels_.end());
  labels_.erase(std::unique(labels_.begin(), labels_.end()), labels_.end());
  std::vector<std::uint32_t> label_offsets(n + 1, 0);
  std::vector<Label> vertex_labels;
  {
    std::size_t li = 0;
    for (std::size_t v = 0; v < n; ++v) {
      std::size_t begin = vertex_labels.size();
      while (li < labels_.size() && labels_[li].first == v) {
        vertex_labels.push_back(labels_[li].second);
        ++li;
      }
      if (vertex_labels.size() == begin) {
        vertex_labels.push_back(0);  // default label
      }
      label_offsets[v + 1] = static_cast<std::uint32_t>(vertex_labels.size());
    }
  }
  g.labels_ = VertexLabels(std::move(label_offsets), std::move(vertex_labels));

  g.max_degree_ = 0;
  for (std::size_t v = 0; v < n; ++v) {
    g.max_degree_ = std::max(g.max_degree_, g.degree(static_cast<VertexId>(v)));
  }

  num_vertices_ = 0;
  edges_.clear();
  labels_.clear();
  return g;
}

}  // namespace ceci
