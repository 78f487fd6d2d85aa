#include "graph/graph.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/intersection.h"

namespace ceci {

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (degree(u) > degree(v)) std::swap(u, v);
  auto adj = neighbors(u);
  return std::binary_search(adj.begin(), adj.end(), v);
}

VertexLabels::VertexLabels(std::vector<std::uint32_t> offsets,
                           std::vector<Label> labels)
    : offsets_(std::move(offsets)), labels_(std::move(labels)) {
  Label max_label = 0;
  for (Label l : labels_) max_label = std::max(max_label, l);
  num_labels_ = static_cast<std::size_t>(max_label) + 1;

  // Inverted index: vertices grouped by each label they carry.
  index_offsets_.assign(num_labels_ + 1, 0);
  for (Label l : labels_) index_offsets_[l + std::size_t{1}]++;
  for (std::size_t l = 0; l < num_labels_; ++l) {
    index_offsets_[l + 1] += index_offsets_[l];
  }
  index_.resize(labels_.size());
  std::vector<EdgeId> cursor(index_offsets_.begin(), index_offsets_.end() - 1);
  const std::size_t n = offsets_.size() - 1;
  for (VertexId v = 0; v < n; ++v) {
    for (Label l : of(v)) index_[cursor[l]++] = v;
  }
}

bool VertexLabels::HasLabel(VertexId v, Label l) const {
  auto ls = of(v);
  return std::binary_search(ls.begin(), ls.end(), l);
}

bool VertexLabels::HasAllLabels(VertexId v,
                                std::span<const Label> required) const {
  auto ls = of(v);
  // Both sorted; subset test by merge.
  std::size_t i = 0;
  for (Label need : required) {
    while (i < ls.size() && ls[i] < need) ++i;
    if (i == ls.size() || ls[i] != need) return false;
  }
  return true;
}

std::span<const VertexId> VertexLabels::VerticesWithLabel(Label l) const {
  if (l >= num_labels_) return {};
  return {index_.data() + index_offsets_[l],
          index_.data() + index_offsets_[l + 1]};
}

std::size_t VertexLabels::MemoryBytes() const {
  return offsets_.size() * sizeof(std::uint32_t) +
         labels_.size() * sizeof(Label) +
         index_offsets_.size() * sizeof(EdgeId) +
         index_.size() * sizeof(VertexId);
}

std::string Graph::Summary() const {
  std::ostringstream os;
  os << "|V|=" << num_vertices() << " |E|=" << num_edges()
     << " labels=" << num_labels() << " max_deg=" << max_degree_;
  return os.str();
}

std::size_t Graph::MemoryBytes() const {
  return offsets_.size() * sizeof(EdgeId) +
         neighbors_.size() * sizeof(VertexId) + labels_.MemoryBytes();
}

}  // namespace ceci
