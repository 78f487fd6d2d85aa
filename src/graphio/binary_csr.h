// Binary CSR graph file — the paper's shared-storage layout (§5).
//
// The paper's second distributed design keeps a single CSR copy of the
// data graph on a lustre file system; every machine holds only the
// beginning_position (offset) array in memory and fetches adjacency lists
// on demand. WriteBinaryCsr lays that file out. ReadBinaryCsr loads it
// resident as a Graph; OnDemandCsr opens it with offsets and labels
// resident and reads each adjacency list when asked, counting requests and
// bytes. Both readers share one header/section parser and validate what
// they read (docs/file_formats.md §4).
//
// File layout (little-endian):
//   header    : magic "CECI", version u32 (2), |V| u64, directed-edge
//               count u64, label-entry count u64
//   offsets   : (|V|+1) x u64        — the beginning_position array
//   labels    : per-vertex label runs (offsets u32 x (|V|+1), labels u32)
//   adjacency : directed-edge count x u32, sorted per vertex
#ifndef CECI_GRAPHIO_BINARY_CSR_H_
#define CECI_GRAPHIO_BINARY_CSR_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/nlc_index.h"
#include "util/status.h"

namespace ceci {

/// Serializes `g` to `path` in the binary CSR layout.
Status WriteBinaryCsr(const Graph& g, const std::string& path);

/// Loads a graph written by WriteBinaryCsr.
Result<Graph> ReadBinaryCsr(const std::string& path);

/// A WriteBinaryCsr file with offsets and labels resident and adjacency
/// lists fetched per request. It offers the read interface of Graph that
/// the filtering pipeline uses (Preprocess, NlcIndex, CeciBuilder), so a
/// CECI can be built with the graph never resident. Not thread-safe —
/// simulated machines own private instances, like independent lustre
/// clients.
class OnDemandCsr {
 public:
  /// Opens `path` and loads the resident sections.
  static Result<OnDemandCsr> Open(const std::string& path);

  OnDemandCsr(OnDemandCsr&&) = default;
  OnDemandCsr& operator=(OnDemandCsr&&) = default;

  std::size_t num_vertices() const { return offsets_.size() - 1; }
  std::size_t num_directed_edges() const { return offsets_.back(); }

  std::size_t degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Resident labels (no IO), as on Graph.
  std::span<const Label> labels(VertexId v) const { return labels_.of(v); }
  bool HasAllLabels(VertexId v, std::span<const Label> required) const {
    return labels_.HasAllLabels(v, required);
  }
  std::size_t num_labels() const { return labels_.num_labels(); }
  std::span<const VertexId> VerticesWithLabel(Label l) const {
    return labels_.VerticesWithLabel(l);
  }

  /// Reads v's sorted adjacency list from storage: one request and
  /// degree(v)*4 bytes. The span stays valid until the next call. A failed
  /// or invalid read yields an empty list and sets status().
  std::span<const VertexId> neighbors(VertexId v) const;

  /// OK, or the error of the first failed read.
  const Status& status() const { return status_; }

  /// Storage traffic so far.
  std::uint64_t requests() const { return requests_; }
  std::uint64_t bytes_read() const { return bytes_read_; }

 private:
  OnDemandCsr() = default;

  std::unique_ptr<std::ifstream> file_;
  std::uint64_t file_size_ = 0;
  std::uint64_t adjacency_base_ = 0;  // file offset of the adjacency section
  std::vector<std::uint64_t> offsets_;
  VertexLabels labels_;
  // Read state: neighbors() is logically const, like Graph's.
  mutable std::uint64_t position_ = 0;  // file position after the last read
  mutable std::vector<VertexId> buffer_;
  mutable Status status_;
  mutable std::uint64_t requests_ = 0;
  mutable std::uint64_t bytes_read_ = 0;
};

extern template NlcIndex::NlcIndex(const OnDemandCsr&);

}  // namespace ceci

#endif  // CECI_GRAPHIO_BINARY_CSR_H_
