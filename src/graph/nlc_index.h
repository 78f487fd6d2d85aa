// Neighborhood Label Count index.
//
// The NLC filter (paper §3.2) requires, for every candidate data vertex v
// and query vertex u, that count_v(l) >= count_u(l) for each label l in u's
// neighborhood. This index precomputes count_v(l) for every data vertex as
// sorted (label, count) runs so the check is a merge over two tiny sorted
// lists instead of an adjacency rescan per candidate.
//
// Beside the runs it keeps one 64-bit neighbour-label mask per vertex, bit
// l mod 64 set for each label in the neighbourhood (after l2Match's
// neighbouring-label index). A requirement's own mask must be a subset of
// it: labels folded onto one bit can only make that test pass more often,
// so a vertex it rejects fails the merge too. Where presence decides --
// no label reaches 64 and every required count is 1 -- the mask test is
// the whole verdict and the merge is skipped (PresenceDecides).
#ifndef CECI_GRAPH_NLC_INDEX_H_
#define CECI_GRAPH_NLC_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace ceci {

/// Per-vertex neighborhood label counts.
class NlcIndex {
 public:
  struct Entry {
    Label label;
    std::uint32_t count;
  };

  NlcIndex() = default;

  /// Builds the index for `g`. O(sum of degrees * labels per vertex).
  /// `Source` is a resident Graph or an OnDemandCsr (graphio/binary_csr.h),
  /// which this pass reads once, one adjacency list per vertex; check the
  /// store's status() afterwards.
  template <typename Source>
  explicit NlcIndex(const Source& g);

  /// Sorted-by-label (label, count) entries for vertex v.
  std::span<const Entry> entries(VertexId v) const {
    return {entries_.data() + offsets_[v], entries_.data() + offsets_[v + 1]};
  }

  /// True iff for every (l, c) in `required`, v has at least c neighbors
  /// with label l.
  bool Covers(VertexId v, std::span<const Entry> required) const;

  /// Bit l mod 64 set for each label l among v's neighbours.
  std::uint64_t mask(VertexId v) const { return masks_[v]; }

  /// The mask of the labels `required` names, folded as mask() folds them.
  static std::uint64_t MaskOf(std::span<const Entry> required);

  /// True iff `(mask(v) & MaskOf(required)) == MaskOf(required)` is
  /// exactly Covers(v, required) for every v: no label of the graph or of
  /// `required` folds onto another's bit, and every required count is 1.
  bool PresenceDecides(std::span<const Entry> required) const;

  std::size_t MemoryBytes() const {
    return offsets_.size() * sizeof(EdgeId) + entries_.size() * sizeof(Entry) +
           masks_.size() * sizeof(std::uint64_t);
  }

  /// Computes the (label, count) profile of a single vertex's neighborhood
  /// without an index; used for query vertices.
  static std::vector<Entry> Profile(const Graph& g, VertexId v);

 private:
  static constexpr std::size_t kMaskBits = 64;

  std::vector<EdgeId> offsets_;
  std::vector<Entry> entries_;
  std::vector<std::uint64_t> masks_;
  std::size_t num_labels_ = 0;
};

template <typename Source>
NlcIndex::NlcIndex(const Source& g) {
  const std::size_t n = g.num_vertices();
  offsets_.assign(n + 1, 0);
  masks_.assign(n, 0);
  num_labels_ = g.num_labels();
  // One dense counter per label; `touched` lists the labels a vertex's
  // neighborhood raised from zero, so resetting costs only those slots.
  std::vector<std::uint32_t> count(g.num_labels(), 0);
  std::vector<Label> touched;
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId w : g.neighbors(v)) {
      for (Label l : g.labels(w)) {
        if (count[l]++ == 0) touched.push_back(l);
      }
    }
    std::sort(touched.begin(), touched.end());
    std::uint64_t mask = 0;
    for (Label l : touched) {
      entries_.push_back(Entry{l, count[l]});
      count[l] = 0;
      mask |= std::uint64_t{1} << (l % kMaskBits);
    }
    masks_[v] = mask;
    touched.clear();
    offsets_[v + 1] = entries_.size();
  }
  // No shrink_to_fit: the tail past size() is never written, so it costs
  // address space rather than memory, and the extra copy and free measured
  // 6 MB more peak RSS over eight 200k-vertex graphs loaded in turn (glibc
  // then placed the next graph's load temporaries less compactly).
}

extern template NlcIndex::NlcIndex(const Graph&);

}  // namespace ceci

#endif  // CECI_GRAPH_NLC_INDEX_H_
