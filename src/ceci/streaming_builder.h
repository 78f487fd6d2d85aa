// Out-of-core CECI construction (§5, second distributed design, made
// physical).
//
// In the paper's shared-storage mode a machine holds only the
// beginning_position array (plus, here, labels and precomputed NLC runs)
// in memory and fetches adjacency lists from the lustre-resident CSR on
// demand while creating its CECI. StreamingCeciBuilder implements that
// path against a real `OnDemandCsr` file: every frontier expansion is one
// counted storage read. The produced index is bit-identical to the
// in-memory `CeciBuilder`'s (asserted in tests), and since refinement and
// intersection-based enumeration never touch the data graph, a full
// match can run without the graph ever being resident.
#ifndef CECI_CECI_STREAMING_BUILDER_H_
#define CECI_CECI_STREAMING_BUILDER_H_

#include <vector>

#include "ceci/ceci_builder.h"
#include "ceci/ceci_index.h"
#include "ceci/query_tree.h"
#include "graph/graph.h"
#include "graph/nlc_index.h"
#include "graphio/csr_store.h"
#include "util/status.h"

namespace ceci {

/// Builds CECIs from an on-demand CSR store.
class StreamingCeciBuilder {
 public:
  /// Wraps `store` (not owned; must outlive the builder).
  explicit StreamingCeciBuilder(OnDemandCsr* store);

  /// One-time resident preparation: the label→vertices index and the NLC
  /// runs, computed with a single streaming pass over the adjacency
  /// section (the store counts its IO). Idempotent.
  Status PrepareResidentIndexes();

  /// Candidate set of one query vertex under the LDF+NLC filters (used
  /// for the root pivots; mirrors Preprocessed::root_candidates).
  std::vector<VertexId> CollectRootCandidates(const Graph& query,
                                              VertexId u) const;

  /// Runs Algorithm 1 + NTE construction reading adjacency on demand.
  /// `root_candidates`, when non-null, restricts the pivots (per-machine
  /// builds). Requires PrepareResidentIndexes() to have succeeded.
  Result<CeciIndex> Build(const Graph& query, const QueryTree& tree,
                          const std::vector<VertexId>* root_candidates,
                          BuildStats* stats);

  /// Storage traffic so far (delegates to the store).
  std::uint64_t requests() const { return store_->requests(); }
  std::uint64_t bytes_read() const { return store_->bytes_read(); }

 private:
  bool PassesFilters(const Graph& query, VertexId u,
                     std::span<const NlcIndex::Entry> profile,
                     VertexId v) const;

  std::span<const NlcIndex::Entry> NlcOf(VertexId v) const {
    return {nlc_entries_.data() + nlc_offsets_[v],
            nlc_entries_.data() + nlc_offsets_[v + 1]};
  }

  OnDemandCsr* store_;
  bool prepared_ = false;
  // Resident label→vertices buckets (CSR over labels).
  std::vector<std::uint64_t> bucket_offsets_;
  std::vector<VertexId> bucket_vertices_;
  std::size_t num_labels_ = 0;
  // Resident NLC runs.
  std::vector<std::uint64_t> nlc_offsets_;
  std::vector<NlcIndex::Entry> nlc_entries_;
};

}  // namespace ceci

#endif  // CECI_CECI_STREAMING_BUILDER_H_
