// Deep structural validation of CECI runtime state.
//
// The index and enumeration layers lean on unstated invariants — sorted
// candidate lists, TE/NTE candidate edges backed by real data-graph edges
// (§3.1), the empty-key cascade of Algorithm 1, injectivity bitsets
// mirroring the partial mapping — exactly the places where a silent memory
// or ordering bug corrupts embedding counts without crashing. The auditor
// re-derives every one of those invariants from first principles and
// returns a structured violation report instead of aborting, so tests can
// assert on the exact violation class and operators can run it on demand
// (`ceci_query --audit`).
//
// The full invariant catalog lives in docs/static_analysis.md. Audits are
// read-only and allocation-light, and read the index through the frozen
// arena every consumer reads (PreparedQuery::flat); they are O(index size
// × log degree) — far too slow for per-query production use, exactly right
// for debug runs and CI.
#ifndef CECI_ANALYSIS_INVARIANT_AUDITOR_H_
#define CECI_ANALYSIS_INVARIANT_AUDITOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ceci/enumerator.h"
#include "ceci/flat_index.h"
#include "ceci/extreme_cluster.h"
#include "ceci/profiler.h"
#include "ceci/query_tree.h"
#include "ceci/stats.h"
#include "graph/graph.h"

namespace ceci {

/// Everything the auditor knows how to violate. Stable names via
/// InvariantClassName(); tests assert on these classes.
enum class InvariantClass {
  // -- Graph (CSR + label tables) --
  kGraphAdjacencyUnsorted,    // neighbor list not strictly ascending
  kGraphAdjacencyOutOfRange,  // neighbor id >= |V| or self-loop
  kGraphAsymmetricEdge,       // (u,v) stored without (v,u)
  kGraphLabelTable,           // per-vertex label list empty/unsorted/oob
  kGraphLabelIndex,           // inverted label index inconsistent
  kGraphDegreeSummary,        // max_degree / edge-count accounting wrong

  // -- CECI (§3.1), read from the arena --
  kIndexShape,              // query graph inconsistent with the tree
  kCandidatesUnsorted,      // candidate set not strictly ascending
  kCandidateOutOfRange,     // candidate id >= |V_data|
  kCandidateFilterViolation,  // candidate fails the label/degree filter
  kNlcfViolation,           // candidate fails the NLC filter (§3.2)
  kListUnsorted,            // NTE keys or a value set not strictly sorted
  kNteKeyNotParentCandidate,  // NTE key dead in the NTE parent's set
  kValueNotCandidate,       // stored value dead in the child's candidate set
  kDanglingCandidateEdge,   // (key, value) is not an edge of the data graph
  kEmptyKeyCascade,         // TE list not one entry per parent candidate,
                            // or an empty value set (Alg. 1 lines 9-12)
  kCardinalityShape,        // cardinalities missing or zero

  // -- FlatCeciIndex (arena layout; ceci/flat_index.h) --
  kFlatOffsetBounds,    // a vertex/list/entry offset range escapes its slab
  kFlatSlabOrder,       // slab table out of canonical order, misaligned,
                        // overlapping, or outside the arena
  kFlatRepresentation,  // hybrid entry inconsistent: bitmap popcount !=
                        // count, rank >= cand_count, unsorted ranks/keys,
                        // bitmap_words wrong, or the vertex metas disagree
                        // with the tree

  // -- Enumerator state --
  kInjectivityBitset,  // used-bitset out of sync with the partial mapping

  // -- Scheduler / cluster decomposition --
  kWorkUnitInvalid,  // prefix is not a valid partial embedding
  kClusterOverlap,   // two work units enumerate a common embedding
  kClusterGap,       // embeddings no work unit covers

  // -- Query profiler --
  kProfileMismatch,  // QueryProfile disagrees with the refined index it
                     // claims to describe (candidate counts, TE sizes,
                     // measured bytes)

  // -- Termination accounting (resilient execution layer) --
  kTerminationAccounting,  // MatchResult::termination inconsistent with
                           // the budget flags, or per-worker embedding
                           // counts don't sum to the reported total

  // -- Cross-process distributed accounting (dist::AuditDistRun) --
  kDistAccounting,  // a work unit counted zero or multiple times, a
                    // redelivery whose origin never crashed, per-worker
                    // embedding sums off, or the at-most-once cluster
                    // re-adoption count inconsistent with orphan events
};

/// Stable lower_snake name of a violation class (for reports and tests).
const char* InvariantClassName(InvariantClass c);

struct Violation {
  InvariantClass cls;
  std::string detail;  // human-readable, with the offending ids
};

/// Outcome of one audit. Violations past `max_violations` (AuditOptions)
/// are counted but not stored, keeping corrupt-everything cases bounded.
struct AuditReport {
  std::vector<Violation> violations;
  std::size_t total_violations = 0;  // including unrecorded overflow
  std::size_t checks_run = 0;        // individual invariant evaluations
  std::size_t max_recorded = 64;

  bool ok() const { return total_violations == 0; }
  void Add(InvariantClass cls, std::string detail);
  std::size_t CountOf(InvariantClass cls) const;
  /// "audit OK (N checks)" or one line per recorded violation.
  std::string ToString() const;
  /// Folds `other` into this report (summing counters).
  void Merge(const AuditReport& other);
};

struct AuditOptions {
  /// Re-verify every candidate against the label/degree/NLC filters.
  /// Skip when the index was built with externally injected root
  /// candidates that never went through the filters.
  bool check_filters = true;
  /// Cap on stored violations (total counts keep accumulating).
  std::size_t max_recorded = 64;
};

/// Audits the CSR, label tables, and inverted label index of `g`.
AuditReport AuditGraph(const Graph& g);

/// Audits a frozen CECI against the data graph, query graph, and query
/// tree it was built from: the arena layout first (AuditFlatIndex), then —
/// when every offset stays inside its slab — the index itself: sorted,
/// in-range candidates that pass the label/degree/NLC filters, positive
/// cardinalities, TE/NTE keys that are parent candidates and ascend, value
/// sets that are non-empty, sorted, made of the child's candidates and
/// backed by data-graph edges, and the empty-key cascade.
AuditReport AuditCeciIndex(const Graph& data, const Graph& query,
                           const QueryTree& tree, const FlatCeciIndex& flat,
                           const AuditOptions& options = {});

/// Checks that `used_bits` (64-bit blocks, bit v set = data vertex v used)
/// is exactly the set of data vertices present in `mapping` (entries equal
/// to kInvalidVertex are unmatched). Appends to `report`.
void AuditInjectivity(std::span<const VertexId> mapping,
                      std::span<const std::uint64_t> used_bits,
                      AuditReport* report);

/// Audits an Enumerator's injectivity state (bitset vs mapping snapshot).
/// Safe at any point the enumerator is quiescent — including from inside
/// an embedding visitor, where the mapping is fully instantiated.
void AuditEnumeratorState(const Enumerator& enumerator, AuditReport* report);

/// Checks that `units` (as produced by DecomposeRootOrder with the same
/// `enum_options`) partition the embedding space: prefixes are valid
/// partial embeddings, no unit's subtree contains another's (disjoint),
/// and together they cover every embedding of every pivot (exhaustive).
void AuditWorkUnits(const Graph& data, const QueryTree& tree,
                    const FlatCeciIndex& index,
                    const EnumOptions& enum_options,
                    std::span<const WorkUnit> units, AuditReport* report);

/// Audits a root order (PreparedQuery::root_order) as the pool ST and CGD
/// enumerate: one unit per entry, holding the root candidate at that rank,
/// checked by AuditWorkUnits. A dropped live root is a kClusterGap, a
/// repeated one a kClusterOverlap, and a rank past the root's candidates a
/// kWorkUnitInvalid.
void AuditRootOrder(const Graph& data, const QueryTree& tree,
                    const FlatCeciIndex& index,
                    const EnumOptions& enum_options,
                    std::span<const std::uint32_t> root_order,
                    AuditReport* report);

/// Audits the arena layout of a frozen flat index against the query tree
/// it claims to serve. Runs the CEIX loader's layout check
/// (FlatCeciIndex::CheckLayout) to the end, reporting its slab-order,
/// offset-bounds and representation faults as kFlatSlabOrder,
/// kFlatOffsetBounds and kFlatRepresentation; then checks what only the
/// tree knows, as kFlatRepresentation: the stored matching order is the
/// tree's, and each vertex has one NTE list per incoming non-tree edge.
/// A corrupt offset is reported, never followed. Appends to `report`.
void AuditFlatIndex(const QueryTree& tree, const FlatCeciIndex& flat,
                    AuditReport* report);

/// Cross-checks a QueryProfile against the frozen index it was collected
/// from (PreparedQuery::flat): per-vertex refined candidate counts must
/// equal the actual candidate-set sizes, TE/NTE key, edge and byte counts
/// must equal FlatCeciIndex::MemoryFootprint, and the profile's byte totals
/// must equal their sum. Every mismatch reports kProfileMismatch. Appends
/// to `report`.
void AuditQueryProfile(const QueryTree& tree, const FlatCeciIndex& flat,
                       const QueryProfile& profile, AuditReport* report);

/// Checks the termination accounting of a finished Match(): the labelled
/// TerminationReason must agree with the budget flags (kCompleted implies
/// none set; kDeadline/kMemoryBudget/kCancelled imply exactly the matching
/// flag), the top-level embedding count must equal the enumeration stats,
/// and — when per-worker counts were collected — the per-worker embedding
/// counts must sum to it. Every mismatch reports kTerminationAccounting.
/// Appends to `report`.
void AuditMatchResult(const MatchResult& result, AuditReport* report);

}  // namespace ceci

#endif  // CECI_ANALYSIS_INVARIANT_AUDITOR_H_
