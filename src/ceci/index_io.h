// CECI index persistence — the flat arena IS the on-disk format.
//
// §6.4 notes that for graphs whose CECI exceeds memory the authors "plan
// to store it in non-volatile memory". This module provides the storage
// half of that plan: a frozen FlatCeciIndex serializes as one versioned
// image — fixed header, slab table, the arena verbatim, then the pattern
// text it was built for, with the query plan it was built under — and
// loads back either by copying (owned arena)
// or by mmap (ceci_serve --index), where enumeration reads the mapped
// pages directly and every process serving the same file shares one
// physical copy.
//
// File layout (all little-endian, offsets from file start):
//
//   [0,  104)  Header     magic "CEIX", version 4, counts, offsets, CRCs
//   [104, 320) slab table 9 × SlabRecord{offset, bytes, kind, crc}
//   [320,  …)  arena      FlatCeciIndex slabs, byte-for-byte; TE lists
//                         store no keys (entry i is the tree parent's
//                         candidate at rank i), so kKeys holds NTE keys
//   […,    …)  plan       u32 tree parent per query vertex, then u32
//                         (smaller, larger) per restriction pair
//   […,  EOF)  pattern    the query pattern text (optional, may be empty)
//
// Every region is checksummed (CRC-32): per-slab, the slab table, the
// plan, the pattern, and the header itself. Loading verifies every
// checksum and then runs the arena layout check
// (FlatCeciIndex::CheckLayout, the one the auditor runs, through
// FlatCeciIndex::FromArena), so a corrupt or truncated file yields a
// clean kCorruption Status — never a crash or an out-of-bounds read
// later. The image records the matching order (in the arena) and the
// tree parents it was built for; the loader checks each TE list against
// its parent's candidates, ReadFlatIndex and ImageQueryTree check both
// and each NTE list against the tree, so an index can never be silently
// used with another tree. It also records the restriction set the writer
// chose (the Grochow–Kellis set or its mirror), which every reader
// enumerates under instead of deriving one again. Images of other
// versions are rejected as unsupported; re-saving one writes the current
// version.
#ifndef CECI_CECI_INDEX_IO_H_
#define CECI_CECI_INDEX_IO_H_

#include <string>

#include <vector>

#include "ceci/flat_index.h"
#include "ceci/query_tree.h"
#include "ceci/symmetry.h"
#include "util/status.h"

namespace ceci {

struct IndexLoadOptions {
  /// Map the file read-only and enumerate straight from the page cache
  /// instead of reading the file into one heap buffer the index keeps.
  /// The serving path sets this.
  bool use_mmap = false;
};

/// A loaded image: the index, the plan and the pattern text recorded at
/// write time (empty if the writer supplied none).
struct LoadedFlatIndex {
  FlatCeciIndex index;
  /// Tree parent of every query vertex; kInvalidVertex for the root.
  std::vector<VertexId> parents;
  /// The restriction set the writer enumerated under (empty when it broke
  /// no automorphisms).
  SymmetryConstraints symmetry;
  std::string pattern;
};

/// Serializes a frozen flat index to `path` with the tree it was built on
/// and the restriction set chosen for it. `pattern` is the query pattern
/// text the index was built for (used by `ceci_serve --index` to
/// reconstruct the query); pass "" if not needed.
Status WriteFlatIndex(const FlatCeciIndex& flat, const QueryTree& tree,
                      const SymmetryConstraints& symmetry,
                      const std::string& pattern, const std::string& path);

/// Loads an image with no query-side validation (the caller reconstructs
/// the query from the stored pattern, e.g. the serving path).
Result<LoadedFlatIndex> OpenFlatIndex(const std::string& path,
                                      const IndexLoadOptions& options = {});

/// The query tree an image was built under: the BFS tree rooted at the
/// first vertex of the stored matching order, with that order applied.
/// Images record their order, so a reader follows the writer's choice
/// rather than re-deriving one. Fails with kInvalidArgument when the
/// order does not fit `query` (wrong size, or not a topological order of
/// that tree), a tree parent differs from the stored one, or a vertex's
/// NTE list count differs from the tree's; with kCorruption when an NTE
/// list's keys are not all candidates of its NTE parent.
Result<QueryTree> ImageQueryTree(const LoadedFlatIndex& image,
                                 const Graph& query);

/// Loads an image for a known query. Fails with kInvalidArgument if the
/// image's query size, matching order, tree parents or NTE list counts do
/// not match `tree`'s, and with kCorruption on the NTE key fault above.
Result<FlatCeciIndex> ReadFlatIndex(const QueryTree& tree,
                                    const std::string& path,
                                    const IndexLoadOptions& options = {});

}  // namespace ceci

#endif  // CECI_CECI_INDEX_IO_H_
