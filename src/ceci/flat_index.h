// Arena-backed flat CECI with hybrid candidate-set entries.
//
// FlatCeciIndex is the form the enumerator, CEIX files and dist workers
// read: the entire index lives in ONE contiguous 8-byte-aligned arena cut
// into nine typed slabs addressed by `uint32` offsets (the katana
// LargeArray idiom). Build() writes it from the *refined* staging index
// (ceci_index.h), whose lists already are sorted keys with (offset, count)
// runs of data-vertex ids; the one pass maps those ids to ranks and picks
// each entry's representation.
//
// Layout (canonical slab order; see docs/index_layout.md for the full map):
//
//   kVertexMeta    FlatVertexMeta per query vertex
//   kOrder         the matching order the index was built for
//   kCandidates    all candidate arrays, concatenated (data-vertex ids)
//   kCardinalities refinement cardinalities, parallel to kCandidates
//   kListMeta      FlatListMeta per TE/NTE list
//   kKeys          all list keys, concatenated (parent data-vertex ids)
//   kEntries       FlatEntry per key, parallel to kKeys
//   kArrayPool     sparse value sets: sorted u32 *ranks* into the owning
//                  vertex's candidate array
//   kBitmapPool    dense value sets: fixed-width bitmaps over those ranks
//
// Hybrid representation: a value set of a vertex with n candidates becomes
// a bitmap iff its bitmap (ceil(n/64) words = 8·words bytes) is smaller
// than its sorted array (4·count bytes) — i.e. dense entries pay ~n/8
// bytes total while sparse ones stay 4 bytes/element. Because every stored
// value is a *rank*, array entries intersect through the existing SIMD
// sorted-u32 kernels (util/intersection.h) unchanged, bitmap entries
// through word-wise AND/popcount (util/bitmap.h), and the two mix freely
// in one intersection. The id of rank r is candidates(u)[r] — one
// contiguous lookup per emitted element.
//
// A FlatCeciIndex either owns its arena (Build, Clone, file read) or
// borrows it from a read-only mmap (index_io.h), which is how
// `ceci_serve --index` shares one physical index image across every
// connection and process. The structure is immutable after construction;
// concurrent readers need no synchronization.
#ifndef CECI_CECI_FLAT_INDEX_H_
#define CECI_CECI_FLAT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "ceci/ceci_index.h"
#include "ceci/query_tree.h"
#include "graph/types.h"
#include "util/mapped_file.h"
#include "util/status.h"

namespace ceci {

/// Per-query-vertex record (kVertexMeta slab).
struct FlatVertexMeta {
  std::uint32_t cand_begin = 0;   // into kCandidates / kCardinalities
  std::uint32_t cand_count = 0;
  std::uint32_t bitmap_words = 0;  // ceil(cand_count / 64)
  std::uint32_t te_list = 0;       // into kListMeta; kNoFlatList for root
  std::uint32_t nte_begin = 0;     // first NTE list, into kListMeta
  std::uint32_t nte_count = 0;     // == |QueryTree::nte_in(u)|
};

/// Per-list record (kListMeta slab). Keys and entries are parallel:
/// key i of this list is kKeys[key_begin + i] with entry
/// kEntries[entry_begin + i].
struct FlatListMeta {
  std::uint32_t key_begin = 0;
  std::uint32_t key_count = 0;
  std::uint32_t entry_begin = 0;
  std::uint32_t owner = 0;  // child query vertex whose ranks the values use
};

/// One key's value set (kEntries slab). Bit 31 of `count_and_tag` selects
/// the representation; the low 31 bits hold the element count either way.
struct FlatEntry {
  std::uint32_t offset = 0;  // into kArrayPool (u32s) or kBitmapPool (words)
  std::uint32_t count_and_tag = 0;

  static constexpr std::uint32_t kBitmapTag = 0x80000000u;
  std::uint32_t count() const { return count_and_tag & ~kBitmapTag; }
  bool is_bitmap() const { return (count_and_tag & kBitmapTag) != 0; }
};

inline constexpr std::uint32_t kNoFlatList = 0xFFFFFFFFu;

// Layout contract. These three records ARE the on-disk CEIX format
// (index_io.h serializes the slabs byte-for-byte), so their exact size,
// alignment, and field placement are ABI: a compiler or refactor that
// moves a field silently corrupts every saved index. Pinning offsetof per
// field turns that into a compile error here rather than a checksum
// mismatch (or worse) at load time. All three must stay standard-layout
// and trivially copyable — the reader casts raw arena bytes to them.
static_assert(sizeof(FlatVertexMeta) == 24);
static_assert(alignof(FlatVertexMeta) == 4);
static_assert(std::is_standard_layout_v<FlatVertexMeta>);
static_assert(std::is_trivially_copyable_v<FlatVertexMeta>);
static_assert(offsetof(FlatVertexMeta, cand_begin) == 0);
static_assert(offsetof(FlatVertexMeta, cand_count) == 4);
static_assert(offsetof(FlatVertexMeta, bitmap_words) == 8);
static_assert(offsetof(FlatVertexMeta, te_list) == 12);
static_assert(offsetof(FlatVertexMeta, nte_begin) == 16);
static_assert(offsetof(FlatVertexMeta, nte_count) == 20);

static_assert(sizeof(FlatListMeta) == 16);
static_assert(alignof(FlatListMeta) == 4);
static_assert(std::is_standard_layout_v<FlatListMeta>);
static_assert(std::is_trivially_copyable_v<FlatListMeta>);
static_assert(offsetof(FlatListMeta, key_begin) == 0);
static_assert(offsetof(FlatListMeta, key_count) == 4);
static_assert(offsetof(FlatListMeta, entry_begin) == 8);
static_assert(offsetof(FlatListMeta, owner) == 12);

static_assert(sizeof(FlatEntry) == 8);
static_assert(alignof(FlatEntry) == 4);
static_assert(std::is_standard_layout_v<FlatEntry>);
static_assert(std::is_trivially_copyable_v<FlatEntry>);
static_assert(offsetof(FlatEntry, offset) == 0);
static_assert(offsetof(FlatEntry, count_and_tag) == 4);
static_assert(FlatEntry::kBitmapTag == (1u << 31),
              "bit 31 tags bitmap entries; the low 31 bits are the count");

class FlatCeciIndex {
 public:
  enum SlabKind : std::uint32_t {
    kVertexMeta = 0,
    kOrder,
    kCandidates,
    kCardinalities,
    kListMeta,
    kKeys,
    kEntries,
    kArrayPool,
    kBitmapPool,
  };
  static constexpr std::size_t kNumSlabs = 9;

  /// One slab's placement inside the arena (byte offsets, 8-aligned).
  struct Slab {
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
  };

  /// A value set handed to the enumerator: exactly one of `ranks` / `bits`
  /// is non-empty (both empty for an absent key). Elements are ranks into
  /// candidates(owner).
  struct EntryRef {
    std::span<const std::uint32_t> ranks;  // sorted, strictly ascending
    std::span<const std::uint64_t> bits;   // fixed width: bitmap_words(owner)
    std::uint32_t count = 0;
    bool is_bitmap() const { return !bits.empty(); }
  };

  FlatCeciIndex() = default;
  FlatCeciIndex(FlatCeciIndex&&) noexcept = default;
  FlatCeciIndex& operator=(FlatCeciIndex&&) noexcept = default;
  FlatCeciIndex(const FlatCeciIndex&) = delete;
  FlatCeciIndex& operator=(const FlatCeciIndex&) = delete;

  /// Freezes a *refined* staging index into the flat form. Every TE/NTE
  /// value must be an alive candidate of its child vertex (the refinement
  /// postcondition the auditor calls kValueNotCandidate) — ranks are not
  /// defined otherwise (checked).
  static FlatCeciIndex Build(const CeciIndex& index, const QueryTree& tree);

  /// Reconstructs the index from an arena image (an owned byte copy or a
  /// read-only mapping; exactly one is used, the other default). The slab
  /// table and every structural offset are fully validated so a corrupt
  /// arena yields kCorruption here, never an out-of-bounds access later.
  /// Used by index_io; Build() skips this (correct by construction).
  static Result<FlatCeciIndex> FromArena(std::vector<std::uint64_t> owned,
                                         MappedFile mapped,
                                         std::size_t arena_offset,
                                         std::size_t arena_bytes,
                                         std::span<const Slab> slabs,
                                         std::size_t num_query_vertices);

  bool empty() const { return arena_ == nullptr; }
  bool mapped() const { return mapped_.valid() && mapped_.size() > 0; }

  /// Deep copy with an owned arena (e.g. to audit past the source's
  /// lifetime). Explicit because the arena can be large.
  FlatCeciIndex Clone() const;

  std::size_t num_query_vertices() const { return vertices_.size(); }
  std::span<const VertexId> matching_order() const { return order_; }

  std::span<const VertexId> candidates(VertexId u) const {
    const FlatVertexMeta& m = vertices_[u];
    return candidates_.subspan(m.cand_begin, m.cand_count);
  }
  std::span<const Cardinality> cardinalities(VertexId u) const {
    const FlatVertexMeta& m = vertices_[u];
    return cardinalities_.subspan(m.cand_begin, m.cand_count);
  }
  std::uint32_t bitmap_words(VertexId u) const {
    return vertices_[u].bitmap_words;
  }
  std::uint32_t nte_count(VertexId u) const { return vertices_[u].nte_count; }

  /// Visits every (list, key) pair in vertex order: TE list first (absent
  /// for the root), then NTE lists in paper order. `nte_slot` is -1 for
  /// the TE list, else the index into QueryTree::nte_in(owner). Used by
  /// layout diagnostics and tests.
  template <typename Fn>  // Fn(VertexId owner, std::int32_t nte_slot,
                          //    VertexId key, const EntryRef& ref)
  void ForEachList(Fn&& fn) const {
    for (VertexId u = 0; u < vertices_.size(); ++u) {
      const FlatVertexMeta& m = vertices_[u];
      auto visit = [&](std::uint32_t l, std::int32_t slot) {
        const FlatListMeta& lm = lists_[l];
        for (std::uint32_t i = 0; i < lm.key_count; ++i) {
          fn(u, slot, keys_[lm.key_begin + i],
             MakeRef(entries_[lm.entry_begin + i], lm.owner));
        }
      };
      if (m.te_list != kNoFlatList) visit(m.te_list, -1);
      for (std::uint32_t k = 0; k < m.nte_count; ++k) {
        visit(m.nte_begin + k, static_cast<std::int32_t>(k));
      }
    }
  }

  /// TE value set of u for the tree parent's match; count == 0 (both spans
  /// empty) when the key is absent. Binary search over the list's keys.
  EntryRef Te(VertexId u, VertexId parent_match) const;
  /// Keys of u's TE list (its tree parent's matches), ascending; empty for
  /// the root. TeEntry(u, i) is the value set of key i — a walk over the
  /// list without Te()'s binary search per key.
  std::span<const VertexId> TeKeys(VertexId u) const;
  EntryRef TeEntry(VertexId u, std::size_t i) const;
  /// NTE value set of u for incoming non-tree edge k (paper order,
  /// parallel to QueryTree::nte_in(u)).
  EntryRef Nte(VertexId u, std::size_t k, VertexId parent_match) const;

  /// cardinality(u, v); zero if v is not an alive candidate of u.
  Cardinality CardinalityOf(VertexId u, VertexId v) const;

  /// Exact arena size — the bytes enumeration (and an mmap) actually
  /// touches. This is the figure MemoryFootprint sums to (± slab padding).
  std::size_t ArenaBytes() const { return arena_bytes_; }

  /// Total candidate edges stored across all TE and NTE entries.
  std::size_t TotalCandidateEdges() const;

  /// Entries per representation (hybrid split diagnostics).
  std::size_t ArrayEntries() const;
  std::size_t BitmapEntries() const;

  /// One query vertex's share of the arena, split by structure; the
  /// profiler reports it per vertex (Table 2 from measurement).
  struct VertexFootprint {
    std::size_t te_keys = 0;
    std::size_t te_edges = 0;
    std::size_t te_bytes = 0;
    std::size_t nte_lists = 0;
    std::size_t nte_edges = 0;
    std::size_t nte_bytes = 0;
    std::size_t candidate_bytes = 0;  // candidates + cardinalities + meta
  };
  /// Exact per-vertex byte accounting over the slabs: every slab element
  /// is attributed to the query vertex that owns it (vertex meta + order
  /// entry count as candidate_bytes). Summed over all vertices this equals
  /// ArenaBytes() minus inter-slab alignment padding (< 8 bytes per slab).
  VertexFootprint MemoryFootprint(VertexId u) const;

  /// Raw arena for persistence (index_io) and the slab table describing
  /// it. The arena starts 8-aligned and slabs appear in SlabKind order.
  std::span<const std::byte> arena() const {
    return {arena_, arena_bytes_};
  }
  const Slab& slab(SlabKind kind) const { return slabs_[kind]; }

  /// Largest data-vertex id stored in any candidate set, or 0 when empty.
  /// Load-time sanity check against the serving data graph.
  VertexId MaxCandidateId() const;

  /// Raw typed slab views for layout auditing (invariant_auditor.h). The
  /// auditor re-derives every offset bound from these instead of going
  /// through the checked accessors, so it can report on corrupt metas
  /// without tripping them.
  std::span<const FlatVertexMeta> vertex_metas() const { return vertices_; }
  std::span<const FlatListMeta> list_metas() const { return lists_; }
  std::span<const VertexId> all_keys() const { return keys_; }
  std::span<const FlatEntry> all_entries() const { return entries_; }
  std::span<const std::uint32_t> array_pool() const { return array_pool_; }
  std::span<const std::uint64_t> bitmap_pool() const { return bitmap_pool_; }

 private:
  friend class FlatIndexTestPeer;  // corruption planting (auditor tests)

  /// Derives the typed spans from arena_ + slabs_; arena must be set.
  void BindSpans();
  /// Deep structural validation of a freshly bound arena (see FromArena).
  Status ValidateStructure() const;

  EntryRef ListFind(std::uint32_t list_index, VertexId key) const;
  EntryRef MakeRef(const FlatEntry& entry, VertexId owner) const;

  // Arena storage: exactly one of owned_ / mapped_ backs arena_.
  std::vector<std::uint64_t> owned_;
  MappedFile mapped_;
  const std::byte* arena_ = nullptr;
  std::size_t arena_bytes_ = 0;
  Slab slabs_[kNumSlabs] = {};

  // Typed views into the arena (derived, never owning).
  std::span<const FlatVertexMeta> vertices_;
  std::span<const VertexId> order_;
  std::span<const VertexId> candidates_;
  std::span<const Cardinality> cardinalities_;
  std::span<const FlatListMeta> lists_;
  std::span<const VertexId> keys_;
  std::span<const FlatEntry> entries_;
  std::span<const std::uint32_t> array_pool_;
  std::span<const std::uint64_t> bitmap_pool_;
};

/// MatchStats::ceci_bytes of the refined index `flat` holds (CeciBytes over
/// its keys, stored values and candidates). A fresh Prepare and an entry
/// installed from a CEIX image both report it.
std::size_t CeciBytes(const FlatCeciIndex& flat);

/// The enumeration layer's index type. Enumerator, RunParallelEnumeration
/// and BuildWorkUnits take `const FlatCeciIndex&`; this alias keeps the
/// older spelling `IndexView(flat)` compiling for perfbench/driver.cc.
using IndexView = const FlatCeciIndex&;

}  // namespace ceci

#endif  // CECI_CECI_FLAT_INDEX_H_
