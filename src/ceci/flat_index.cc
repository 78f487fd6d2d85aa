#include "ceci/flat_index.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/bitmap.h"
#include "util/check.h"

namespace ceci {
namespace {

// Element size of each slab, indexed by SlabKind.
constexpr std::size_t kElemBytes[FlatCeciIndex::kNumSlabs] = {
    sizeof(FlatVertexMeta),  // kVertexMeta
    sizeof(VertexId),        // kOrder
    sizeof(VertexId),        // kCandidates
    sizeof(Cardinality),     // kCardinalities
    sizeof(FlatListMeta),    // kListMeta
    sizeof(VertexId),        // kKeys
    sizeof(FlatEntry),       // kEntries
    sizeof(std::uint32_t),   // kArrayPool
    sizeof(std::uint64_t),   // kBitmapPool
};

std::uint64_t AlignUp8(std::uint64_t n) { return (n + 7) & ~std::uint64_t{7}; }

// The hybrid decision rule: a value set of a vertex with `words`-wide
// bitmaps is stored dense iff the bitmap is strictly smaller than the
// sorted rank array it replaces.
bool UseBitmap(std::uint32_t words, std::size_t count) {
  return count > 0 &&
         static_cast<std::size_t>(words) * sizeof(std::uint64_t) <
             count * sizeof(std::uint32_t);
}

// Data vertex → rank in one owner vertex's candidate array, O(1) per
// lookup. Holds rank + 1 so a zero slot means "not a candidate"; Load and
// Unload touch only the owner's own candidates, so one table serves every
// owner of a freeze.
class RankTable {
 public:
  explicit RankTable(std::size_t size) : rank_plus_one_(size, 0) {}

  void Load(std::span<const VertexId> candidates) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      rank_plus_one_[candidates[i]] = static_cast<std::uint32_t>(i + 1);
    }
  }
  void Unload(std::span<const VertexId> candidates) {
    for (VertexId v : candidates) rank_plus_one_[v] = 0;
  }

  std::uint32_t RankOf(VertexId v) const {
    const std::uint32_t r = v < rank_plus_one_.size() ? rank_plus_one_[v] : 0;
    CECI_CHECK(r != 0)
        << "flat freeze: value v" << v
        << " is not an alive candidate of its child vertex (refine first)";
    return r - 1;
  }

 private:
  std::vector<std::uint32_t> rank_plus_one_;
};

template <typename T>
T* SlabData(std::byte* base, const FlatCeciIndex::Slab& slab) {
  return reinterpret_cast<T*>(base + slab.offset);
}

}  // namespace

FlatCeciIndex FlatCeciIndex::Build(const CeciIndex& index,
                                   const QueryTree& tree) {
  const std::size_t nq = index.num_query_vertices();
  CECI_CHECK(nq == tree.num_vertices());
  const VertexId root = tree.root();

  // Counting pass. The hybrid rule needs only a value set's size and its
  // owner's bitmap width, so every slab is sized before any rank exists.
  std::size_t counts[kNumSlabs] = {};
  counts[kVertexMeta] = nq;
  counts[kOrder] = nq;
  std::size_t rank_table_size = 0;
  for (VertexId u = 0; u < nq; ++u) {
    const CeciVertexData& ud = index.at(u);
    const auto words =
        static_cast<std::uint32_t>(BitmapWords(ud.candidates.size()));
    auto count_list = [&](const CandidateRuns& list) {
      ++counts[kListMeta];
      counts[kKeys] += list.num_keys();
      for (std::size_t i = 0; i < list.num_keys(); ++i) {
        const std::size_t n = list.values_at(i).size();
        if (UseBitmap(words, n)) {
          counts[kBitmapPool] += words;
        } else {
          counts[kArrayPool] += n;
        }
      }
    };
    counts[kCandidates] += ud.candidates.size();
    if (u != root) count_list(ud.te);
    for (const CandidateRuns& list : ud.nte) count_list(list);
    if (!ud.candidates.empty()) {
      rank_table_size = std::max<std::size_t>(rank_table_size,
                                              ud.candidates.back() + 1);
    }
  }
  counts[kCardinalities] = counts[kCandidates];
  counts[kEntries] = counts[kKeys];

  // One zeroed arena, slabs back to back and each 8-aligned.
  FlatCeciIndex flat;
  std::uint64_t offset = 0;
  for (std::size_t s = 0; s < kNumSlabs; ++s) {
    flat.slabs_[s].offset = offset;
    flat.slabs_[s].bytes = counts[s] * kElemBytes[s];
    offset = AlignUp8(offset + flat.slabs_[s].bytes);
  }
  flat.arena_bytes_ = offset;
  flat.owned_.assign((offset + 7) / 8, 0);
  auto* base = reinterpret_cast<std::byte*>(flat.owned_.data());
  flat.arena_ = base;

  // Fill pass: every slab is written in place through a cursor.
  auto* vmeta = SlabData<FlatVertexMeta>(base, flat.slabs_[kVertexMeta]);
  auto* cands = SlabData<VertexId>(base, flat.slabs_[kCandidates]);
  auto* cards = SlabData<Cardinality>(base, flat.slabs_[kCardinalities]);
  auto* lmeta = SlabData<FlatListMeta>(base, flat.slabs_[kListMeta]);
  auto* keys = SlabData<VertexId>(base, flat.slabs_[kKeys]);
  auto* entries = SlabData<FlatEntry>(base, flat.slabs_[kEntries]);
  auto* array_pool = SlabData<std::uint32_t>(base, flat.slabs_[kArrayPool]);
  auto* bitmap_pool =
      SlabData<std::uint64_t>(base, flat.slabs_[kBitmapPool]);
  std::copy(tree.matching_order().begin(), tree.matching_order().end(),
            SlabData<VertexId>(base, flat.slabs_[kOrder]));

  RankTable ranks(rank_table_size);
  std::uint32_t cand_at = 0, list_at = 0, key_at = 0, array_at = 0,
                bitmap_at = 0;
  for (VertexId u = 0; u < nq; ++u) {
    const CeciVertexData& ud = index.at(u);
    FlatVertexMeta& m = vmeta[u];
    m.cand_begin = cand_at;
    m.cand_count = static_cast<std::uint32_t>(ud.candidates.size());
    m.bitmap_words =
        static_cast<std::uint32_t>(BitmapWords(ud.candidates.size()));
    std::copy(ud.candidates.begin(), ud.candidates.end(), cands + cand_at);
    // Unrefined cardinalities stay zero: the slab keeps its parallel shape.
    if (ud.cardinalities.size() == ud.candidates.size()) {
      std::copy(ud.cardinalities.begin(), ud.cardinalities.end(),
                cards + cand_at);
    }
    cand_at += m.cand_count;

    ranks.Load(ud.candidates);
    auto write_list = [&](const CandidateRuns& list) {
      FlatListMeta& lm = lmeta[list_at];
      lm.key_begin = key_at;
      lm.key_count = static_cast<std::uint32_t>(list.num_keys());
      lm.entry_begin = key_at;
      lm.owner = u;
      std::copy(list.keys.begin(), list.keys.end(), keys + key_at);
      for (std::size_t i = 0; i < list.num_keys(); ++i) {
        const std::span<const VertexId> values = list.values_at(i);
        FlatEntry& e = entries[key_at + i];
        e.count_and_tag = static_cast<std::uint32_t>(values.size());
        if (UseBitmap(m.bitmap_words, values.size())) {
          e.offset = bitmap_at;
          e.count_and_tag |= FlatEntry::kBitmapTag;
          std::uint64_t* bits = bitmap_pool + bitmap_at;
          for (VertexId v : values) {
            const std::uint32_t r = ranks.RankOf(v);
            bits[r >> 6] |= std::uint64_t{1} << (r & 63);
          }
          bitmap_at += m.bitmap_words;
        } else {
          e.offset = array_at;
          for (VertexId v : values) array_pool[array_at++] = ranks.RankOf(v);
        }
      }
      key_at += lm.key_count;
      return list_at++;
    };
    m.te_list = u == root ? kNoFlatList : write_list(ud.te);
    m.nte_begin = list_at;
    m.nte_count = static_cast<std::uint32_t>(ud.nte.size());
    for (const CandidateRuns& list : ud.nte) write_list(list);
    ranks.Unload(ud.candidates);
  }

  flat.BindSpans();
  return flat;
}

void FlatCeciIndex::BindSpans() {
  auto slab_ptr = [&](SlabKind kind) -> const std::byte* {
    return arena_ + slabs_[kind].offset;
  };
  auto slab_count = [&](SlabKind kind) {
    return static_cast<std::size_t>(slabs_[kind].bytes / kElemBytes[kind]);
  };
  vertices_ = {reinterpret_cast<const FlatVertexMeta*>(slab_ptr(kVertexMeta)),
               slab_count(kVertexMeta)};
  order_ = {reinterpret_cast<const VertexId*>(slab_ptr(kOrder)),
            slab_count(kOrder)};
  candidates_ = {reinterpret_cast<const VertexId*>(slab_ptr(kCandidates)),
                 slab_count(kCandidates)};
  cardinalities_ = {
      reinterpret_cast<const Cardinality*>(slab_ptr(kCardinalities)),
      slab_count(kCardinalities)};
  lists_ = {reinterpret_cast<const FlatListMeta*>(slab_ptr(kListMeta)),
            slab_count(kListMeta)};
  keys_ = {reinterpret_cast<const VertexId*>(slab_ptr(kKeys)),
           slab_count(kKeys)};
  entries_ = {reinterpret_cast<const FlatEntry*>(slab_ptr(kEntries)),
              slab_count(kEntries)};
  array_pool_ = {reinterpret_cast<const std::uint32_t*>(slab_ptr(kArrayPool)),
                 slab_count(kArrayPool)};
  bitmap_pool_ = {
      reinterpret_cast<const std::uint64_t*>(slab_ptr(kBitmapPool)),
      slab_count(kBitmapPool)};
}

Result<FlatCeciIndex> FlatCeciIndex::FromArena(
    std::vector<std::uint64_t> owned, MappedFile mapped,
    std::size_t arena_offset, std::size_t arena_bytes,
    std::span<const Slab> slabs, std::size_t num_query_vertices) {
  if (slabs.size() != kNumSlabs) {
    return Status::Corruption("slab table has wrong entry count");
  }
  FlatCeciIndex flat;
  flat.owned_ = std::move(owned);
  flat.mapped_ = std::move(mapped);
  flat.arena_bytes_ = arena_bytes;
  if (flat.mapped_.valid() && flat.mapped_.size() > 0) {
    if (arena_offset % 8 != 0 ||
        arena_offset + arena_bytes > flat.mapped_.size()) {
      return Status::Corruption("arena range exceeds mapped file");
    }
    flat.arena_ = flat.mapped_.data() + arena_offset;
  } else {
    if (arena_offset != 0 || flat.owned_.size() * 8 < arena_bytes) {
      return Status::Corruption("arena range exceeds owned buffer");
    }
    flat.arena_ = reinterpret_cast<const std::byte*>(flat.owned_.data());
  }

  // Slab-table sanity precedes span binding: slabs in canonical order,
  // 8-aligned, whole elements, monotone, inside the arena (the auditor's
  // kFlatSlabOrder class re-checks the same facts on demand).
  std::uint64_t cursor = 0;
  for (std::size_t s = 0; s < kNumSlabs; ++s) {
    const Slab& slab = slabs[s];
    if (slab.offset % 8 != 0 || slab.offset < cursor ||
        slab.bytes % kElemBytes[s] != 0 ||
        slab.offset + slab.bytes > arena_bytes) {
      return Status::Corruption("slab " + std::to_string(s) +
                                " out of order or out of bounds");
    }
    cursor = slab.offset + slab.bytes;
    flat.slabs_[s] = slab;
  }
  flat.BindSpans();
  if (flat.vertices_.size() != num_query_vertices) {
    return Status::Corruption("vertex-meta slab disagrees with header");
  }
  Status valid = flat.ValidateStructure();
  if (!valid.ok()) return valid;
  return flat;
}

Status FlatCeciIndex::ValidateStructure() const {
  const std::size_t nq = vertices_.size();
  // Matching order: one entry per query vertex, a permutation.
  if (order_.size() != nq) {
    return Status::Corruption("matching-order slab has wrong size");
  }
  std::vector<bool> seen(nq, false);
  for (VertexId u : order_) {
    if (u >= nq || seen[u]) {
      return Status::Corruption("matching order is not a permutation");
    }
    seen[u] = true;
  }
  if (cardinalities_.size() != candidates_.size()) {
    return Status::Corruption("cardinality slab not parallel to candidates");
  }

  // Vertex records: contiguous candidate ranges covering the slab, sorted
  // candidate sets, consistent bitmap width, contiguous list ranges.
  std::uint64_t cand_cursor = 0;
  std::uint64_t list_cursor = 0;
  const VertexId root = order_.empty() ? 0 : order_[0];
  for (VertexId u = 0; u < nq; ++u) {
    const FlatVertexMeta& m = vertices_[u];
    if (m.cand_begin != cand_cursor ||
        std::uint64_t{m.cand_begin} + m.cand_count > candidates_.size()) {
      return Status::Corruption("candidate range of u" + std::to_string(u) +
                                " not contiguous or out of bounds");
    }
    cand_cursor += m.cand_count;
    if (m.bitmap_words != BitmapWords(m.cand_count)) {
      return Status::Corruption("bitmap width of u" + std::to_string(u) +
                                " inconsistent with candidate count");
    }
    const auto cand = candidates(u);
    for (std::size_t i = 1; i < cand.size(); ++i) {
      if (cand[i - 1] >= cand[i]) {
        return Status::Corruption("candidates of u" + std::to_string(u) +
                                  " not strictly ascending");
      }
    }
    if (u == root) {
      if (m.te_list != kNoFlatList) {
        return Status::Corruption("root carries a TE list");
      }
    } else {
      if (m.te_list != list_cursor) {
        return Status::Corruption("TE list of u" + std::to_string(u) +
                                  " not contiguous");
      }
      ++list_cursor;
    }
    if (m.nte_begin != list_cursor ||
        std::uint64_t{m.nte_begin} + m.nte_count > lists_.size()) {
      return Status::Corruption("NTE list range of u" + std::to_string(u) +
                                " not contiguous or out of bounds");
    }
    list_cursor += m.nte_count;
    // Every list this vertex references must name it as owner.
    const std::uint32_t first =
        m.te_list == kNoFlatList ? m.nte_begin : m.te_list;
    for (std::uint32_t l = first; l < m.nte_begin + m.nte_count; ++l) {
      if (lists_[l].owner != u) {
        return Status::Corruption("list " + std::to_string(l) +
                                  " owner mismatch");
      }
    }
  }
  if (cand_cursor != candidates_.size()) {
    return Status::Corruption("candidate slab has unattributed elements");
  }
  if (list_cursor != lists_.size()) {
    return Status::Corruption("list-meta slab has unattributed lists");
  }

  // Lists: contiguous key/entry ranges, strictly ascending keys.
  std::uint64_t key_cursor = 0;
  for (std::size_t l = 0; l < lists_.size(); ++l) {
    const FlatListMeta& lm = lists_[l];
    if (lm.key_begin != key_cursor || lm.entry_begin != key_cursor ||
        std::uint64_t{lm.key_begin} + lm.key_count > keys_.size()) {
      return Status::Corruption("key range of list " + std::to_string(l) +
                                " not contiguous or out of bounds");
    }
    key_cursor += lm.key_count;
    for (std::uint32_t i = 1; i < lm.key_count; ++i) {
      if (keys_[lm.key_begin + i - 1] >= keys_[lm.key_begin + i]) {
        return Status::Corruption("keys of list " + std::to_string(l) +
                                  " not strictly ascending");
      }
    }
  }
  if (key_cursor != keys_.size() || entries_.size() != keys_.size()) {
    return Status::Corruption("key/entry slabs not parallel");
  }

  // Entries: offsets inside their pool, ranks strictly ascending and below
  // the owner's candidate count, bitmap popcount equal to the stored count.
  for (std::size_t l = 0; l < lists_.size(); ++l) {
    const FlatListMeta& lm = lists_[l];
    const FlatVertexMeta& owner = vertices_[lm.owner];
    for (std::uint32_t i = 0; i < lm.key_count; ++i) {
      const FlatEntry& e = entries_[lm.entry_begin + i];
      // Formatted only on failure: this loop visits every entry on each
      // image open, so a per-entry string would dominate the validation.
      auto where = [&] {
        return "entry " + std::to_string(i) + " of list " + std::to_string(l);
      };
      if (e.count() > owner.cand_count) {
        return Status::Corruption(where() + " stores more values than the "
                                          "owner has candidates");
      }
      if (e.is_bitmap()) {
        if (std::uint64_t{e.offset} + owner.bitmap_words >
            bitmap_pool_.size()) {
          return Status::Corruption(where() + " bitmap out of pool bounds");
        }
        const std::span<const std::uint64_t> bits =
            bitmap_pool_.subspan(e.offset, owner.bitmap_words);
        if (BitmapPopcount(bits) != e.count()) {
          return Status::Corruption(where() + " bitmap popcount != count");
        }
        if (owner.bitmap_words > 0 && (owner.cand_count & 63) != 0 &&
            (bits[owner.bitmap_words - 1] >>
             (owner.cand_count & 63)) != 0) {
          return Status::Corruption(where() + " bitmap sets ranks past the "
                                            "owner's candidate count");
        }
      } else {
        if (std::uint64_t{e.offset} + e.count() > array_pool_.size()) {
          return Status::Corruption(where() + " array out of pool bounds");
        }
        const std::span<const std::uint32_t> ranks =
            array_pool_.subspan(e.offset, e.count());
        for (std::size_t r = 0; r < ranks.size(); ++r) {
          if (ranks[r] >= owner.cand_count ||
              (r > 0 && ranks[r - 1] >= ranks[r])) {
            return Status::Corruption(where() + " ranks unsorted or out of "
                                              "range");
          }
        }
      }
    }
  }
  return Status::Ok();
}

FlatCeciIndex FlatCeciIndex::Clone() const {
  FlatCeciIndex copy;
  copy.arena_bytes_ = arena_bytes_;
  copy.owned_.assign((arena_bytes_ + 7) / 8, 0);
  auto* base = reinterpret_cast<std::byte*>(copy.owned_.data());
  if (arena_bytes_ > 0) std::memcpy(base, arena_, arena_bytes_);
  copy.arena_ = base;
  for (std::size_t s = 0; s < kNumSlabs; ++s) copy.slabs_[s] = slabs_[s];
  copy.BindSpans();
  return copy;
}

FlatCeciIndex::EntryRef FlatCeciIndex::MakeRef(const FlatEntry& entry,
                                               VertexId owner) const {
  EntryRef ref;
  ref.count = entry.count();
  if (entry.is_bitmap()) {
    ref.bits = bitmap_pool_.subspan(entry.offset,
                                    vertices_[owner].bitmap_words);
  } else {
    ref.ranks = array_pool_.subspan(entry.offset, ref.count);
  }
  return ref;
}

FlatCeciIndex::EntryRef FlatCeciIndex::ListFind(std::uint32_t list_index,
                                                VertexId key) const {
  const FlatListMeta& lm = lists_[list_index];
  const std::span<const VertexId> keys =
      keys_.subspan(lm.key_begin, lm.key_count);
  auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return EntryRef{};
  const auto i = static_cast<std::uint32_t>(it - keys.begin());
  return MakeRef(entries_[lm.entry_begin + i], lm.owner);
}

FlatCeciIndex::EntryRef FlatCeciIndex::Te(VertexId u,
                                          VertexId parent_match) const {
  const FlatVertexMeta& m = vertices_[u];
  if (m.te_list == kNoFlatList) return EntryRef{};
  return ListFind(m.te_list, parent_match);
}

std::span<const VertexId> FlatCeciIndex::TeKeys(VertexId u) const {
  const FlatVertexMeta& m = vertices_[u];
  if (m.te_list == kNoFlatList) return {};
  const FlatListMeta& lm = lists_[m.te_list];
  return keys_.subspan(lm.key_begin, lm.key_count);
}

FlatCeciIndex::EntryRef FlatCeciIndex::TeEntry(VertexId u,
                                               std::size_t i) const {
  const FlatListMeta& lm = lists_[vertices_[u].te_list];
  CECI_DCHECK(i < lm.key_count);
  return MakeRef(entries_[lm.entry_begin + i], lm.owner);
}

FlatCeciIndex::EntryRef FlatCeciIndex::Nte(VertexId u, std::size_t k,
                                           VertexId parent_match) const {
  const FlatVertexMeta& m = vertices_[u];
  CECI_DCHECK(k < m.nte_count);
  return ListFind(m.nte_begin + static_cast<std::uint32_t>(k), parent_match);
}

Cardinality FlatCeciIndex::CardinalityOf(VertexId u, VertexId v) const {
  const auto cand = candidates(u);
  auto it = std::lower_bound(cand.begin(), cand.end(), v);
  if (it == cand.end() || *it != v) return 0;
  return cardinalities(u)[static_cast<std::size_t>(it - cand.begin())];
}

std::size_t FlatCeciIndex::TotalCandidateEdges() const {
  std::size_t total = 0;
  for (const FlatEntry& e : entries_) total += e.count();
  return total;
}

std::size_t FlatCeciIndex::ArrayEntries() const {
  std::size_t n = 0;
  for (const FlatEntry& e : entries_) n += e.is_bitmap() ? 0 : 1;
  return n;
}

std::size_t FlatCeciIndex::BitmapEntries() const {
  std::size_t n = 0;
  for (const FlatEntry& e : entries_) n += e.is_bitmap() ? 1 : 0;
  return n;
}

FlatCeciIndex::VertexFootprint FlatCeciIndex::MemoryFootprint(
    VertexId u) const {
  const FlatVertexMeta& m = vertices_[u];
  VertexFootprint f;
  f.candidate_bytes =
      static_cast<std::size_t>(m.cand_count) *
          (sizeof(VertexId) + sizeof(Cardinality)) +
      sizeof(FlatVertexMeta) + sizeof(VertexId);  // meta + order entry

  auto list_bytes = [&](std::uint32_t l, std::size_t* key_count,
                        std::size_t* edge_count) {
    const FlatListMeta& lm = lists_[l];
    std::size_t bytes = sizeof(FlatListMeta) +
                        static_cast<std::size_t>(lm.key_count) *
                            (sizeof(VertexId) + sizeof(FlatEntry));
    for (std::uint32_t i = 0; i < lm.key_count; ++i) {
      const FlatEntry& e = entries_[lm.entry_begin + i];
      bytes += e.is_bitmap()
                   ? static_cast<std::size_t>(m.bitmap_words) *
                         sizeof(std::uint64_t)
                   : static_cast<std::size_t>(e.count()) *
                         sizeof(std::uint32_t);
      *edge_count += e.count();
    }
    *key_count += lm.key_count;
    return bytes;
  };

  if (m.te_list != kNoFlatList) {
    f.te_bytes = list_bytes(m.te_list, &f.te_keys, &f.te_edges);
  }
  f.nte_lists = m.nte_count;
  for (std::uint32_t k = 0; k < m.nte_count; ++k) {
    std::size_t keys = 0;
    f.nte_bytes += list_bytes(m.nte_begin + k, &keys, &f.nte_edges);
  }
  return f;
}

std::size_t CeciBytes(const FlatCeciIndex& flat) {
  return CeciBytes(flat.all_keys().size(), flat.TotalCandidateEdges(),
                   flat.slab(FlatCeciIndex::kCandidates).bytes /
                       sizeof(VertexId),
                   /*refined=*/true);
}

VertexId FlatCeciIndex::MaxCandidateId() const {
  VertexId max = 0;
  for (VertexId v : candidates_) max = std::max(max, v);
  return max;
}

}  // namespace ceci
