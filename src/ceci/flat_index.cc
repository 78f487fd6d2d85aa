#include "ceci/flat_index.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <sstream>
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

const char* const kSlabNames[FlatCeciIndex::kNumSlabs] = {
    "vertex_meta", "order",   "candidates", "cardinalities", "list_meta",
    "keys",        "entries", "array_pool", "bitmap_pool"};

template <typename T>
bool StrictlyAscending(std::span<const T> s) {
  return std::adjacent_find(s.begin(), s.end(), std::greater_equal<T>()) ==
         s.end();
}

// Reports one layout fault, its detail formatted from `parts`; returns
// true when the sink stops the check.
template <typename... Parts>
bool Stop(const FlatCeciIndex::LayoutFaultSink& sink,
          FlatCeciIndex::LayoutFault fault, const Parts&... parts) {
  std::ostringstream detail;
  (detail << ... << parts);
  return !sink(fault, detail.str());
}

std::uint64_t AlignUp8(std::uint64_t n) { return (n + 7) & ~std::uint64_t{7}; }

// The hybrid decision rule: a value set of a vertex with `words`-wide
// bitmaps is stored dense iff the bitmap is strictly smaller than the
// sorted rank array it replaces.
bool UseBitmap(std::uint32_t words, std::size_t count) {
  return count > 0 &&
         static_cast<std::size_t>(words) * sizeof(std::uint64_t) <
             count * sizeof(std::uint32_t);
}

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
  // owner's bitmap width, so every slab is sized before the fill.
  std::size_t counts[kNumSlabs] = {};
  counts[kVertexMeta] = nq;
  counts[kOrder] = nq;
  for (VertexId u = 0; u < nq; ++u) {
    const CeciVertexData& ud = index.at(u);
    const auto words =
        static_cast<std::uint32_t>(BitmapWords(ud.candidates.size()));
    auto count_list = [&](const RunPool& list) {
      ++counts[kListMeta];
      counts[kEntries] += list.num_runs();
      for (std::size_t i = 0; i < list.num_runs(); ++i) {
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
    for (const KeyedRuns& list : ud.nte) {
      count_list(list);
      counts[kKeys] += list.num_keys();
    }
  }
  counts[kCardinalities] = counts[kCandidates];

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

  std::uint32_t cand_at = 0, list_at = 0, key_at = 0, entry_at = 0,
                array_at = 0, bitmap_at = 0;
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

    // Refinement wrote the ranks; the check keeps a bad one in its bitmap.
    auto rank = [&m](VertexId r) {
      CECI_CHECK(r < m.cand_count)
          << "flat freeze: rank " << r << " is past the " << m.cand_count
          << " candidates of its owner (refine first)";
      return r;
    };
    auto write_list = [&](const RunPool& list,
                          std::span<const VertexId> list_keys) {
      FlatListMeta& lm = lmeta[list_at];
      lm.key_begin = key_at;
      lm.entry_count = static_cast<std::uint32_t>(list.num_runs());
      lm.entry_begin = entry_at;
      lm.owner = u;
      std::copy(list_keys.begin(), list_keys.end(), keys + key_at);
      key_at += static_cast<std::uint32_t>(list_keys.size());
      for (std::size_t i = 0; i < list.num_runs(); ++i) {
        const std::span<const VertexId> values = list.values_at(i);
        FlatEntry& e = entries[entry_at + i];
        e.count_and_tag = static_cast<std::uint32_t>(values.size());
        if (UseBitmap(m.bitmap_words, values.size())) {
          e.offset = bitmap_at;
          e.count_and_tag |= FlatEntry::kBitmapTag;
          std::uint64_t* bits = bitmap_pool + bitmap_at;
          for (VertexId v : values) {
            const std::uint32_t r = rank(v);
            bits[r >> 6] |= std::uint64_t{1} << (r & 63);
          }
          bitmap_at += m.bitmap_words;
        } else {
          e.offset = array_at;
          for (VertexId v : values) array_pool[array_at++] = rank(v);
        }
      }
      entry_at += lm.entry_count;
      return list_at++;
    };
    // A TE list has no keys: TeEntry reads entry i for the tree parent's
    // candidate at rank i.
    CECI_CHECK(u == root || ud.te.num_runs() ==
                                index.at(tree.parent(u)).candidates.size())
        << "flat freeze: TE list of u" << u
        << " is not one run per candidate of its parent";
    m.te_list = u == root ? kNoFlatList : write_list(ud.te, {});
    m.nte_begin = list_at;
    m.nte_count = static_cast<std::uint32_t>(ud.nte.size());
    for (const KeyedRuns& list : ud.nte) write_list(list, list.keys);
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
  const bool mapped_arena = flat.mapped();
  const std::byte* base =
      mapped_arena ? flat.mapped_.data()
                   : reinterpret_cast<const std::byte*>(flat.owned_.data());
  const std::size_t size =
      mapped_arena ? flat.mapped_.size() : flat.owned_.size() * 8;
  if (arena_offset % 8 != 0 || arena_offset > size ||
      arena_bytes > size - arena_offset) {
    return Status::Corruption("arena range exceeds its buffer");
  }
  flat.arena_ = base + arena_offset;
  std::copy(slabs.begin(), slabs.end(), flat.slabs_);

  std::string fault;
  const LayoutFaultSink first_fault = [&fault](LayoutFault,
                                               std::string detail) {
    fault = std::move(detail);
    return false;
  };
  if (!CheckSlabTable(flat.slabs_, arena_bytes, first_fault)) {
    return Status::Corruption(fault);
  }
  flat.BindSpans();
  if (flat.vertices_.size() != num_query_vertices) {
    return Status::Corruption("vertex-meta slab disagrees with header");
  }
  if (!flat.CheckArena(first_fault)) return Status::Corruption(fault);
  return flat;
}

bool FlatCeciIndex::CheckLayout(const LayoutFaultSink& sink) const {
  return CheckSlabTable(slabs_, arena_bytes_, sink) && CheckArena(sink);
}

bool FlatCeciIndex::CheckSlabTable(std::span<const Slab> slabs,
                                   std::uint64_t arena_bytes,
                                   const LayoutFaultSink& sink) {
  constexpr LayoutFault kOrder = LayoutFault::kSlabOrder;
  std::uint64_t prev_end = 0;
  for (std::size_t s = 0; s < kNumSlabs; ++s) {
    const Slab& slab = slabs[s];
    if ((slab.offset % 8 != 0 || slab.bytes % kElemBytes[s] != 0) &&
        Stop(sink, kOrder, "slab ", kSlabNames[s], " misaligned (offset ",
             slab.offset, ", ", slab.bytes, " bytes)")) {
      return false;
    }
    const bool inside =
        slab.offset <= arena_bytes && slab.bytes <= arena_bytes - slab.offset;
    if ((slab.offset < prev_end || !inside) &&
        Stop(sink, kOrder, "slab ", kSlabNames[s], " at offset ", slab.offset,
             " out of order or past the ", arena_bytes, "-byte arena")) {
      return false;
    }
    if (inside) prev_end = std::max(prev_end, slab.offset + slab.bytes);
  }
  return true;
}

// Every fact reads `if (bad && Stop(...)) return false;`: the detail is
// formatted only for a fault, and the sink decides whether the check goes
// on. A range is followed only once its bound holds, so going on past any
// fault is safe.
bool FlatCeciIndex::CheckArena(const LayoutFaultSink& sink) const {
  constexpr LayoutFault kBounds = LayoutFault::kOffsetBounds;
  constexpr LayoutFault kRep = LayoutFault::kRepresentation;
  const std::size_t nq = vertices_.size();

  // The matching order is a permutation; its first vertex is the root.
  bool permutation = order_.size() == nq;
  std::vector<bool> seen(nq, false);
  for (std::size_t i = 0; permutation && i < nq; ++i) {
    permutation = order_[i] < nq && !seen[order_[i]];
    if (permutation) seen[order_[i]] = true;
  }
  if (!permutation &&
      Stop(sink, kRep, "matching order is not a permutation")) {
    return false;
  }
  const VertexId root = order_.empty() ? 0 : order_[0];
  if (cardinalities_.size() != candidates_.size() &&
      Stop(sink, kRep, "cardinality slab not parallel to candidates")) {
    return false;
  }

  // Vertex records, in vertex order: candidate ranges back to back, and
  // each vertex's TE list, then its NTE lists, back to back.
  std::uint64_t cand_at = 0;
  std::uint64_t list_at = 0;
  for (VertexId u = 0; u < nq; ++u) {
    const FlatVertexMeta& m = vertices_[u];
    const std::uint64_t cand_end = std::uint64_t{m.cand_begin} + m.cand_count;
    const bool cand_inside = cand_end <= candidates_.size();
    if (!cand_inside &&
        Stop(sink, kBounds, "u", u, ": candidate range [", m.cand_begin, ", ",
             cand_end, ") escapes its slab")) {
      return false;
    }
    if (m.cand_begin != cand_at &&
        Stop(sink, kRep, "u", u, ": candidate range starts at ",
             m.cand_begin, ", not ", cand_at)) {
      return false;
    }
    cand_at = cand_end;
    if (m.bitmap_words != BitmapWords(m.cand_count) &&
        Stop(sink, kRep, "u", u, ": bitmap_words ", m.bitmap_words, " for ",
             m.cand_count, " candidates")) {
      return false;
    }
    if (cand_inside && !StrictlyAscending(candidates(u)) &&
        Stop(sink, kRep, "u", u, ": candidates not strictly ascending")) {
      return false;
    }
    const bool has_te = m.te_list != kNoFlatList;
    if ((u == root) == has_te &&
        Stop(sink, kRep, "u", u,
             has_te ? ": the root stores a TE list"
                    : ": not the root but has no TE list")) {
      return false;
    }
    const bool te_inside = has_te && m.te_list < lists_.size();
    if (has_te && !te_inside &&
        Stop(sink, kBounds, "u", u, ": TE list ", m.te_list,
             " escapes its slab")) {
      return false;
    }
    if (has_te && m.te_list != list_at &&
        Stop(sink, kRep, "u", u, ": TE list ", m.te_list, ", not ", list_at)) {
      return false;
    }
    if (has_te) list_at = std::uint64_t{m.te_list} + 1;
    const std::uint64_t nte_end = std::uint64_t{m.nte_begin} + m.nte_count;
    const bool nte_inside = nte_end <= lists_.size();
    if (!nte_inside && m.nte_count > 0 &&
        Stop(sink, kBounds, "u", u, ": NTE lists [", m.nte_begin, ", ",
             nte_end, ") escape their slab")) {
      return false;
    }
    if (m.nte_begin != list_at &&
        Stop(sink, kRep, "u", u, ": NTE lists start at ", m.nte_begin,
             ", not ", list_at)) {
      return false;
    }
    list_at = nte_end;
    // Every list the vertex references names it as owner.
    auto owned = [&](std::uint64_t l) {
      return lists_[l].owner == u ||
             !Stop(sink, kRep, "list ", l, " of u", u, " names u",
                   lists_[l].owner, " as owner");
    };
    if (te_inside && !owned(m.te_list)) return false;
    for (std::uint64_t l = m.nte_begin; nte_inside && l < nte_end; ++l) {
      if (!owned(l)) return false;
    }
  }
  if ((cand_at != candidates_.size() || list_at != lists_.size()) &&
      Stop(sink, kRep, "candidate and list ranges end at ", cand_at, " and ",
           list_at, ", not at their slabs' ends")) {
    return false;
  }

  // Lists, in list order: entry ranges back to back, and so are the key
  // ranges of the NTE lists. A TE list (its owner's te_list) owns no keys.
  std::uint64_t key_at = 0;
  std::uint64_t entry_at = 0;
  for (std::size_t l = 0; l < lists_.size(); ++l) {
    const FlatListMeta& lm = lists_[l];
    const bool owner_valid = lm.owner < nq;
    if (!owner_valid &&
        Stop(sink, kBounds, "list ", l, ": owner u", lm.owner,
             " is not a query vertex")) {
      return false;
    }
    const bool keyed = !owner_valid || vertices_[lm.owner].te_list != l;
    const std::uint64_t key_end =
        std::uint64_t{lm.key_begin} + (keyed ? lm.entry_count : 0);
    const std::uint64_t entry_end =
        std::uint64_t{lm.entry_begin} + lm.entry_count;
    const bool inside =
        key_end <= keys_.size() && entry_end <= entries_.size();
    if (!inside &&
        Stop(sink, kBounds, "list ", l, ": key/entry range escapes its slab")) {
      return false;
    }
    if ((lm.key_begin != key_at || lm.entry_begin != entry_at) &&
        Stop(sink, kRep, "list ", l, ": keys at ", lm.key_begin,
             " and entries at ", lm.entry_begin, ", not ", key_at, " and ",
             entry_at)) {
      return false;
    }
    key_at = key_end;
    entry_at = entry_end;
    if (!owner_valid || !inside) continue;
    const auto keys = keys_.subspan(lm.key_begin, key_end - lm.key_begin);
    if (!StrictlyAscending(keys) &&
        Stop(sink, kRep, "list ", l, ": keys not strictly ascending")) {
      return false;
    }

    // Entries: the pool range first, then what it holds.
    const FlatVertexMeta& owner = vertices_[lm.owner];
    for (std::uint32_t i = 0; i < lm.entry_count; ++i) {
      const FlatEntry& e = entries_[lm.entry_begin + i];
      const std::uint32_t count = e.count();
      const bool in_pool =
          e.is_bitmap()
              ? std::uint64_t{e.offset} + owner.bitmap_words <=
                    bitmap_pool_.size()
              : std::uint64_t{e.offset} + count <= array_pool_.size();
      if (!in_pool) {
        if (Stop(sink, kBounds, "list ", l, ", entry ", i,
                 ": value set escapes its pool")) {
          return false;
        }
        continue;
      }
      const char* fault = nullptr;
      if (count == 0) {
        fault = "empty value set";
      } else if (count > owner.cand_count) {
        fault = "more values than the owner has candidates";
      } else if (e.is_bitmap()) {
        const auto bits = bitmap_pool_.subspan(e.offset, owner.bitmap_words);
        const std::uint32_t tail = owner.cand_count & 63;
        if (BitmapPopcount(bits) != count) {
          fault = "bitmap popcount differs from the stored count";
        } else if (tail != 0 && !bits.empty() && (bits.back() >> tail) != 0) {
          fault = "bitmap sets a rank past the owner's candidate count";
        }
      } else {
        const auto ranks = array_pool_.subspan(e.offset, count);
        if (!StrictlyAscending(ranks)) {
          fault = "ranks not strictly ascending";
        } else if (ranks.back() >= owner.cand_count) {
          fault = "a rank at or past the owner's candidate count";
        }
      }
      if (fault != nullptr &&
          Stop(sink, kRep, "list ", l, ", entry ", i, ": ", fault)) {
        return false;
      }
    }
  }
  if ((key_at != keys_.size() || entry_at != entries_.size()) &&
      Stop(sink, kRep, "key and entry ranges end at ", key_at, " and ",
           entry_at, "; their slabs hold ", keys_.size(), " and ",
           entries_.size())) {
    return false;
  }
  return true;
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

std::span<const VertexId> FlatCeciIndex::NteKeys(VertexId u,
                                                 std::size_t k) const {
  const FlatVertexMeta& m = vertices_[u];
  CECI_DCHECK(k < m.nte_count);
  const FlatListMeta& lm = lists_[m.nte_begin + static_cast<std::uint32_t>(k)];
  return keys_.subspan(lm.key_begin, lm.entry_count);
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
    const std::size_t key_bytes = l == m.te_list ? 0 : sizeof(VertexId);
    std::size_t bytes = sizeof(FlatListMeta) +
                        static_cast<std::size_t>(lm.entry_count) *
                            (key_bytes + sizeof(FlatEntry));
    for (std::uint32_t i = 0; i < lm.entry_count; ++i) {
      const FlatEntry& e = entries_[lm.entry_begin + i];
      bytes += e.is_bitmap()
                   ? static_cast<std::size_t>(m.bitmap_words) *
                         sizeof(std::uint64_t)
                   : static_cast<std::size_t>(e.count()) *
                         sizeof(std::uint32_t);
      *edge_count += e.count();
    }
    *key_count += lm.entry_count;
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
  return CeciBytes(flat.all_entries().size(), flat.TotalCandidateEdges(),
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
