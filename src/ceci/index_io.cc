#include "ceci/index_io.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/crc32.h"

namespace ceci {
namespace {

constexpr char kMagic[4] = {'C', 'E', 'I', 'X'};
constexpr std::uint32_t kVersion = 4;
constexpr std::uint32_t kHeaderBytes = 104;
constexpr std::uint32_t kSlabCount = FlatCeciIndex::kNumSlabs;
// plan_flags bit 0: the stored restrictions are the mirror of the
// Grochow–Kellis set.
constexpr std::uint32_t kPlanMirrored = 1;

struct Header {
  char magic[4];
  std::uint32_t version;
  std::uint32_t header_bytes;
  std::uint32_t slab_count;
  std::uint64_t num_query_vertices;
  std::uint64_t arena_offset;
  std::uint64_t arena_bytes;
  std::uint64_t plan_offset;
  std::uint64_t num_restrictions;
  std::uint64_t automorphisms;
  std::uint64_t pattern_offset;
  std::uint64_t pattern_bytes;
  std::uint32_t slab_table_crc;
  std::uint32_t plan_crc;
  std::uint32_t pattern_crc;
  std::uint32_t plan_flags;
  std::uint32_t reserved;
  std::uint32_t header_crc;  // over the preceding 100 bytes
};
// File-format contract: the header and slab records are written and read
// by memcpy, so every field offset below is part of the CEIX format. A
// field that moves (reordering, an alignment change, an accidental
// padding hole) must fail here at compile time, not as a corruption
// report against every previously written index.
static_assert(sizeof(Header) == kHeaderBytes);
static_assert(std::is_standard_layout_v<Header>);
static_assert(std::is_trivially_copyable_v<Header>);
static_assert(offsetof(Header, magic) == 0);
static_assert(offsetof(Header, version) == 4);
static_assert(offsetof(Header, header_bytes) == 8);
static_assert(offsetof(Header, slab_count) == 12);
static_assert(offsetof(Header, num_query_vertices) == 16);
static_assert(offsetof(Header, arena_offset) == 24);
static_assert(offsetof(Header, arena_bytes) == 32);
static_assert(offsetof(Header, plan_offset) == 40);
static_assert(offsetof(Header, num_restrictions) == 48);
static_assert(offsetof(Header, automorphisms) == 56);
static_assert(offsetof(Header, pattern_offset) == 64);
static_assert(offsetof(Header, pattern_bytes) == 72);
static_assert(offsetof(Header, slab_table_crc) == 80);
static_assert(offsetof(Header, plan_crc) == 84);
static_assert(offsetof(Header, pattern_crc) == 88);
static_assert(offsetof(Header, plan_flags) == 92);
static_assert(offsetof(Header, reserved) == 96);
static_assert(offsetof(Header, header_crc) == 100,
              "header_crc must be the final word: it covers [0, 100)");

struct SlabRecord {
  std::uint64_t offset;  // into the arena
  std::uint64_t bytes;
  std::uint32_t kind;  // SlabKind, canonical order
  std::uint32_t crc;
};
static_assert(sizeof(SlabRecord) == 24);
static_assert(std::is_standard_layout_v<SlabRecord>);
static_assert(std::is_trivially_copyable_v<SlabRecord>);
static_assert(offsetof(SlabRecord, offset) == 0);
static_assert(offsetof(SlabRecord, bytes) == 8);
static_assert(offsetof(SlabRecord, kind) == 16);
static_assert(offsetof(SlabRecord, crc) == 20);

constexpr std::uint64_t kArenaOffset =
    kHeaderBytes + kSlabCount * sizeof(SlabRecord);
static_assert(kArenaOffset == 320 && kArenaOffset % 8 == 0);

// The plan region: the tree parent of every query vertex (kInvalidVertex
// for the root), then each restriction as a (smaller, larger) pair.
std::vector<std::uint32_t> EncodePlan(const QueryTree& tree,
                                      const SymmetryConstraints& symmetry) {
  std::vector<std::uint32_t> plan;
  plan.reserve(tree.num_vertices() + 2 * symmetry.constraints().size());
  for (VertexId u = 0; u < tree.num_vertices(); ++u) {
    plan.push_back(tree.parent(u));
  }
  for (const SymmetryConstraints::Constraint& c : symmetry.constraints()) {
    plan.push_back(c.smaller);
    plan.push_back(c.larger);
  }
  return plan;
}

// What an image of `tree`'s size and order owes the tree: its recorded
// tree parents, and per vertex one NTE list per incoming non-tree edge,
// keyed by a subset of that edge's NTE parent's candidates (NteAt finds a
// key only inside the rank window that subset implies). An order can fit
// a query whose vertices are numbered otherwise than the ones the image
// was built on; the tree parents and the NTE lists then differ.
Status CheckImageFitsTree(const LoadedFlatIndex& image,
                          const QueryTree& tree) {
  const FlatCeciIndex& flat = image.index;
  for (VertexId u = 0; u < tree.num_vertices(); ++u) {
    const std::span<const std::uint32_t> nte_ids = tree.nte_in(u);
    if (image.parents[u] != tree.parent(u) ||
        flat.nte_count(u) != nte_ids.size()) {
      return Status::InvalidArgument(
          "index image tree parents or non-tree edges do not fit its query");
    }
    for (std::size_t k = 0; k < nte_ids.size(); ++k) {
      const VertexId parent = tree.non_tree_edges()[nte_ids[k]].parent;
      const std::span<const VertexId> keys = flat.NteKeys(u, k);
      const std::span<const VertexId> cands = flat.candidates(parent);
      if (!std::includes(cands.begin(), cands.end(), keys.begin(),
                         keys.end())) {
        return Status::Corruption("NTE keys of u" + std::to_string(u) +
                                  " are not candidates of u" +
                                  std::to_string(parent));
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status WriteFlatIndex(const FlatCeciIndex& flat, const QueryTree& tree,
                      const SymmetryConstraints& symmetry,
                      const std::string& pattern, const std::string& path) {
  if (tree.num_vertices() != flat.num_query_vertices()) {
    return Status::InvalidArgument(
        "query tree does not fit the index it is saved with");
  }
  const std::span<const std::byte> arena = flat.arena();

  SlabRecord table[kSlabCount];
  for (std::uint32_t s = 0; s < kSlabCount; ++s) {
    const FlatCeciIndex::Slab& slab =
        flat.slab(static_cast<FlatCeciIndex::SlabKind>(s));
    table[s].offset = slab.offset;
    table[s].bytes = slab.bytes;
    table[s].kind = s;
    table[s].crc = Crc32(arena.data() + slab.offset, slab.bytes);
  }
  const std::vector<std::uint32_t> plan = EncodePlan(tree, symmetry);
  const std::size_t plan_bytes = plan.size() * sizeof(std::uint32_t);

  Header h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kVersion;
  h.header_bytes = kHeaderBytes;
  h.slab_count = kSlabCount;
  h.num_query_vertices = flat.num_query_vertices();
  h.arena_offset = kArenaOffset;
  h.arena_bytes = arena.size();
  h.plan_offset = kArenaOffset + arena.size();
  h.num_restrictions = symmetry.constraints().size();
  h.automorphisms = symmetry.automorphism_count();
  h.pattern_offset = h.plan_offset + plan_bytes;
  h.pattern_bytes = pattern.size();
  h.slab_table_crc = Crc32(table, sizeof(table));
  h.plan_crc = Crc32(plan.data(), plan_bytes);
  h.pattern_crc = Crc32(pattern.data(), pattern.size());
  h.plan_flags = symmetry.mirrored() ? kPlanMirrored : 0;
  h.header_crc = Crc32(&h, kHeaderBytes - sizeof(std::uint32_t));

  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
  out.write(reinterpret_cast<const char*>(table), sizeof(table));
  out.write(reinterpret_cast<const char*>(arena.data()),
            static_cast<std::streamsize>(arena.size()));
  out.write(reinterpret_cast<const char*>(plan.data()),
            static_cast<std::streamsize>(plan_bytes));
  out.write(pattern.data(), static_cast<std::streamsize>(pattern.size()));
  out.flush();
  if (!out) return Status::IoError("write failure on " + path);
  return Status::Ok();
}

Result<LoadedFlatIndex> OpenFlatIndex(const std::string& path,
                                      const IndexLoadOptions& options) {
  // Both load modes validate against the same raw byte view, and both
  // hand the whole file to the index, which keeps it and reads the arena
  // at kArenaOffset: the mapping, or one u64 buffer the file is read into.
  MappedFile mapped;
  std::vector<std::uint64_t> owned;
  const std::byte* data = nullptr;
  std::size_t size = 0;
  if (options.use_mmap) {
    Result<MappedFile> m = MappedFile::Open(path);
    if (!m.ok()) return m.status();
    mapped = std::move(m).value();
    data = mapped.data();
    size = mapped.size();
  } else {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) return Status::IoError("cannot open " + path);
    size = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    owned.resize((size + 7) / 8);
    in.read(reinterpret_cast<char*>(owned.data()),
            static_cast<std::streamsize>(size));
    if (!in) return Status::IoError("read failure on " + path);
    data = reinterpret_cast<const std::byte*>(owned.data());
  }

  // Magic and version come first, so an image of another version is
  // named as such rather than misread against this version's header.
  Header h{};
  if (size < 8) return Status::Corruption("truncated header");
  std::memcpy(&h, data, 8);
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  if (h.version != kVersion) {
    return Status::Corruption("unsupported index version " +
                              std::to_string(h.version) + " (expected " +
                              std::to_string(kVersion) + "; re-save it)");
  }
  if (size < sizeof(Header)) return Status::Corruption("truncated header");
  std::memcpy(&h, data, sizeof(h));
  if (h.header_bytes != kHeaderBytes || h.slab_count != kSlabCount) {
    return Status::Corruption("unexpected header geometry");
  }
  if (Crc32(&h, kHeaderBytes - sizeof(std::uint32_t)) != h.header_crc) {
    return Status::Corruption("header checksum mismatch");
  }
  if (h.arena_offset != kArenaOffset) {
    return Status::Corruption("unexpected arena offset");
  }
  if (size < kArenaOffset) return Status::Corruption("truncated slab table");
  SlabRecord table[kSlabCount];
  std::memcpy(table, data + kHeaderBytes, sizeof(table));
  if (Crc32(table, sizeof(table)) != h.slab_table_crc) {
    return Status::Corruption("slab table checksum mismatch");
  }
  if (h.arena_bytes > size - kArenaOffset) {
    return Status::Corruption("truncated arena");
  }
  if (h.plan_offset != kArenaOffset + h.arena_bytes ||
      h.num_query_vertices > (size - h.plan_offset) / 4 ||
      h.num_restrictions >
          (size - h.plan_offset - 4 * h.num_query_vertices) / 8) {
    return Status::Corruption("truncated plan");
  }
  const std::uint64_t plan_words =
      h.num_query_vertices + 2 * h.num_restrictions;
  if (h.pattern_offset != h.plan_offset + 4 * plan_words ||
      h.pattern_bytes > size - h.pattern_offset) {
    return Status::Corruption("truncated pattern");
  }

  const std::byte* arena = data + kArenaOffset;
  FlatCeciIndex::Slab slabs[kSlabCount];
  for (std::uint32_t s = 0; s < kSlabCount; ++s) {
    if (table[s].kind != s) {
      return Status::Corruption("slab table kinds out of order");
    }
    if (table[s].offset > h.arena_bytes ||
        table[s].bytes > h.arena_bytes - table[s].offset) {
      return Status::Corruption("slab " + std::to_string(s) +
                                " exceeds the arena");
    }
    if (Crc32(arena + table[s].offset, table[s].bytes) != table[s].crc) {
      return Status::Corruption("slab checksum mismatch (slab " +
                                std::to_string(s) + ")");
    }
    slabs[s].offset = table[s].offset;
    slabs[s].bytes = table[s].bytes;
  }

  LoadedFlatIndex loaded;
  std::vector<std::uint32_t> plan(static_cast<std::size_t>(plan_words));
  std::memcpy(plan.data(), data + h.plan_offset, plan.size() * 4);
  if (Crc32(plan.data(), plan.size() * 4) != h.plan_crc) {
    return Status::Corruption("plan checksum mismatch");
  }
  const std::size_t nq = static_cast<std::size_t>(h.num_query_vertices);
  loaded.parents.assign(plan.begin(), plan.begin() + nq);
  for (VertexId p : loaded.parents) {
    if (p != kInvalidVertex && p >= nq) {
      return Status::Corruption("tree parent beyond the query");
    }
  }
  std::vector<SymmetryConstraints::Constraint> restrictions;
  restrictions.reserve(static_cast<std::size_t>(h.num_restrictions));
  for (std::size_t i = nq; i < plan.size(); i += 2) {
    if (plan[i] >= nq || plan[i + 1] >= nq || plan[i] == plan[i + 1]) {
      return Status::Corruption("restriction pair names no two distinct "
                                "query vertices");
    }
    restrictions.push_back({plan[i], plan[i + 1]});
  }
  loaded.symmetry = SymmetryConstraints::FromPairs(
      nq, std::move(restrictions),
      static_cast<std::size_t>(h.automorphisms),
      (h.plan_flags & kPlanMirrored) != 0);
  loaded.pattern.assign(
      reinterpret_cast<const char*>(data + h.pattern_offset),
      static_cast<std::size_t>(h.pattern_bytes));
  if (Crc32(loaded.pattern.data(), loaded.pattern.size()) != h.pattern_crc) {
    return Status::Corruption("pattern checksum mismatch");
  }

  Result<FlatCeciIndex> flat = FlatCeciIndex::FromArena(
      std::move(owned), std::move(mapped), kArenaOffset,
      static_cast<std::size_t>(h.arena_bytes), slabs,
      static_cast<std::size_t>(h.num_query_vertices));
  if (!flat.ok()) return flat.status();
  loaded.index = std::move(flat).value();
  // Enumeration reads a TE entry by its parent candidate's rank
  // (FlatCeciIndex::TeEntry): every TE list holds one entry per candidate
  // of the recorded tree parent, or a rank would name another candidate's
  // entry or none.
  for (VertexId u = 0; u < nq; ++u) {
    if (loaded.index.vertex_metas()[u].te_list == kNoFlatList) continue;
    const VertexId parent = loaded.parents[u];
    if (parent == kInvalidVertex ||
        loaded.index.te_count(u) != loaded.index.candidates(parent).size()) {
      return Status::Corruption("TE list of u" + std::to_string(u) +
                                " is not as long as its parent's candidates");
    }
  }
  return loaded;
}

Result<QueryTree> ImageQueryTree(const LoadedFlatIndex& image,
                                 const Graph& query) {
  const FlatCeciIndex& flat = image.index;
  const std::span<const VertexId> order = flat.matching_order();
  if (order.empty() || flat.num_query_vertices() != query.num_vertices()) {
    return Status::InvalidArgument(
        "index image order does not fit its query");
  }
  auto tree = QueryTree::Build(query, order[0]);
  if (!tree.ok()) return tree.status();
  CECI_RETURN_IF_ERROR(tree->SetMatchingOrder(
      std::vector<VertexId>(order.begin(), order.end())));
  CECI_RETURN_IF_ERROR(CheckImageFitsTree(image, *tree));
  return tree;
}

Result<FlatCeciIndex> ReadFlatIndex(const QueryTree& tree,
                                    const std::string& path,
                                    const IndexLoadOptions& options) {
  Result<LoadedFlatIndex> loaded = OpenFlatIndex(path, options);
  if (!loaded.ok()) return loaded.status();
  if (loaded->index.num_query_vertices() != tree.num_vertices()) {
    return Status::InvalidArgument(
        "index was built for a different query size");
  }
  const std::span<const VertexId> order = loaded->index.matching_order();
  if (!std::equal(order.begin(), order.end(),
                  tree.matching_order().begin())) {
    return Status::InvalidArgument(
        "index was built for a different matching order");
  }
  CECI_RETURN_IF_ERROR(CheckImageFitsTree(*loaded, tree));
  return std::move(loaded->index);
}

}  // namespace ceci
