#include "ceci/index_io.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <type_traits>
#include <vector>

#include "util/crc32.h"

namespace ceci {
namespace {

constexpr char kMagic[4] = {'C', 'E', 'I', 'X'};
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kHeaderBytes = 72;
constexpr std::uint32_t kSlabCount = FlatCeciIndex::kNumSlabs;

struct Header {
  char magic[4];
  std::uint32_t version;
  std::uint32_t header_bytes;
  std::uint32_t slab_count;
  std::uint64_t num_query_vertices;
  std::uint64_t arena_offset;
  std::uint64_t arena_bytes;
  std::uint64_t pattern_offset;
  std::uint64_t pattern_bytes;
  std::uint32_t slab_table_crc;
  std::uint32_t pattern_crc;
  std::uint32_t reserved;
  std::uint32_t header_crc;  // over the preceding 68 bytes
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
static_assert(offsetof(Header, pattern_offset) == 40);
static_assert(offsetof(Header, pattern_bytes) == 48);
static_assert(offsetof(Header, slab_table_crc) == 56);
static_assert(offsetof(Header, pattern_crc) == 60);
static_assert(offsetof(Header, reserved) == 64);
static_assert(offsetof(Header, header_crc) == 68,
              "header_crc must be the final word: it covers [0, 68)");

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
static_assert(kArenaOffset == 288 && kArenaOffset % 8 == 0);

}  // namespace

Status WriteFlatIndex(const FlatCeciIndex& flat, const std::string& pattern,
                      const std::string& path) {
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

  Header h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kVersion;
  h.header_bytes = kHeaderBytes;
  h.slab_count = kSlabCount;
  h.num_query_vertices = flat.num_query_vertices();
  h.arena_offset = kArenaOffset;
  h.arena_bytes = arena.size();
  h.pattern_offset = kArenaOffset + arena.size();
  h.pattern_bytes = pattern.size();
  h.slab_table_crc = Crc32(table, sizeof(table));
  h.pattern_crc = Crc32(pattern.data(), pattern.size());
  h.header_crc = Crc32(&h, kHeaderBytes - sizeof(std::uint32_t));

  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
  out.write(reinterpret_cast<const char*>(table), sizeof(table));
  out.write(reinterpret_cast<const char*>(arena.data()),
            static_cast<std::streamsize>(arena.size()));
  out.write(pattern.data(), static_cast<std::streamsize>(pattern.size()));
  out.flush();
  if (!out) return Status::IoError("write failure on " + path);
  return Status::Ok();
}

Result<LoadedFlatIndex> OpenFlatIndex(const std::string& path,
                                      const IndexLoadOptions& options) {
  // Both load modes validate against the same raw byte view; only the
  // arena hand-off at the end differs (copy vs borrow the mapping).
  MappedFile mapped;
  std::vector<char> buffer;
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
    buffer.resize(size);
    in.read(buffer.data(), static_cast<std::streamsize>(size));
    if (!in) return Status::IoError("read failure on " + path);
    data = reinterpret_cast<const std::byte*>(buffer.data());
  }

  if (size < sizeof(Header)) return Status::Corruption("truncated header");
  Header h{};
  std::memcpy(&h, data, sizeof(h));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  if (h.version != kVersion) {
    return Status::Corruption("unsupported index version");
  }
  if (h.header_bytes != kHeaderBytes || h.slab_count != kSlabCount) {
    return Status::Corruption("unexpected header geometry");
  }
  if (options.verify_checksums &&
      Crc32(&h, kHeaderBytes - sizeof(std::uint32_t)) != h.header_crc) {
    return Status::Corruption("header checksum mismatch");
  }
  if (h.arena_offset != kArenaOffset) {
    return Status::Corruption("unexpected arena offset");
  }
  if (size < kArenaOffset) return Status::Corruption("truncated slab table");
  SlabRecord table[kSlabCount];
  std::memcpy(table, data + kHeaderBytes, sizeof(table));
  if (options.verify_checksums &&
      Crc32(table, sizeof(table)) != h.slab_table_crc) {
    return Status::Corruption("slab table checksum mismatch");
  }
  if (h.arena_bytes > size - kArenaOffset) {
    return Status::Corruption("truncated arena");
  }
  if (h.pattern_offset != kArenaOffset + h.arena_bytes ||
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
    if (options.verify_checksums &&
        Crc32(arena + table[s].offset, table[s].bytes) != table[s].crc) {
      return Status::Corruption("slab checksum mismatch (slab " +
                                std::to_string(s) + ")");
    }
    slabs[s].offset = table[s].offset;
    slabs[s].bytes = table[s].bytes;
  }

  LoadedFlatIndex loaded;
  loaded.pattern.assign(
      reinterpret_cast<const char*>(data + h.pattern_offset),
      static_cast<std::size_t>(h.pattern_bytes));
  if (options.verify_checksums &&
      Crc32(loaded.pattern.data(), loaded.pattern.size()) != h.pattern_crc) {
    return Status::Corruption("pattern checksum mismatch");
  }

  Result<FlatCeciIndex> flat = [&]() -> Result<FlatCeciIndex> {
    if (options.use_mmap) {
      return FlatCeciIndex::FromArena(
          {}, std::move(mapped), kArenaOffset,
          static_cast<std::size_t>(h.arena_bytes), slabs,
          static_cast<std::size_t>(h.num_query_vertices));
    }
    std::vector<std::uint64_t> owned((h.arena_bytes + 7) / 8, 0);
    std::memcpy(owned.data(), arena, h.arena_bytes);
    return FlatCeciIndex::FromArena(
        std::move(owned), {}, 0, static_cast<std::size_t>(h.arena_bytes),
        slabs, static_cast<std::size_t>(h.num_query_vertices));
  }();
  if (!flat.ok()) return flat.status();
  loaded.index = std::move(flat).value();
  return loaded;
}

Result<QueryTree> ImageQueryTree(const FlatCeciIndex& flat,
                                 const Graph& query) {
  const std::span<const VertexId> order = flat.matching_order();
  if (order.empty() || flat.num_query_vertices() != query.num_vertices()) {
    return Status::InvalidArgument(
        "index image order does not fit its query");
  }
  auto tree = QueryTree::Build(query, order[0]);
  if (!tree.ok()) return tree.status();
  CECI_RETURN_IF_ERROR(tree->SetMatchingOrder(
      std::vector<VertexId>(order.begin(), order.end())));
  // An order can fit a query whose vertices are numbered otherwise than
  // the ones the image was built on; the NTE lists per vertex then differ.
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    if (flat.nte_count(u) != tree->nte_in(u).size()) {
      return Status::InvalidArgument(
          "index image non-tree edges do not fit its query");
    }
  }
  return tree;
}

Result<FlatCeciIndex> ReadFlatIndex(const QueryTree& tree,
                                    const std::string& path,
                                    const IndexLoadOptions& options) {
  Result<LoadedFlatIndex> loaded = OpenFlatIndex(path, options);
  if (!loaded.ok()) return loaded.status();
  FlatCeciIndex flat = std::move(loaded->index);
  if (flat.num_query_vertices() != tree.num_vertices()) {
    return Status::InvalidArgument(
        "index was built for a different query size");
  }
  const std::span<const VertexId> order = flat.matching_order();
  if (!std::equal(order.begin(), order.end(),
                  tree.matching_order().begin())) {
    return Status::InvalidArgument(
        "index was built for a different matching order");
  }
  return flat;
}

}  // namespace ceci
