#include "graphio/binary_csr.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "graph/graph_builder.h"

namespace ceci {
namespace {

constexpr char kMagic[4] = {'C', 'E', 'C', 'I'};
// Version 1 was a list of (vertex, label) and (u, v) edge pairs.
constexpr std::uint32_t kVersion = 2;

struct Header {
  char magic[4];
  std::uint32_t version;
  std::uint64_t num_vertices;
  std::uint64_t num_directed_edges;
  std::uint64_t num_label_entries;
};
static_assert(sizeof(Header) == 32, "the on-disk header is 32 bytes");

template <typename T>
bool WriteRaw(std::ofstream& out, const T* data, std::size_t count) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(T)));
  return static_cast<bool>(out);
}

template <typename T>
bool ReadRaw(std::ifstream& in, T* data, std::size_t count) {
  in.read(reinterpret_cast<char*>(data),
          static_cast<std::streamsize>(count * sizeof(T)));
  return static_cast<bool>(in);
}

// The resident sections of a CSR file, validated.
struct ResidentSections {
  std::uint64_t file_size = 0;
  std::uint64_t adjacency_base = 0;
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint32_t> label_offsets;
  std::vector<Label> labels;
};

// True iff `list` is strictly ascending.
bool StrictlyAscending(std::span<const std::uint32_t> list) {
  return std::adjacent_find(list.begin(), list.end(),
                            std::greater_equal<>()) == list.end();
}

// Parses the header and the offset and label sections. Every count is
// bounded by the file size before anything is allocated; the offsets and
// label offsets must start at 0, be monotone and end at their section
// lengths; every vertex carries a strictly ascending, non-empty label run.
// Adjacency lists are checked as they are read (OnDemandCsr::neighbors).
Status ReadResidentSections(std::ifstream& in, const std::string& path,
                            ResidentSections* out) {
  in.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  Header h{};
  if (!ReadRaw(in, &h, 1)) {
    return Status::Corruption("truncated header in " + path);
  }
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  if (h.version != kVersion) {
    return Status::Corruption("unsupported version " +
                              std::to_string(h.version) + " in " + path);
  }

  constexpr std::uint64_t kPerVertex =
      sizeof(std::uint64_t) + sizeof(std::uint32_t);
  const std::uint64_t body = file_size - sizeof(Header);
  if (h.num_vertices >= body / kPerVertex) {
    return Status::Corruption("vertex count exceeds the file in " + path);
  }
  const std::uint64_t label_bytes = body - (h.num_vertices + 1) * kPerVertex;
  if (h.num_label_entries > label_bytes / sizeof(Label)) {
    return Status::Corruption("label count exceeds the file in " + path);
  }

  const std::size_t n = h.num_vertices;
  out->offsets.resize(n + 1);
  out->label_offsets.resize(n + 1);
  out->labels.resize(h.num_label_entries);
  if (!ReadRaw(in, out->offsets.data(), n + 1) ||
      !ReadRaw(in, out->label_offsets.data(), n + 1) ||
      !ReadRaw(in, out->labels.data(), out->labels.size())) {
    return Status::Corruption("truncated resident sections in " + path);
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (out->offsets[v] > out->offsets[v + 1]) {
      return Status::Corruption("offsets decrease at vertex " +
                                std::to_string(v) + " in " + path);
    }
    const std::uint32_t begin = out->label_offsets[v];
    const std::uint32_t end = out->label_offsets[v + 1];
    // The inverted label index holds max label + 1 slots, so label values
    // are bounded by the file size too.
    if (begin >= end || end > out->labels.size() ||
        !StrictlyAscending(
            {out->labels.data() + begin, out->labels.data() + end}) ||
        out->labels[end - 1] >= file_size) {
      return Status::Corruption("invalid label run of vertex " +
                                std::to_string(v) + " in " + path);
    }
  }
  if (out->offsets[0] != 0 || out->offsets[n] != h.num_directed_edges ||
      out->label_offsets[0] != 0 ||
      out->label_offsets[n] != h.num_label_entries) {
    return Status::Corruption("sections inconsistent with the header in " +
                              path);
  }
  out->file_size = file_size;
  out->adjacency_base = static_cast<std::uint64_t>(in.tellg());
  return Status::Ok();
}

}  // namespace

Status WriteBinaryCsr(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");

  const std::size_t n = g.num_vertices();
  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + g.degree(v);
  }
  std::vector<std::uint32_t> label_offsets(n + 1, 0);
  std::vector<Label> labels;
  for (VertexId v = 0; v < n; ++v) {
    auto ls = g.labels(v);
    labels.insert(labels.end(), ls.begin(), ls.end());
    label_offsets[v + 1] = static_cast<std::uint32_t>(labels.size());
  }

  Header h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kVersion;
  h.num_vertices = n;
  h.num_directed_edges = offsets[n];
  h.num_label_entries = labels.size();
  if (!WriteRaw(out, &h, 1) || !WriteRaw(out, offsets.data(), n + 1) ||
      !WriteRaw(out, label_offsets.data(), n + 1) ||
      !WriteRaw(out, labels.data(), labels.size())) {
    return Status::IoError("write failure on " + path);
  }
  for (VertexId v = 0; v < n; ++v) {
    auto adj = g.neighbors(v);
    if (!WriteRaw(out, adj.data(), adj.size())) {
      return Status::IoError("write failure on " + path);
    }
  }
  return Status::Ok();
}

Result<Graph> ReadBinaryCsr(const std::string& path) {
  auto store = OnDemandCsr::Open(path);
  if (!store.ok()) return store.status();
  // Sequential reads: the store seeks only when a read is out of order.
  GraphBuilder builder;
  builder.ReserveVertices(store->num_vertices());
  for (VertexId v = 0; v < store->num_vertices(); ++v) {
    for (Label l : store->labels(v)) builder.AddLabel(v, l);
    for (VertexId w : store->neighbors(v)) {
      if (v < w) builder.AddEdge(v, w);
    }
  }
  if (!store->status().ok()) return store->status();
  return builder.Build();
}

Result<OnDemandCsr> OnDemandCsr::Open(const std::string& path) {
  auto file = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*file) return Status::IoError("cannot open " + path);
  ResidentSections sections;
  CECI_RETURN_IF_ERROR(ReadResidentSections(*file, path, &sections));

  OnDemandCsr store;
  store.file_size_ = sections.file_size;
  store.adjacency_base_ = sections.adjacency_base;
  store.position_ = sections.adjacency_base;
  store.offsets_ = std::move(sections.offsets);
  store.labels_ = VertexLabels(std::move(sections.label_offsets),
                               std::move(sections.labels));
  store.file_ = std::move(file);
  return store;
}

std::span<const VertexId> OnDemandCsr::neighbors(VertexId v) const {
  ++requests_;
  auto fail = [&](std::string message) {
    if (status_.ok()) status_ = Status::Corruption(std::move(message));
    return std::span<const VertexId>();
  };
  // The header's edge count is checked against the offsets, not the file,
  // so a list past the end of a truncated file is caught here, before the
  // buffer grows.
  if (offsets_[v + 1] > (file_size_ - adjacency_base_) / sizeof(VertexId)) {
    return fail("adjacency of vertex " + std::to_string(v) +
                " past end of file");
  }
  const std::size_t count = degree(v);
  if (count == 0) return {};
  const std::uint64_t begin =
      adjacency_base_ + offsets_[v] * sizeof(VertexId);
  if (begin != position_) file_->seekg(static_cast<std::streamoff>(begin));
  buffer_.resize(count);
  const bool read = ReadRaw(*file_, buffer_.data(), count);
  position_ = begin + count * sizeof(VertexId);
  if (!read || !StrictlyAscending(buffer_) ||
      buffer_.back() >= num_vertices()) {
    file_->clear();
    position_ = ~std::uint64_t{0};  // seek on the next read
    return fail(read ? "invalid adjacency list of vertex " + std::to_string(v)
                     : "truncated adjacency section");
  }
  bytes_read_ += count * sizeof(VertexId);
  return buffer_;
}

template NlcIndex::NlcIndex(const OnDemandCsr&);

}  // namespace ceci
