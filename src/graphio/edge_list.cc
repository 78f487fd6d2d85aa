#include "graphio/edge_list.h"

#include <charconv>
#include <fstream>
#include <sstream>

#include "graph/graph_builder.h"
#include "graphio/binary_csr.h"

namespace ceci {
namespace {

Result<std::string> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Parses whitespace-separated unsigned integers from `line` into `out`
// (capacity `max`). Returns the number parsed, or -1 on malformed input.
int ParseUints(std::string_view line, std::uint64_t* out, int max) {
  int count = 0;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           (line[i] == ' ' || line[i] == '\t' || line[i] == '\r')) {
      ++i;
    }
    if (i >= line.size()) break;
    if (count == max) return -1;
    std::uint64_t value = 0;
    auto [ptr, ec] =
        std::from_chars(line.data() + i, line.data() + line.size(), value);
    if (ec != std::errc()) return -1;
    out[count++] = value;
    i = static_cast<std::size_t>(ptr - line.data());
  }
  return count;
}

}  // namespace

Result<Graph> ParseEdgeList(const std::string& text) {
  GraphBuilder builder;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::uint64_t uv[2];
    int n = ParseUints(line, uv, 2);
    if (n == 0) continue;
    if (n != 2) {
      return Status::Corruption("edge list line " + std::to_string(lineno) +
                                ": expected 'u v'");
    }
    if (uv[0] >= kInvalidVertex || uv[1] >= kInvalidVertex) {
      return Status::Corruption("edge list line " + std::to_string(lineno) +
                                ": vertex id out of range");
    }
    builder.AddEdge(static_cast<VertexId>(uv[0]), static_cast<VertexId>(uv[1]));
  }
  if (builder.num_vertices() == 0) {
    return Status::Corruption("edge list contains no edges");
  }
  return builder.Build();
}

Result<Graph> ReadEdgeList(const std::string& path) {
  auto text = Slurp(path);
  if (!text.ok()) return text.status();
  return ParseEdgeList(*text);
}

Result<Graph> ParseLabeledGraph(const std::string& text) {
  GraphBuilder builder;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    char kind = line[0];
    std::string_view rest(line);
    rest.remove_prefix(1);
    std::uint64_t vals[18];
    int n = ParseUints(rest, vals, 18);
    if (kind == 't') continue;  // "t # <id>" transaction headers are ignored
    if (kind == 'v') {
      if (n < 1 || vals[0] >= kInvalidVertex) {
        return Status::Corruption("labeled graph line " +
                                  std::to_string(lineno) + ": bad vertex");
      }
      auto v = static_cast<VertexId>(vals[0]);
      if (n == 1) {
        builder.AddLabel(v, 0);
      } else {
        for (int i = 1; i < n; ++i) {
          builder.AddLabel(v, static_cast<Label>(vals[i]));
        }
      }
    } else if (kind == 'e') {
      if (n < 2 || vals[0] >= kInvalidVertex || vals[1] >= kInvalidVertex) {
        return Status::Corruption("labeled graph line " +
                                  std::to_string(lineno) + ": bad edge");
      }
      builder.AddEdge(static_cast<VertexId>(vals[0]),
                      static_cast<VertexId>(vals[1]));
    } else {
      return Status::Corruption("labeled graph line " +
                                std::to_string(lineno) +
                                ": unknown record kind");
    }
  }
  if (builder.num_vertices() == 0) {
    return Status::Corruption("labeled graph contains no vertices");
  }
  return builder.Build();
}

Result<Graph> ReadLabeledGraph(const std::string& path) {
  auto text = Slurp(path);
  if (!text.ok()) return text.status();
  return ParseLabeledGraph(*text);
}

Status WriteLabeledGraph(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out << "v " << v;
    for (Label l : g.labels(v)) out << " " << l;
    out << "\n";
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId w : g.neighbors(v)) {
      if (v < w) out << "e " << v << " " << w << "\n";
    }
  }
  if (!out) return Status::IoError("write failure on " + path);
  return Status::Ok();
}

Result<Graph> ReadGraph(const std::string& path, const std::string& format) {
  if (format == "edgelist") return ReadEdgeList(path);
  if (format == "labeled") return ReadLabeledGraph(path);
  if (format == "csr") return ReadBinaryCsr(path);
  return Status::InvalidArgument("unknown --format " + format);
}

}  // namespace ceci
