// SNAP-style text graph I/O.
//
// Two formats are supported:
//  * Plain edge lists ("u v" per line, '#' comments) — the format of the
//    Stanford SNAP datasets the paper evaluates on (§6, Table 1).
//  * Labeled graphs ("v <id> <label...>" vertex lines followed by
//    "e <u> <v>" edge lines), the format used by labeled benchmarks such as
//    the Human dataset.
// ReadGraph picks a reader by format name, the binary CSR included.
#ifndef CECI_GRAPHIO_EDGE_LIST_H_
#define CECI_GRAPHIO_EDGE_LIST_H_

#include <string>

#include "graph/graph.h"
#include "util/status.h"

namespace ceci {

/// Reads a plain "u v" edge list. All vertices get label 0.
Result<Graph> ReadEdgeList(const std::string& path);

/// Parses a plain edge list from a string (testing hook).
Result<Graph> ParseEdgeList(const std::string& text);

/// Reads a labeled graph in "v id label..." / "e u v" format.
Result<Graph> ReadLabeledGraph(const std::string& path);

/// Parses the labeled format from a string (testing hook).
Result<Graph> ParseLabeledGraph(const std::string& text);

/// Writes `g` in the labeled "v/e" format (round-trips through
/// ReadLabeledGraph).
Status WriteLabeledGraph(const Graph& g, const std::string& path);

/// Reads `path` as a tool's `--format`: "edgelist", "labeled" or "csr"
/// (ReadBinaryCsr). Any other format is kInvalidArgument.
Result<Graph> ReadGraph(const std::string& path, const std::string& format);

}  // namespace ceci

#endif  // CECI_GRAPHIO_EDGE_LIST_H_
