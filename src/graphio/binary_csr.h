// Binary CSR serialization.
//
// The paper's shared-storage distributed mode (§5) keeps one copy of the
// data graph in CSR form on a lustre file system, located through a
// beginning_position array. This module provides that on-disk format: a
// small header, the offsets (beginning_position) array, the adjacency
// array, and the label arrays. distsim charges a build's adjacency reads
// against this layout through its cost model (Machine::ChargeStorage).
#ifndef CECI_GRAPHIO_BINARY_CSR_H_
#define CECI_GRAPHIO_BINARY_CSR_H_

#include <string>

#include "graph/graph.h"
#include "util/status.h"

namespace ceci {

/// Serializes `g` to `path` in CECI binary CSR format (versioned, with
/// magic "CECI").
Status WriteBinaryCsr(const Graph& g, const std::string& path);

/// Loads a graph written by WriteBinaryCsr.
Result<Graph> ReadBinaryCsr(const std::string& path);

}  // namespace ceci

#endif  // CECI_GRAPHIO_BINARY_CSR_H_
