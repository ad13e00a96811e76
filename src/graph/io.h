// Text serialization for graphs: compact edge-list format (round-trippable),
// a streaming loader/writer for Graph500-scale files, and Graphviz DOT output
// for the examples.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/graph/graph.h"

namespace wb {

/// "n m\nu1 v1\nu2 v2\n..." — canonical since Graph::edges() is sorted.
/// read_edge_list below reads it back.
[[nodiscard]] std::string to_edge_list(const Graph& g);

/// Hard admission bounds for external files (checked before any allocation,
/// so a hostile header cannot drive a giant resize).
struct EdgeListLimits {
  std::size_t max_nodes = kMaxGraphNodes;
  std::size_t max_edges = std::size_t{1} << 35;
};

/// What the streaming loader did, for benches and diagnostics.
struct EdgeListLoadStats {
  std::size_t bytes_read = 0;    // input bytes consumed (per pass)
  bool two_pass = false;         // seekable input: CSR built with zero
                                 // intermediate edge buffer
  Graph::BuildStats build;       // peak bytes, dropped loops/duplicates
};

/// Streaming edge-list reader. Same "n m" + m pairs format, but tolerant the
/// way external Graph500-style files need: pairs may arrive unsorted, in
/// either orientation, duplicated, or as both (u,v) and (v,u) — all collapse
/// via streaming symmetrization; self-loops are dropped. Malformed tokens,
/// out-of-range endpoints, numeric overflow, and headers exceeding `limits`
/// are DataErrors. Seekable streams are read twice and build the CSR in
/// place (peak memory ~= the CSR itself); non-seekable streams fall back to
/// one buffered edge vector.
[[nodiscard]] Graph read_edge_list(std::istream& in,
                                   const EdgeListLimits& limits = {},
                                   EdgeListLoadStats* stats = nullptr);

/// Streaming writer for the same format: chunked, no whole-graph string.
void write_edge_list(const Graph& g, std::ostream& out);

/// Graphviz DOT (undirected). `highlight` nodes are drawn filled.
[[nodiscard]] std::string to_dot(const Graph& g,
                                 const std::vector<NodeId>& highlight = {});

}  // namespace wb
