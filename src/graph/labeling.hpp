#pragma once
// The Constrained port labeling (see PortLabeling).
//
// It implements the §8.2 model assumption needed by the ASYNC general
// algorithm: for any edge (u,v), the two ports must not be labelled (1,1),
// (1,2), (2,1) or (2,2), except where low degree forces a low port
// (degree-1 nodes only have port 1; degree-2 nodes only ports 1,2).

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace disp {

/// The Constrained labeling: for each edge i, returns (port at edges[i].u,
/// port at edges[i].v).  Throws std::invalid_argument when the graph admits
/// no such labeling.  (InsertionOrder and RandomPermutation need no
/// matching; GraphBuilder assigns them per CSR slot directly.)
[[nodiscard]] std::vector<std::pair<Port, Port>> constrainedPorts(
    std::uint32_t nodeCount, const std::vector<Edge>& edges, std::uint64_t seed);

}  // namespace disp
