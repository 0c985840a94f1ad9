// Star and clique net decompositions — the classical alternatives to
// Bound2Bound (paper, Section 2: "Multipin nets are decomposed into sets of
// edges using stars, cliques or the Bound2Bound model"). Used by the
// interconnect-model ablation bench and available through the public API.
#pragma once

#include <vector>

#include "wl/b2b.h"

namespace complx {

/// Clique: every pin pair of a net, weight w_e / (P−1) per edge, linearized
/// by the current pin separation like B2B (Sigl's GORDIAN-L linearization).
/// Nets above `clique_max_degree` are decomposed as chains instead to avoid
/// the quadratic edge blow-up. Clears and refills `out` (capacity
/// survives). `nets` selects the nets to decompose as in build_b2b (null:
/// every net).
void build_clique(const Netlist& nl, const Placement& p, Axis axis,
                  const B2bOptions& opts, std::vector<PinSpring>& out,
                  const std::vector<NetId>* nets = nullptr,
                  uint32_t clique_max_degree = 16);

/// Star: one auxiliary node per net located at the net's pin centroid;
/// every pin connects to it. The auxiliary nodes are *not* solver variables
/// in this formulation — the star center is re-fixed at the centroid of the
/// previous iterate, which keeps the system size at |cells| and behaves like
/// the FastPlace hybrid model in practice.
struct StarSpring {
  PinId p = 0;
  double center = 0.0;  ///< fixed star-center coordinate on this axis
  double weight = 0.0;
};

/// Clears and refills `out` (capacity survives). `nets` selects the nets as
/// in build_b2b (null: every net); a net with no movable pin only yields
/// springs that SystemBuilder::add_star_springs skips.
void build_star(const Netlist& nl, const Placement& p, Axis axis,
                const B2bOptions& opts, std::vector<StarSpring>& out,
                const std::vector<NetId>* nets = nullptr);

}  // namespace complx
