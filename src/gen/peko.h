// PEKO-style known-optimum benchmark construction (Cong et al.'s "Placement
// Examples with Known Optima" lineage; arXiv:2305.16413 discusses the
// methodology). The repo's ISPD-analogue generator (gen/generator.h) gives
// realistic *statistics* but no ground truth; this module gives the opposite
// trade: a slightly stylized netlist whose OPTIMAL total HPWL is computable
// in closed form, so a placer's result can be scored as a suboptimality
// ratio hpwl / optimum_hpwl >= 1 instead of a raw number.
//
// Construction (see docs/BENCHMARKS.md "Known-optimum fleet" for the proofs):
//  * All placeable cells are W x W squares (W = row height), arranged in
//    compact square "patches" laid out on a super-grid inside the core; the
//    stored positions ARE the certified-optimal placement.
//  * Every net's pins are a nearest-neighbor window of patch cells (adjacent
//    pair, L/straight triple, or a 2x2 / 3x3 / 4x4 block), at zero pin
//    offset. For these degrees the minimum possible HPWL of k disjoint
//    W x W squares, over ALL placements, is known exactly:
//        m(2) = W, m(3) = 2W, m(4) = 2W, m(9) = 4W, m(16) = 6W,
//    and each window achieves its m(k) in the constructed placement.
//    Total HPWL of any legal placement is >= sum_e m(deg(e)) (the bound is
//    per-net and placement-independent), and the construction attains it:
//        optimum_hpwl = sum_e m(deg(e)),  exactly, in closed form.
//  * A snake-order chain of adjacent 2-pin nets per patch guarantees every
//    cell is connected and each patch is one connected component.
//  * One cell per patch (the corner) is FIXED at its optimal position — the
//    PEKO analogue of I/O pads. It anchors the lambda = 0 quadratic solves
//    (otherwise translation-invariant) without perturbing the optimum:
//    fixing cells at optimal positions only shrinks the feasible set.
//  * Optional pin-less fixed macros act as blockages (macro-mix axis); they
//    carry no nets, so the closed-form optimum is unaffected. They are
//    placed in the whitespace outside the patches, keeping the constructed
//    placement legal.
//
// Everything is deterministic in the seed (SplitMix64), and the closed form
// sums integer multiples of W — exact in double precision — so tests can
// require hpwl(constructed) == optimum_hpwl to the last bit.
#pragma once

#include <cstdint>
#include <string>

#include "netlist/netlist.h"

namespace complx {

struct PekoParams {
  std::string name = "peko";
  uint64_t seed = 1;

  /// Requested movable-cell count; rounded UP so the patches form full
  /// square patches (PekoDesign::cells records the total).
  size_t num_cells = 1024;

  /// Core sizing: placeable area (cells + macros) / core area. The core is
  /// additionally grown if needed so the patch super-grid fits with one row
  /// of slack; PekoDesign::achieved_utilization records the real value.
  double utilization = 0.65;

  /// Pin-less fixed blockages rejection-sampled into the whitespace
  /// (skipped if no free spot exists; PekoDesign::macros_placed records
  /// the number actually placed).
  size_t num_fixed_macros = 0;

  double target_density = 1.0;  ///< gamma written into the netlist
};

/// A generated known-optimum design. The netlist's stored positions are the
/// certified optimal placement (movable cells included).
struct PekoDesign {
  Netlist netlist;
  /// Closed-form optimal total HPWL, sum_e m(deg(e)). The constructed
  /// placement attains this exactly; no legal placement can do better.
  double optimum_hpwl = 0.0;

  size_t cells = 0;        ///< placeable grid cells (movable + anchors)
  size_t anchors = 0;      ///< fixed anchor cells (one per patch)
  size_t patches = 0;
  size_t patch_side = 0;
  size_t macros_placed = 0;
  double achieved_utilization = 0.0;
};

/// Minimum possible HPWL of one net of `degree` pins on distinct
/// non-overlapping `cell_edge` x `cell_edge` square cells (zero pin
/// offsets), over ALL placements. Supported degrees: 2, 3, 4, 9, 16;
/// throws std::invalid_argument otherwise.
double peko_net_optimum(int degree, double cell_edge);

/// Generates a known-optimum design. Deterministic in params.seed.
PekoDesign generate_peko(const PekoParams& params);

}  // namespace complx
