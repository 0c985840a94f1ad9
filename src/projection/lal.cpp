#include "projection/lal.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "projection/region_finder.h"
#include "projection/regions.h"
#include "projection/shredder.h"
#include "projection/spreader.h"
#include "util/log.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace complx {

std::vector<size_t> assign_motes_to_regions(const std::vector<Rect>& regions,
                                            const std::vector<Mote>& motes) {
  std::vector<size_t> owner(motes.size(), kNoSpreadRegion);
  if (regions.empty()) return owner;
  // Index-owned writes: mote k's owner depends only on (k, regions), so the
  // result is identical at any thread count.
  parallel_for(motes.size(), [&](size_t begin, size_t end) {
    for (size_t k = begin; k < end; ++k) {
      const Point c{motes[k].x, motes[k].y};
      for (size_t r = 0; r < regions.size(); ++r) {
        if (regions[r].contains(c)) {
          owner[k] = r;
          break;  // first region in deterministic order wins
        }
      }
    }
  });
  return owner;
}

LookAheadLegalizer::LookAheadLegalizer(const Netlist& nl,
                                       const ProjectionOptions& opts)
    : nl_(nl), opts_(opts) {
  if (opts_.bins_x == 0 || opts_.bins_y == 0) {
    const size_t b = auto_bins(nl);
    opts_.bins_x = b;
    opts_.bins_y = b;
  }
}

size_t LookAheadLegalizer::auto_bins(const Netlist& nl) {
  // Finest useful grid: bin edge around 3 row heights, but at least ~2
  // average cells per bin and a hard cap to keep region search cheap.
  const double edge = 3.0 * nl.row_height();
  const double span = std::max(nl.core().width(), nl.core().height());
  size_t b = static_cast<size_t>(std::ceil(span / std::max(edge, 1e-9)));
  const size_t by_count = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(nl.num_movable()) / 2.0)));
  b = std::min(b, std::max<size_t>(by_count, 4));
  return std::clamp<size_t>(b, 4, 512);
}

void LookAheadLegalizer::set_grid(size_t bins_x, size_t bins_y) {
  opts_.bins_x = std::max<size_t>(1, bins_x);
  opts_.bins_y = std::max<size_t>(1, bins_y);
  // Keep the cached capacity field whenever the resolution is unchanged:
  // the driver calls set_grid every iteration and repeats the finest size
  // once refinement saturates, which is exactly the steady state the cache
  // exists for.
  if (grid_ && (grid_->bins_x() != opts_.bins_x ||
                grid_->bins_y() != opts_.bins_y))
    grid_.reset();
}

void LookAheadLegalizer::set_inflation(Vec area_factors) {
  if (!area_factors.empty() && area_factors.size() != nl_.num_cells())
    throw std::invalid_argument("inflation vector size mismatch");
  inflation_ = std::move(area_factors);
  grid_.reset();
}

void LookAheadLegalizer::invalidate_grid_cache() { grid_.reset(); }

DensityGrid& LookAheadLegalizer::ensure_grid() const {
  if (!grid_ || grid_->bins_x() != opts_.bins_x ||
      grid_->bins_y() != opts_.bins_y)
    grid_ = std::make_unique<DensityGrid>(nl_, opts_.bins_x, opts_.bins_y);
  return *grid_;
}

ProjectionResult LookAheadLegalizer::project(const Placement& p,
                                             bool export_shreds) const {
  ProjectionResult result;
  Timer phase;

  // 1. Materialize motes: one per standard cell, a lattice per macro.
  std::vector<Mote> motes;
  motes.reserve(nl_.num_movable());
  MacroShredder shredder(nl_, opts_.gamma);
  // Shred bookkeeping: [first, last) mote range per macro.
  struct MacroRange {
    CellId id;
    size_t first, last;
  };
  std::vector<MacroRange> macro_ranges;
  std::vector<Point> origins;  // original center per mote (for displacement)

  for (CellId id : nl_.movable_cells()) {
    const Cell& c = nl_.cell(id);
    if (c.is_macro()) {
      std::vector<Mote> shreds = shredder.shred(id, p.x[id], p.y[id]);
      macro_ranges.push_back({id, motes.size(), motes.size() + shreds.size()});
      for (const Mote& m : shreds) {
        origins.push_back({m.x, m.y});
        motes.push_back(m);
      }
    } else {
      Mote m;
      m.owner = id;
      // SimPLR-style inflation: the projection treats the cell as larger so
      // congested neighbourhoods get extra separation.
      const double scale =
          inflation_.empty() ? 1.0 : std::sqrt(std::max(1.0, inflation_[id]));
      m.width = c.width * scale;
      m.height = c.height * scale;
      m.x = p.x[id];
      m.y = p.y[id];
      origins.push_back({m.x, m.y});
      motes.push_back(m);
    }
  }

  // 2. Density field over motes. The capacity half (fixed-cell blockage) is
  //    cached across calls; only the movable deposit runs here.
  DensityGrid& grid = ensure_grid();
  {
    std::vector<Rect> rects;
    rects.reserve(motes.size());
    for (const Mote& m : motes) rects.push_back(m.bounds());
    grid.build_from_rects(rects);
  }

  const double input_overflow = grid.total_overflow(opts_.gamma);
  result.timers.grid_build_s = phase.seconds();
  phase.reset();

  // 3. Spreading regions, exclusive mote ownership, per-region spreading.
  const std::vector<Rect> regions = find_spreading_regions(grid, opts_.gamma);
  const std::vector<size_t> owner = assign_motes_to_regions(regions, motes);
  std::vector<std::vector<Mote*>> per_region(regions.size());
  for (size_t k = 0; k < motes.size(); ++k)
    if (owner[k] != kNoSpreadRegion) per_region[owner[k]].push_back(&motes[k]);
  result.timers.region_find_s = phase.seconds();
  phase.reset();

  // Regions own disjoint mote lists and each is spread independently, so
  // chunk=1 lets the pool process whole regions concurrently; the writes
  // land in disjoint motes and each region's spread is serial internally,
  // so the result is bitwise identical at any thread count.
  Spreader spreader(grid, SpreaderOptions{opts_.gamma});
  parallel_for(
      regions.size(),
      [&](size_t begin, size_t end) {
        for (size_t r = begin; r < end; ++r)
          spreader.spread(regions[r], per_region[r]);
      },
      /*chunk=*/1);
  result.timers.spread_s = phase.seconds();
  phase.reset();

  // 4. Read anchors back: standard cells directly, macros by interpolating
  //    the mean shred displacement.
  result.num_regions = regions.size();
  result.input_overflow_ratio =
      input_overflow / std::max(nl_.movable_area(), 1e-12);
  result.anchors = p;
  size_t mote_idx = 0;
  size_t macro_idx = 0;
  const Rect& core = nl_.core();
  for (CellId id : nl_.movable_cells()) {
    const Cell& c = nl_.cell(id);
    if (c.is_macro()) {
      const MacroRange& mr = macro_ranges[macro_idx++];
      const Point d =
          MacroShredder::mean_displacement(motes, origins, mr.first, mr.last);
      double nx = p.x[id] + d.x;
      double ny = p.y[id] + d.y;
      nx = std::clamp(nx, core.xl + c.width / 2.0,
                      std::max(core.xl + c.width / 2.0, core.xh - c.width / 2.0));
      ny = std::clamp(ny, core.yl + c.height / 2.0,
                      std::max(core.yl + c.height / 2.0,
                               core.yh - c.height / 2.0));
      result.anchors.x[id] = nx;
      result.anchors.y[id] = ny;
      mote_idx = mr.last;
    } else {
      // Clamp so the full cell stays inside the core (spreading keeps only
      // the center inside its region).
      result.anchors.x[id] = std::clamp(
          motes[mote_idx].x, core.xl + c.width / 2.0,
          std::max(core.xl + c.width / 2.0, core.xh - c.width / 2.0));
      result.anchors.y[id] = std::clamp(
          motes[mote_idx].y, core.yl + c.height / 2.0,
          std::max(core.yl + c.height / 2.0, core.yh - c.height / 2.0));
      ++mote_idx;
    }
  }

  // 5. Hard region constraints (Section S5) and alignment groups.
  if (!nl_.regions().empty())
    snap_to_regions(nl_, result.anchors);
  if (!opts_.alignments.empty())
    snap_to_alignments(nl_, opts_.alignments, result.anchors);

  // 6. Penalty value Π = L1 displacement between iterate and projection.
  double pi = 0.0;
  for (CellId id : nl_.movable_cells())
    pi += std::abs(p.x[id] - result.anchors.x[id]) +
          std::abs(p.y[id] - result.anchors.y[id]);
  result.displacement_l1 = pi;

  if (export_shreds) {
    for (const MacroRange& mr : macro_ranges) {
      for (size_t k = mr.first; k < mr.last; ++k) {
        result.shreds.push_back(motes[k]);
        result.shred_origins.push_back(origins[k]);
      }
    }
  }
  result.timers.readback_s = phase.seconds();
  return result;
}

}  // namespace complx
