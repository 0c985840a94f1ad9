#include "projection/shredder.h"

#include <algorithm>
#include <cmath>

namespace complx {

namespace {
// Shred edge in row heights: the paper's 2×2-row shreds (Section 5).
constexpr double kShredRows = 2.0;
}  // namespace

MacroShredder::MacroShredder(const Netlist& nl, double gamma)
    : nl_(nl), gamma_(gamma) {}

std::vector<Mote> MacroShredder::shred(CellId id, double cx, double cy) const {
  const Cell& c = nl_.cell(id);
  const double tile = kShredRows * nl_.row_height();
  const double scale = std::sqrt(std::clamp(gamma_, 0.01, 1.0));

  // Number of tiles per dimension (at least one); tiles evenly cover the
  // macro so the shred lattice is uniform.
  const int nx = std::max(1, static_cast<int>(std::round(c.width / tile)));
  const int ny = std::max(1, static_cast<int>(std::round(c.height / tile)));
  const double step_x = c.width / nx;
  const double step_y = c.height / ny;

  std::vector<Mote> shreds;
  shreds.reserve(static_cast<size_t>(nx) * static_cast<size_t>(ny));
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      Mote m;
      m.owner = id;
      m.width = step_x * scale;
      m.height = step_y * scale;
      m.x = cx - c.width / 2.0 + (i + 0.5) * step_x;
      m.y = cy - c.height / 2.0 + (j + 0.5) * step_y;
      shreds.push_back(m);
    }
  }
  return shreds;
}

Point MacroShredder::mean_displacement(const std::vector<Mote>& motes,
                                       const std::vector<Point>& origins,
                                       size_t first, size_t last) {
  if (first >= last) return {};
  double dx = 0.0, dy = 0.0;
  for (size_t k = first; k < last; ++k) {
    dx += motes[k].x - origins[k].x;
    dy += motes[k].y - origins[k].y;
  }
  const double n = static_cast<double>(last - first);
  return {dx / n, dy / n};
}

}  // namespace complx
