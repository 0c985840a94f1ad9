#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "density/grid.h"
#include "projection/region_finder.h"
#include "util/rng.h"

namespace complx {
namespace {

// ---------------------------------------------------------------------------
// Reference region finder: the same seed, grow and merge rules as
// find_spreading_regions, written out plainly, with the historical O(n³)
// merge that restarts the full pair scan after every merge. The library's
// incremental merge must reproduce it exactly.
// ---------------------------------------------------------------------------

bool reference_satisfied(const DensityGrid& g, const BinSpan& s,
                         double gamma) {
  return g.usage_sum(s.i0, s.j0, s.i1, s.j1) <=
         gamma * g.capacity_sum(s.i0, s.j0, s.i1, s.j1) + 1e-9;
}

/// Grows `s` by one bin towards the lowest resulting utilization ratio
/// (ties keep the first of left, right, down, up); false at the core edge.
bool reference_grow(const DensityGrid& g, BinSpan& s, double gamma) {
  std::vector<BinSpan> cands;
  if (s.i0 > 0) cands.push_back({s.i0 - 1, s.j0, s.i1, s.j1});
  if (s.i1 + 1 < g.bins_x()) cands.push_back({s.i0, s.j0, s.i1 + 1, s.j1});
  if (s.j0 > 0) cands.push_back({s.i0, s.j0 - 1, s.i1, s.j1});
  if (s.j1 + 1 < g.bins_y()) cands.push_back({s.i0, s.j0, s.i1, s.j1 + 1});
  double best_ratio = std::numeric_limits<double>::infinity();
  const BinSpan* best = nullptr;
  for (const BinSpan& c : cands) {
    const double usage = g.usage_sum(c.i0, c.j0, c.i1, c.j1);
    const double capacity = g.capacity_sum(c.i0, c.j0, c.i1, c.j1);
    const double ratio = capacity > 0.0
                             ? usage / (gamma * capacity)
                             : std::numeric_limits<double>::infinity();
    if (ratio < best_ratio) {
      best_ratio = ratio;
      best = &c;
    }
  }
  if (!best) return false;
  s = *best;
  return true;
}

void reference_expand(const DensityGrid& g, BinSpan& s, double gamma) {
  while (!reference_satisfied(g, s, gamma) && reference_grow(g, s, gamma)) {
  }
}

std::vector<Rect> reference_regions(const DensityGrid& g, double gamma) {
  const size_t bx = g.bins_x(), by = g.bins_y();
  // Seeds: 4-connected components of overfilled bins, in row-major order
  // of their first bin, each as its bounding span.
  std::vector<char> seen(bx * by, 0);
  const auto over = [&](size_t i, size_t j) {
    return g.overflow(i, j, gamma) > 1e-9;
  };
  std::vector<BinSpan> spans;
  for (size_t j = 0; j < by; ++j) {
    for (size_t i = 0; i < bx; ++i) {
      if (!over(i, j) || seen[j * bx + i]) continue;
      BinSpan s{i, j, i, j};
      std::queue<std::pair<size_t, size_t>> q;
      q.push({i, j});
      seen[j * bx + i] = 1;
      while (!q.empty()) {
        const auto [ci, cj] = q.front();
        q.pop();
        s = {std::min(s.i0, ci), std::min(s.j0, cj), std::max(s.i1, ci),
             std::max(s.j1, cj)};
        const auto visit = [&](size_t ni, size_t nj) {
          if (over(ni, nj) && !seen[nj * bx + ni]) {
            seen[nj * bx + ni] = 1;
            q.push({ni, nj});
          }
        };
        if (ci > 0) visit(ci - 1, cj);
        if (ci + 1 < bx) visit(ci + 1, cj);
        if (cj > 0) visit(ci, cj - 1);
        if (cj + 1 < by) visit(ci, cj + 1);
      }
      spans.push_back(s);
    }
  }
  for (BinSpan& s : spans) reference_expand(g, s, gamma);

  // Restart the full pair scan after every merge.
  const auto overlaps = [](const BinSpan& a, const BinSpan& b) {
    return a.i0 <= b.i1 && b.i0 <= a.i1 && a.j0 <= b.j1 && b.j0 <= a.j1;
  };
  bool merged = true;
  while (merged) {
    merged = false;
    for (size_t a = 0; a < spans.size() && !merged; ++a) {
      for (size_t b = a + 1; b < spans.size() && !merged; ++b) {
        if (!overlaps(spans[a], spans[b])) continue;
        BinSpan u{std::min(spans[a].i0, spans[b].i0),
                  std::min(spans[a].j0, spans[b].j0),
                  std::max(spans[a].i1, spans[b].i1),
                  std::max(spans[a].j1, spans[b].j1)};
        reference_expand(g, u, gamma);
        spans[a] = u;
        spans.erase(spans.begin() + static_cast<long>(b));
        merged = true;
      }
    }
  }

  std::vector<Rect> rects;
  for (const BinSpan& s : spans) {
    const Rect lo = g.bin_rect(s.i0, s.j0);
    const Rect hi = g.bin_rect(s.i1, s.j1);
    rects.push_back({lo.xl, lo.yl, hi.xh, hi.yh});
  }
  return rects;
}

Netlist empty_core(double side = 100.0) {
  Netlist nl;
  Cell c;
  c.width = 1;
  c.height = 1;
  nl.add_cell(c, "dummy");
  nl.set_core({0, 0, side, side});
  nl.finalize();
  return nl;
}

TEST(RegionFinder, NoOverflowNoRegions) {
  Netlist nl = empty_core();
  DensityGrid g(nl, 10, 10);
  g.build_from_rects({{0, 0, 5, 5}});  // tiny usage
  EXPECT_TRUE(find_spreading_regions(g, 1.0).empty());
}

TEST(RegionFinder, SingleHotspotProducesOneCoveringRegion) {
  Netlist nl = empty_core();
  DensityGrid g(nl, 10, 10);
  // 400 units of area crammed into bin (5,5) whose capacity is 100.
  g.build_from_rects({{50, 50, 60, 60},
                      {50, 50, 60, 60},
                      {50, 50, 60, 60},
                      {50, 50, 60, 60}});
  const auto regions = find_spreading_regions(g, 1.0);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_TRUE(regions[0].contains(Point{55.0, 55.0}));
  // Region must hold at least 4 bins of capacity to absorb 400 area units.
  EXPECT_GE(regions[0].area(), 399.0);
}

TEST(RegionFinder, RegionUtilizationSatisfiesGamma) {
  Netlist nl = empty_core();
  DensityGrid g(nl, 10, 10);
  std::vector<Rect> rects;
  for (int k = 0; k < 6; ++k) rects.push_back({20, 20, 30, 30});
  g.build_from_rects(rects);
  const double gamma = 0.8;
  const auto regions = find_spreading_regions(g, gamma);
  ASSERT_FALSE(regions.empty());
  for (const Rect& r : regions) {
    EXPECT_LE(g.usage_in(r), gamma * g.free_area_in(r) + 1.0);
  }
}

TEST(RegionFinder, DistantHotspotsYieldSeparateRegions) {
  Netlist nl = empty_core();
  DensityGrid g(nl, 10, 10);
  std::vector<Rect> rects;
  for (int k = 0; k < 3; ++k) {
    rects.push_back({10, 10, 20, 20});  // exactly bin (1,1): 300 vs cap 100
    rects.push_back({80, 80, 90, 90});  // exactly bin (8,8)
  }
  g.build_from_rects(rects);
  const auto regions = find_spreading_regions(g, 1.0);
  EXPECT_EQ(regions.size(), 2u);
}

TEST(RegionFinder, OverlappingExpansionsMerge) {
  Netlist nl = empty_core();
  DensityGrid g(nl, 10, 10);
  // Two adjacent severe hotspots whose expansions must collide.
  std::vector<Rect> rects;
  for (int k = 0; k < 8; ++k) {
    rects.push_back({30, 50, 40, 60});
    rects.push_back({60, 50, 70, 60});
  }
  g.build_from_rects(rects);
  const auto regions = find_spreading_regions(g, 1.0);
  // After merging there must be no overlapping pair.
  for (size_t a = 0; a < regions.size(); ++a)
    for (size_t b = a + 1; b < regions.size(); ++b)
      EXPECT_FALSE(regions[a].overlaps(regions[b]));
}

TEST(RegionFinder, WholeCoreWhenEverythingOverflows) {
  Netlist nl = empty_core();
  DensityGrid g(nl, 4, 4);
  // More area than the whole core can hold at gamma=0.5: region growth
  // stops at the core and returns the full span.
  std::vector<Rect> rects;
  for (int k = 0; k < 10; ++k) rects.push_back({0, 0, 100, 100});
  g.build_from_rects(rects);
  const auto regions = find_spreading_regions(g, 0.5);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_NEAR(regions[0].area(), 100.0 * 100.0, 1.0);
}

TEST(RegionFinder, GammaTightensDetection) {
  Netlist nl = empty_core();
  DensityGrid g(nl, 10, 10);
  // Uniform 60% fill: overfilled at gamma=0.5, fine at gamma=0.7.
  std::vector<Rect> rects;
  for (int i = 0; i < 10; ++i)
    for (int j = 0; j < 10; ++j) {
      const double x = i * 10.0, y = j * 10.0;
      rects.push_back({x, y, x + 10.0, y + 6.0});
    }
  g.build_from_rects(rects);
  EXPECT_TRUE(find_spreading_regions(g, 0.7).empty());
  EXPECT_FALSE(find_spreading_regions(g, 0.5).empty());
}


TEST(RegionFinder, IncrementalMergeMatchesFullRescanStress) {
  // Many hotspots of random severity on a 32x32 grid, dense enough that
  // expanded spans collide and chain-merge. The incremental merge claims a
  // bitwise-identical result to the historical restart-from-scratch scan
  // (reference_regions above); assert exact equality of the region lists.
  Netlist nl = empty_core(320.0);
  DensityGrid g(nl, 32, 32);
  Rng rng(4242);
  std::vector<Rect> rects;
  for (int h = 0; h < 60; ++h) {
    const double x = 10.0 * static_cast<double>(rng.uniform_index(32));
    const double y = 10.0 * static_cast<double>(rng.uniform_index(32));
    const int copies = 2 + static_cast<int>(rng.uniform_index(8));
    for (int c = 0; c < copies; ++c) rects.push_back({x, y, x + 10, y + 10});
  }
  g.build_from_rects(rects);
  for (const double gamma : {0.6, 0.8, 1.0}) {
    const auto fast = find_spreading_regions(g, gamma);
    const auto ref = reference_regions(g, gamma);
    ASSERT_EQ(fast.size(), ref.size()) << "gamma " << gamma;
    // Tight gammas legitimately merge everything into one span; the loose
    // one must keep several regions or the fixture exercises nothing.
    if (gamma == 1.0) {
      ASSERT_GE(ref.size(), 2u) << "fixture too weak to exercise merging";
    }
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(fast[i].xl, ref[i].xl);
      EXPECT_EQ(fast[i].yl, ref[i].yl);
      EXPECT_EQ(fast[i].xh, ref[i].xh);
      EXPECT_EQ(fast[i].yh, ref[i].yh);
    }
  }
}

}  // namespace
}  // namespace complx
