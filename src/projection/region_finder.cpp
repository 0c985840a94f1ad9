#include "projection/region_finder.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

namespace complx {

namespace {

struct SpanStats {
  double usage = 0.0;
  double capacity = 0.0;
};

SpanStats stats(const DensityGrid& g, const BinSpan& s) {
  // O(1) via the grid's summed-area tables.
  SpanStats r;
  r.usage = g.usage_sum(s.i0, s.j0, s.i1, s.j1);
  r.capacity = g.capacity_sum(s.i0, s.j0, s.i1, s.j1);
  return r;
}

bool satisfied(const DensityGrid& g, const BinSpan& s, double gamma) {
  const SpanStats st = stats(g, s);
  return st.usage <= gamma * st.capacity + 1e-9;
}

/// Grow `s` one bin in the direction that yields the lowest resulting
/// utilization ratio; returns false when no growth is possible.
bool grow(const DensityGrid& g, BinSpan& s, double gamma) {
  const size_t bx = g.bins_x(), by = g.bins_y();
  double best_ratio = std::numeric_limits<double>::infinity();
  int best_dir = -1;
  auto consider = [&](int dir, BinSpan cand) {
    const SpanStats st = stats(g, cand);
    const double ratio =
        st.capacity > 0.0 ? st.usage / (gamma * st.capacity)
                          : std::numeric_limits<double>::infinity();
    if (ratio < best_ratio) {
      best_ratio = ratio;
      best_dir = dir;
    }
  };
  if (s.i0 > 0) consider(0, {s.i0 - 1, s.j0, s.i1, s.j1});
  if (s.i1 + 1 < bx) consider(1, {s.i0, s.j0, s.i1 + 1, s.j1});
  if (s.j0 > 0) consider(2, {s.i0, s.j0 - 1, s.i1, s.j1});
  if (s.j1 + 1 < by) consider(3, {s.i0, s.j0, s.i1, s.j1 + 1});
  switch (best_dir) {
    case 0: --s.i0; return true;
    case 1: ++s.i1; return true;
    case 2: --s.j0; return true;
    case 3: ++s.j1; return true;
    default: return false;
  }
}

Rect span_rect(const DensityGrid& g, const BinSpan& s) {
  const Rect lo = g.bin_rect(s.i0, s.j0);
  const Rect hi = g.bin_rect(s.i1, s.j1);
  return {lo.xl, lo.yl, hi.xh, hi.yh};
}

/// Grows `s` until its aggregate utilization target is met or it covers
/// the whole core.
void expand(const DensityGrid& g, BinSpan& s, double gamma) {
  while (!satisfied(g, s, gamma)) {
    if (!grow(g, s, gamma)) break;  // whole core reached
  }
}

/// Merges overlapping spans in place, re-expanding each union.
void merge_overlapping(const DensityGrid& grid, double gamma,
                       std::vector<BinSpan>& spans) {
  const auto overlaps = [&](const BinSpan& a, const BinSpan& b) {
    return a.i0 <= b.i1 && b.i0 <= a.i1 && a.j0 <= b.j1 && b.j0 <= a.j1;
  };
  const auto merge_into = [&](size_t a, size_t b) {
    BinSpan u{std::min(spans[a].i0, spans[b].i0),
              std::min(spans[a].j0, spans[b].j0),
              std::max(spans[a].i1, spans[b].i1),
              std::max(spans[a].j1, spans[b].j1)};
    expand(grid, u, gamma);
    spans[a] = u;
    spans.erase(spans.begin() + static_cast<long>(b));
  };

  // Only a span that just absorbed another can introduce new overlaps, so
  // after a merge it suffices to recheck pairs involving that span — in the
  // order (0,x)…(x−1,x), (x,x+1)… — which is exactly the order a full
  // restart visits the not-known-disjoint pairs. Every other pair was
  // verified disjoint by an earlier block and is unchanged, hence the merge
  // sequence (and the final region set) is bitwise identical to restarting
  // the scan after every merge, at O(n) pair work per forward merge instead
  // of a full O(n²) rescan each time.
  std::vector<char> dirty(spans.size(), 0);
  size_t x = 0;
  while (x < spans.size()) {
    if (dirty[x]) {
      dirty[x] = 0;
      bool merged_back = false;
      for (size_t k = 0; k < x; ++k) {
        if (!overlaps(spans[k], spans[x])) continue;
        merge_into(k, x);
        dirty.erase(dirty.begin() + static_cast<long>(x));
        dirty[k] = 1;
        x = k;
        merged_back = true;
        break;
      }
      if (merged_back) continue;
    }
    bool merged_fwd = false;
    for (size_t y = x + 1; y < spans.size(); ++y) {
      if (!overlaps(spans[x], spans[y])) continue;
      merge_into(x, y);
      dirty.erase(dirty.begin() + static_cast<long>(y));
      dirty[x] = 1;
      merged_fwd = true;
      break;
    }
    if (!merged_fwd) ++x;
  }
}

}  // namespace

std::vector<Rect> find_spreading_regions(const DensityGrid& grid,
                                         double gamma) {
  const size_t bx = grid.bins_x(), by = grid.bins_y();

  // 1. Mark overfilled bins.
  std::vector<char> over(bx * by, 0);
  bool any = false;
  for (size_t j = 0; j < by; ++j) {
    for (size_t i = 0; i < bx; ++i) {
      if (grid.overflow(i, j, gamma) > 1e-9) {
        over[j * bx + i] = 1;
        any = true;
      }
    }
  }
  if (!any) return {};

  // 2. BFS-cluster adjacent overfilled bins into seed spans.
  std::vector<BinSpan> spans;
  std::vector<char> visited(bx * by, 0);
  for (size_t j = 0; j < by; ++j) {
    for (size_t i = 0; i < bx; ++i) {
      if (!over[j * bx + i] || visited[j * bx + i]) continue;
      BinSpan s{i, j, i, j};
      std::queue<std::pair<size_t, size_t>> q;
      q.push({i, j});
      visited[j * bx + i] = 1;
      while (!q.empty()) {
        auto [ci, cj] = q.front();
        q.pop();
        s.i0 = std::min(s.i0, ci);
        s.i1 = std::max(s.i1, ci);
        s.j0 = std::min(s.j0, cj);
        s.j1 = std::max(s.j1, cj);
        const std::pair<long, long> nbrs[4] = {
            {static_cast<long>(ci) - 1, static_cast<long>(cj)},
            {static_cast<long>(ci) + 1, static_cast<long>(cj)},
            {static_cast<long>(ci), static_cast<long>(cj) - 1},
            {static_cast<long>(ci), static_cast<long>(cj) + 1}};
        for (auto [ni, nj] : nbrs) {
          if (ni < 0 || nj < 0 || ni >= static_cast<long>(bx) ||
              nj >= static_cast<long>(by))
            continue;
          const size_t k =
              static_cast<size_t>(nj) * bx + static_cast<size_t>(ni);
          if (over[k] && !visited[k]) {
            visited[k] = 1;
            q.push({static_cast<size_t>(ni), static_cast<size_t>(nj)});
          }
        }
      }
      spans.push_back(s);
    }
  }

  // 3. Expand each span until its aggregate utilization target is met.
  for (BinSpan& s : spans) expand(grid, s, gamma);

  // 4. Merge overlapping spans, re-expand merged results.
  merge_overlapping(grid, gamma, spans);

  std::vector<Rect> rects;
  rects.reserve(spans.size());
  for (const BinSpan& s : spans) rects.push_back(span_rect(grid, s));
  return rects;
}

}  // namespace complx
