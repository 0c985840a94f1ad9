#include "multilevel/mlplacer.h"

#include <algorithm>
#include <limits>

#include "util/timer.h"

namespace complx {

MultilevelPlacer::MultilevelPlacer(const Netlist& nl,
                                   const MultilevelConfig& cfg)
    : nl_(nl), cfg_(cfg) {}

MultilevelResult MultilevelPlacer::place() {
  Timer timer;
  MultilevelResult result;
  PlaceResult& out = result.place;

  // Room for every level's rows, reserved before anything large: appending
  // them then never allocates, which keeps the heap and peak RSS compact.
  out.trace.reserve(static_cast<size_t>(std::max(
      0, cfg_.coarse.max_iterations + 1 +
             cfg_.max_levels * (cfg_.refine_iterations + 1))));

  // ---- V-cycle down: build the hierarchy ----------------------------------
  // levels[0] is the original netlist; each entry owns its coarse netlist.
  std::vector<CoarseLevel> levels;
  const Netlist* current = &nl_;
  result.level_sizes.push_back(nl_.num_cells());
  for (int l = 0; l < cfg_.max_levels; ++l) {
    if (current->num_movable() <= cfg_.coarsest_cells) break;
    ClusterOptions copts = cfg_.clustering;
    copts.seed += static_cast<uint64_t>(l);
    CoarseLevel next = coarsen(*current, copts);
    // Stop if matching found nothing to merge (ratio ~1).
    if (next.netlist.num_cells() >= current->num_cells() * 95 / 100) break;
    result.level_sizes.push_back(next.netlist.num_cells());
    levels.push_back(std::move(next));
    current = &levels.back().netlist;
  }

  // ---- V-cycle up: one ComPLx run per level -------------------------------
  // A full run at the coarsest level; above it the interpolated placement is
  // already spread, and a short warm-started run re-legalizes density at the
  // level's granularity. Each run gets what is left of the shared deadline
  // (exhausted = the smallest positive limit; 0 means none). A time-limit,
  // cancelled or diverged level is carried down without re-solving.
  result.level_stops.resize(result.level_sizes.size());
  for (size_t l = levels.size() + 1; l-- > 0;) {
    const Netlist& level = l == 0 ? nl_ : levels[l - 1].netlist;
    const bool refine = l < levels.size();
    const Placement seed =
        refine ? interpolate(level, levels[l].fine_to_coarse, out.anchors)
               : Placement{};
    if (refine && (out.stop == StopReason::TimeLimit ||
                   out.stop == StopReason::Cancelled ||
                   out.stop == StopReason::Diverged)) {
      out.anchors = seed;
      out.lower_bound =
          interpolate(level, levels[l].fine_to_coarse, out.lower_bound);
      result.level_stops[l] = out.stop;
      continue;
    }
    // Stale now: freed before this level allocates its own.
    out.anchors = {};
    out.lower_bound = {};
    ComplxConfig c = cfg_.coarse;
    if (refine) {
      levels.pop_back();  // the coarser netlist is stale too
      c.max_iterations = cfg_.refine_iterations;
      c.min_iterations = std::min(4, cfg_.refine_iterations);
    }
    if (c.time_limit_s > 0.0)
      c.time_limit_s = std::max(c.time_limit_s - timer.seconds(),
                                std::numeric_limits<double>::min());
    const double start_s = timer.seconds();
    ComplxPlacer placer(level, c);
    PlaceResult r = refine ? placer.place_from(seed) : placer.place();

    // Counters sum, rows append on the V-cycle clock, the end state is r's.
    for (IterationStats& st : r.trace) st.elapsed_s += start_s;
    out.trace.insert(out.trace.end(), r.trace.begin(), r.trace.end());
    r.trace = std::move(out.trace);
    r.solver += out.solver;
    r.health += out.health;
    r.iterations += out.iterations;
    r.recovered += out.recovered;
    out = std::move(r);
    result.level_stops[l] = out.stop;
  }

  out.runtime_s = timer.seconds();
  return result;
}

}  // namespace complx
