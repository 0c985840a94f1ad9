// Mixed-size placement example: an SoC-like design with movable macros,
// fixed blockages and an ISPD-2006-style density target. Demonstrates
//   * macro shredding inside the feasibility projection,
//   * per-macro lambda scaling,
//   * the contest "scaled HPWL" metric,
//   * exporting the result in Bookshelf format.
#include <cstdio>
#include <filesystem>
#include <string_view>

#include "bookshelf/writer.h"
#include "core/flow.h"
#include "core/placer.h"
#include "gen/generator.h"
#include "util/log.h"

using namespace complx;

int main() {
  set_log_level(LogLevel::Info);

  GenParams params;
  params.name = "soc";
  params.num_cells = 8000;
  params.num_movable_macros = 6;
  params.num_fixed_macros = 4;
  params.utilization = 0.5;
  params.target_density = 0.7;  // whitespace must be distributed
  params.seed = 2026;
  const Netlist netlist = generate_circuit(params);

  size_t macros = 0;
  double macro_area = 0.0;
  for (const Cell& c : netlist.cells())
    if (c.is_macro()) {
      ++macros;
      macro_area += c.area();
    }
  std::printf("SoC: %zu cells, %zu movable macros (%.0f%% of movable "
              "area), target density %.2f\n",
              netlist.num_cells(), macros,
              100.0 * macro_area / netlist.movable_area(),
              netlist.target_density());

  ComplxConfig config;  // density target inherited from the netlist
  ComplxPlacer placer(netlist, config);
  const PlaceResult gp = placer.place();

  // Report macro behaviour: macros stabilize early and end up overlap-free
  // after legalization.
  std::printf("global placement done: %d iterations, overflow %.1f%%\n",
              gp.iterations, 100.0 * gp.returned.overflow_ratio);
  for (CellId id : netlist.movable_cells()) {
    const Cell& c = netlist.cell(id);
    if (!c.is_macro()) continue;
    const std::string_view nm = netlist.cell_name(id);
    std::printf("  macro %-6.*s %4.0fx%-4.0f at (%7.1f, %7.1f)\n",
                static_cast<int>(nm.size()), nm.data(), c.width, c.height,
                gp.anchors.x[id], gp.anchors.y[id]);
  }

  const FinishResult fin = finish_placement(netlist, gp.anchors);
  const DensityMetric& metric = fin.metric;
  std::printf("result: HPWL %.0f, overflow penalty %.2f%%, scaled HPWL "
              "%.0f, legal: %s\n",
              metric.hpwl, metric.overflow_percent, metric.scaled_hpwl,
              fin.is_legal ? "yes" : "NO");

  // Export the placed design in Bookshelf format.
  const std::string out_dir =
      (std::filesystem::temp_directory_path() / "complx_soc").string();
  std::filesystem::create_directories(out_dir);
  Netlist placed = netlist;
  placed.apply(fin.placement);
  write_bookshelf(placed, out_dir, "soc_placed");
  std::printf("bookshelf written to %s/soc_placed.aux\n", out_dir.c_str());
  return 0;
}
