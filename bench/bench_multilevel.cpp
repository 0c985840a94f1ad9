// Multilevel vs flat ComPLx — the mPL6-style scheme the paper benchmarks
// against (Table 2's mPL6 column; the paper reports ComPLx 8.47x faster
// than mPL6 at ~3% better scaled HPWL).
//
// Shape to observe: the multilevel V-cycle spends most of its time on a
// small coarse netlist, so its runtime grows more slowly with size, but it
// pays a few percent of HPWL for the lost detail during coarsening —
// flat ComPLx wins quality at comparable or better runtime (the paper's
// conclusion, from the other side).
#include "common.h"
#include "multilevel/mlplacer.h"

using namespace complx;
using namespace complx::bench;

int main() {
  print_header(
      "COMPARATOR — multilevel (mPL6-style) vs flat ComPLx",
      "flat ComPLx beats the multilevel placer on quality at comparable "
      "runtime (paper: 1.03x scaled HPWL for mPL6, ComPLx 8.5x faster)",
      "same designs; ML uses heavy-edge coarsening + warm refinement");

  std::printf("%-10s %8s | %12s %8s | %12s %8s %7s\n", "design", "cells",
              "flat HPWL", "t(s)", "ML HPWL", "t(s)", "levels");
  for (size_t cells : {4000u, 8000u, 16000u}) {
    GenParams prm;
    prm.name = "ml" + std::to_string(cells / 1000) + "k";
    prm.num_cells = cells;
    prm.seed = 1500 + cells;
    prm.utilization = 0.65;
    const Netlist nl = generate_circuit(prm);

    Timer tf;
    const double flat_hpwl =
        run_complx_flow(nl, ComplxConfig{}).finish.metric.hpwl;
    const double flat_t = tf.seconds();

    Timer tm;
    MultilevelConfig mcfg;
    mcfg.coarsest_cells = 2000;
    MultilevelResult ml = MultilevelPlacer(nl, mcfg).place();
    const double ml_hpwl =
        finish_placement(nl, std::move(ml.place.anchors)).metric.hpwl;
    const double ml_t = tm.seconds();

    std::printf("%-10s %8zu | %12.0f %8.1f | %12.0f %8.1f %7zu   "
                "(ML HPWL %+5.2f%%)\n",
                prm.name.c_str(), nl.num_cells(), flat_hpwl, flat_t, ml_hpwl,
                ml_t, ml.levels.size() - 1,
                100.0 * (ml_hpwl - flat_hpwl) / flat_hpwl);
  }
  return 0;
}
