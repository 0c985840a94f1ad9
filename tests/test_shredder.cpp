#include <gtest/gtest.h>

#include "helpers.h"
#include "projection/shredder.h"

namespace complx {
namespace {

Netlist with_macro(double mw, double mh, double row_h = 12.0) {
  Netlist nl;
  Cell m;
  m.width = mw;
  m.height = mh;
  m.kind = CellKind::MovableMacro;
  nl.add_cell(m, "mac");
  Cell d;
  d.width = 2;
  d.height = row_h;
  nl.add_cell(d, "d");
  nl.set_core({0, 0, 1000, 1000});
  std::vector<Row> rows;
  for (double y = 0; y + row_h <= 1000; y += row_h)
    rows.push_back({y, row_h, 0, 1000, 1.0});
  nl.set_rows(rows);
  nl.finalize();
  return nl;
}

TEST(Shredder, TileCountMatchesMacroSize) {
  Netlist nl = with_macro(96, 48);  // 96/24 x 48/24 = 4 x 2 tiles
  MacroShredder sh(nl, 1.0);
  const auto shreds = sh.shred(0, 100, 100);
  EXPECT_EQ(shreds.size(), 8u);
}

TEST(Shredder, ShredAreaEqualsGammaTimesMacroArea) {
  Netlist nl = with_macro(96, 96);
  for (double gamma : {1.0, 0.8, 0.5}) {
    MacroShredder sh(nl, gamma);
    double area = 0.0;
    for (const Mote& m : sh.shred(0, 200, 200)) area += m.area();
    EXPECT_NEAR(area, gamma * 96 * 96, 1e-6) << "gamma=" << gamma;
  }
}

TEST(Shredder, ShredsCoverTheMacroUniformly) {
  Netlist nl = with_macro(96, 48);
  MacroShredder sh(nl, 1.0);
  const double cx = 100, cy = 60;
  const auto shreds = sh.shred(0, cx, cy);
  // Bounding box of shred centers is inset by half a tile on each side.
  double xl = 1e18, xh = -1e18, yl = 1e18, yh = -1e18;
  for (const Mote& m : shreds) {
    EXPECT_EQ(m.owner, 0u);
    xl = std::min(xl, m.x);
    xh = std::max(xh, m.x);
    yl = std::min(yl, m.y);
    yh = std::max(yh, m.y);
  }
  EXPECT_NEAR((xl + xh) / 2.0, cx, 1e-9);
  EXPECT_NEAR((yl + yh) / 2.0, cy, 1e-9);
  EXPECT_NEAR(xh - xl, 96 - 24, 1e-9);  // width minus one tile
  EXPECT_NEAR(yh - yl, 48 - 24, 1e-9);
}

TEST(Shredder, TinyMacroGetsAtLeastOneShred) {
  Netlist nl = with_macro(5, 5);
  MacroShredder sh(nl, 1.0);
  const auto shreds = sh.shred(0, 10, 10);
  ASSERT_EQ(shreds.size(), 1u);
  EXPECT_NEAR(shreds[0].x, 10.0, 1e-9);
}

TEST(Shredder, MeanDisplacementAveragesShredMoves) {
  std::vector<Mote> shreds(3);
  std::vector<Point> origins(3);
  for (int i = 0; i < 3; ++i) {
    origins[static_cast<size_t>(i)] = {static_cast<double>(i), 0.0};
    shreds[static_cast<size_t>(i)].x = i + 2.0;  // all moved +2 in x
    shreds[static_cast<size_t>(i)].y = static_cast<double>(i);  // +i in y
  }
  const Point d = MacroShredder::mean_displacement(shreds, origins, 0, 3);
  EXPECT_DOUBLE_EQ(d.x, 2.0);
  EXPECT_DOUBLE_EQ(d.y, 1.0);
}

TEST(Shredder, MeanDisplacementReadsOnlyItsRange) {
  // Motes [1, 3) are one macro's shreds; the motes around them (a standard
  // cell, another macro) moved far and must not count.
  std::vector<Mote> motes(4);
  std::vector<Point> origins(4, Point{0.0, 0.0});
  motes[0].x = 100.0;
  motes[1].x = 1.0;
  motes[1].y = -2.0;
  motes[2].x = 3.0;
  motes[2].y = -4.0;
  motes[3].y = 100.0;
  const Point d = MacroShredder::mean_displacement(motes, origins, 1, 3);
  EXPECT_DOUBLE_EQ(d.x, 2.0);
  EXPECT_DOUBLE_EQ(d.y, -3.0);
}

TEST(Shredder, MeanDisplacementEmptyIsZero) {
  const Point d = MacroShredder::mean_displacement({}, {}, 0, 0);
  EXPECT_DOUBLE_EQ(d.x, 0.0);
  EXPECT_DOUBLE_EQ(d.y, 0.0);
}

}  // namespace
}  // namespace complx
