#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bookshelf/reader.h"
#include "bookshelf/writer.h"
#include "gen/generator.h"
#include "gen/peko.h"
#include "helpers.h"
#include "wl/hpwl.h"

namespace complx {
namespace {

namespace fs = std::filesystem;

class BookshelfRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "complx_bookshelf_test";
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir() const { return dir_.string(); }

 private:
  fs::path dir_;
};

TEST_F(BookshelfRoundTrip, PreservesTopologyAndGeometry) {
  Netlist original = testing::small_circuit(11, 400);
  write_bookshelf(original, dir(), "rt");
  const BookshelfDesign loaded = read_bookshelf(dir() + "/rt.aux");
  const Netlist& nl = loaded.netlist;

  EXPECT_EQ(loaded.name, "rt");
  EXPECT_EQ(nl.num_cells(), original.num_cells());
  EXPECT_EQ(nl.num_nets(), original.num_nets());
  EXPECT_EQ(nl.num_pins(), original.num_pins());
  EXPECT_EQ(nl.num_movable(), original.num_movable());
  EXPECT_EQ(nl.rows().size(), original.rows().size());

  // Cell geometry survives by name.
  for (CellId i = 0; i < original.num_cells(); ++i) {
    const Cell& a = original.cell(i);
    const CellId j = nl.find_cell(original.cell_name(i));
    ASSERT_NE(j, kInvalidCell) << original.cell_name(i);
    const Cell& b = nl.cell(j);
    EXPECT_DOUBLE_EQ(a.width, b.width);
    EXPECT_DOUBLE_EQ(a.height, b.height);
    EXPECT_NEAR(a.x, b.x, 1e-9);
    EXPECT_NEAR(a.y, b.y, 1e-9);
    EXPECT_EQ(a.movable(), b.movable());
  }

  // HPWL identical => pins and offsets survived.
  EXPECT_NEAR(stored_hpwl(original), stored_hpwl(nl),
              1e-6 * stored_hpwl(original));
}

// Bit pattern of a double: EXPECT_EQ on these is a true bitwise claim
// (distinguishes -0.0 from +0.0, unlike operator== on the values).
uint64_t bits(double v) { return std::bit_cast<uint64_t>(v); }

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The writer emits every section at max_digits10, so the decimal text must
// parse back to the bitwise-identical double. Dimensions, pin offsets and
// row geometry are copied verbatim and must survive a single write->read;
// .pl coordinates pass through the center <-> lower-left transform, whose
// rounding cycle is idempotent, so generations 2 and 3 must be
// byte-for-byte identical.
TEST_F(BookshelfRoundTrip, WriteReadWriteIsBitwiseLossless) {
  Netlist original = testing::small_circuit(17, 350, /*movable_macros=*/2);
  // Poison the coordinates with values that have no short decimal form so
  // the test exercises the full-precision path, not round numbers.
  Placement poisoned = original.snapshot();
  for (CellId i : original.movable_cells()) {
    poisoned.x[i] += 1.0 / 3.0 + 1e-7 * static_cast<double>(i);
    poisoned.y[i] += 1.0 / 7.0;
  }
  original.apply(poisoned);

  write_bookshelf(original, dir(), "g1");
  const BookshelfDesign d1 = read_bookshelf(dir() + "/g1.aux");
  const Netlist& nl1 = d1.netlist;

  // Dimensions and offsets: bitwise after one round trip (cell and pin
  // order are preserved by both writer and reader).
  ASSERT_EQ(nl1.num_cells(), original.num_cells());
  ASSERT_EQ(nl1.num_pins(), original.num_pins());
  for (CellId i = 0; i < original.num_cells(); ++i) {
    const Cell& a = original.cell(i);
    const Cell& b = nl1.cell(i);
    ASSERT_EQ(original.cell_name(i), nl1.cell_name(i));
    EXPECT_EQ(bits(a.width), bits(b.width)) << original.cell_name(i);
    EXPECT_EQ(bits(a.height), bits(b.height)) << original.cell_name(i);
  }
  for (PinId k = 0; k < original.num_pins(); ++k) {
    EXPECT_EQ(bits(original.pin(k).dx), bits(nl1.pin(k).dx)) << "pin " << k;
    EXPECT_EQ(bits(original.pin(k).dy), bits(nl1.pin(k).dy)) << "pin " << k;
  }
  ASSERT_EQ(nl1.rows().size(), original.rows().size());
  for (size_t r = 0; r < original.rows().size(); ++r) {
    EXPECT_EQ(bits(original.rows()[r].y), bits(nl1.rows()[r].y));
    EXPECT_EQ(bits(original.rows()[r].height), bits(nl1.rows()[r].height));
    EXPECT_EQ(bits(original.rows()[r].site_width),
              bits(nl1.rows()[r].site_width));
    EXPECT_EQ(bits(original.rows()[r].xl), bits(nl1.rows()[r].xl));
  }

  // Transform-free sections stabilize immediately: generation 2 files are
  // byte-identical to generation 1.
  write_bookshelf(nl1, dir(), "g2");
  for (const char* ext : {".nodes", ".nets", ".wts", ".scl"})
    EXPECT_EQ(slurp(dir() + "/g1" + ext), slurp(dir() + "/g2" + ext)) << ext;

  // .pl coordinates: generation 2 -> 3 is the fixed point.
  const BookshelfDesign d2 = read_bookshelf(dir() + "/g2.aux");
  write_bookshelf(d2.netlist, dir(), "g3");
  EXPECT_EQ(slurp(dir() + "/g2.pl"), slurp(dir() + "/g3.pl"));
  const BookshelfDesign d3 = read_bookshelf(dir() + "/g3.aux");
  for (CellId i = 0; i < d2.netlist.num_cells(); ++i) {
    EXPECT_EQ(bits(d2.netlist.cell(i).x), bits(d3.netlist.cell(i).x)) << i;
    EXPECT_EQ(bits(d2.netlist.cell(i).y), bits(d3.netlist.cell(i).y)) << i;
  }
}

TEST(Bookshelf, WritePlMatchesStreamReferenceBytes) {
  // Zero-size fixed pads carry the awkward values verbatim (x − 0/2 keeps
  // −0.0 and the subnormal); two movable cells exercise the centre →
  // lower-left transform.
  const std::vector<double> values = {-0.0,   0.1,       1.0 / 3.0,
                                      5e-324, 1e300,     0.0,
                                      42.0,   1048576.0, -123456789.125,
                                      -1e20,  -7.0};
  Netlist nl;
  std::vector<CellId> ids;
  for (size_t i = 0; i < values.size(); ++i) {
    Cell pad;
    pad.width = pad.height = 0.0;
    pad.kind = CellKind::Fixed;
    ids.push_back(nl.add_cell(pad, "t" + std::to_string(i)));
  }
  Cell c;
  c.width = 3.0;
  c.height = 12.0;
  ids.push_back(nl.add_cell(c, "a"));
  c.flipped_x = true;
  ids.push_back(nl.add_cell(c, "b"));
  nl.add_net("n", 1.0, {{ids.front(), 0, 0}, {ids.back(), 0, 0}});
  nl.set_core({0.0, 0.0, 100.0, 12.0});
  nl.finalize();

  Placement p = nl.snapshot();
  for (size_t i = 0; i < values.size(); ++i) {
    p.x[ids[i]] = values[i];
    p.y[ids[i]] = values[values.size() - 1 - i];
  }
  p.x[ids[values.size()]] = 1.0 / 7.0;
  p.y[ids[values.size()]] = -1e-7;
  p.x[ids.back()] = 98765.4321;
  p.y[ids.back()] = 6.0;

  std::ostringstream ref;
  ref.precision(17);
  ref << "UCLA pl 1.0\n\n";
  for (CellId i = 0; i < nl.num_cells(); ++i) {
    const Cell& cell = nl.cell(i);
    ref << nl.cell_name(i) << '\t' << p.x[i] - cell.width / 2.0 << '\t'
        << p.y[i] - cell.height / 2.0 << "\t: "
        << (cell.flipped_x ? "FN" : "N");
    if (!cell.movable()) ref << " /FIXED";
    ref << '\n';
  }

  const fs::path dir = fs::temp_directory_path() /
                       ("complx_write_pl_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  write_bookshelf(nl, dir.string(), "w");
  write_pl(nl, p, (dir / "w.pl").string());
  EXPECT_EQ(slurp((dir / "w.pl").string()), ref.str());

  const std::string base = (dir / "w").string();
  const BookshelfDesign back = read_bookshelf_files(
      base + ".nodes", base + ".nets", base + ".wts", base + ".pl",
      base + ".scl");
  ASSERT_EQ(back.netlist.num_cells(), nl.num_cells());
  for (CellId i = 0; i < nl.num_cells(); ++i) {
    const Cell& cell = nl.cell(i);
    EXPECT_EQ(bits(back.netlist.cell(i).x), bits(p.x[i] - cell.width / 2.0))
        << nl.cell_name(i);
    EXPECT_EQ(bits(back.netlist.cell(i).y), bits(p.y[i] - cell.height / 2.0))
        << nl.cell_name(i);
  }

  // A placement that does not cover the netlist is rejected, not read out
  // of bounds.
  Placement short_p = p;
  short_p.x.pop_back();
  EXPECT_THROW(write_pl(nl, short_p, (dir / "bad.pl").string()),
               std::invalid_argument);
  short_p = p;
  short_p.y.push_back(0.0);
  EXPECT_THROW(write_pl(nl, short_p, (dir / "bad.pl").string()),
               std::invalid_argument);
  EXPECT_FALSE(fs::exists(dir / "bad.pl"));
  fs::remove_all(dir);
}

TEST_F(BookshelfRoundTrip, OrientationFlagRoundTrips) {
  Netlist original = testing::small_circuit(14, 300);
  // Flip a handful of cells, then round-trip.
  std::vector<std::string> flipped_names;
  for (CellId id : original.movable_cells()) {
    if (id % 7 == 0) {
      original.flip_horizontal(id);
      flipped_names.push_back(std::string(original.cell_name(id)));
    }
  }
  ASSERT_FALSE(flipped_names.empty());
  write_bookshelf(original, dir(), "fl");
  const Netlist& nl = read_bookshelf(dir() + "/fl.aux").netlist;
  for (const std::string& name : flipped_names)
    EXPECT_TRUE(nl.cell(nl.find_cell(name)).flipped_x) << name;
  // Geometry identical (offsets were written post-flip).
  EXPECT_NEAR(stored_hpwl(original), stored_hpwl(nl),
              1e-6 * stored_hpwl(original));
}

TEST_F(BookshelfRoundTrip, MacrosSurvive) {
  Netlist original = testing::small_circuit(12, 400, /*movable_macros=*/3);
  write_bookshelf(original, dir(), "mx");
  const Netlist& nl = read_bookshelf(dir() + "/mx.aux").netlist;
  size_t macros = 0;
  for (const Cell& c : nl.cells())
    if (c.is_macro()) ++macros;
  EXPECT_EQ(macros, 3u);
}

TEST_F(BookshelfRoundTrip, PlWriterEmitsFixedMarkers) {
  Netlist nl = testing::two_cell_chain();
  write_pl(nl, nl.snapshot(), dir() + "/t.pl");
  std::ifstream in(dir() + "/t.pl");
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("/FIXED"), std::string::npos);
  EXPECT_NE(all.find("c0"), std::string::npos);
}

TEST_F(BookshelfRoundTrip, ParserToleratesCommentsAndBlankLines) {
  const std::string base = dir() + "/h";
  std::ofstream(base + ".nodes") << "UCLA nodes 1.0\n# comment\n\n"
                                 << "NumNodes : 2\nNumTerminals : 1\n"
                                 << "a 4 12\n"
                                 << "p 0 0 terminal\n";
  std::ofstream(base + ".nets") << "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
                                << "NetDegree : 2 n0\n"
                                << "a I : 0.5 -0.5\n"
                                << "p O : 0 0\n";
  std::ofstream(base + ".pl") << "UCLA pl 1.0\na 5 0 : N\np 0 0 : N /FIXED\n";
  std::ofstream(base + ".scl") << "UCLA scl 1.0\nNumRows : 1\n"
                               << "CoreRow Horizontal\n  Coordinate : 0\n"
                               << "  Height : 12\n  Sitewidth : 1\n"
                               << "  SubrowOrigin : 0  NumSites : 100\nEnd\n";
  std::ofstream(base + ".aux")
      << "RowBasedPlacement : h.nodes h.nets h.wts h.pl h.scl\n";

  const BookshelfDesign d = read_bookshelf(base + ".aux");
  EXPECT_EQ(d.netlist.num_cells(), 2u);
  EXPECT_EQ(d.netlist.num_nets(), 1u);
  EXPECT_EQ(d.netlist.num_movable(), 1u);
  const CellId a = d.netlist.find_cell("a");
  EXPECT_DOUBLE_EQ(d.netlist.cell(a).x, 5.0);
  // Pin offset survived.
  EXPECT_DOUBLE_EQ(d.netlist.pin(0).dx, 0.5);
  EXPECT_DOUBLE_EQ(d.netlist.pin(0).dy, -0.5);
  // Row parsed.
  ASSERT_EQ(d.netlist.rows().size(), 1u);
  EXPECT_DOUBLE_EQ(d.netlist.rows()[0].xh, 100.0);
}

TEST_F(BookshelfRoundTrip, WtsAppliesWeights) {
  const std::string base = dir() + "/w";
  std::ofstream(base + ".nodes") << "NumNodes : 2\na 4 12\nb 4 12\n";
  std::ofstream(base + ".nets")
      << "NumNets : 1\nNetDegree : 2 heavy\na I : 0 0\nb O : 0 0\n";
  std::ofstream(base + ".wts") << "heavy 3.5\n";
  std::ofstream(base + ".pl") << "a 0 0 : N\nb 10 0 : N\n";
  std::ofstream(base + ".scl") << "";
  std::ofstream(base + ".aux")
      << "RowBasedPlacement : w.nodes w.nets w.wts w.pl w.scl\n";
  const BookshelfDesign d = read_bookshelf(base + ".aux");
  ASSERT_EQ(d.netlist.num_nets(), 1u);
  EXPECT_DOUBLE_EQ(d.netlist.net(0).weight, 3.5);
}

TEST_F(BookshelfRoundTrip, MissingWtsDefaultsToUnitWeights) {
  Netlist original = testing::small_circuit(13, 300);
  write_bookshelf(original, dir(), "nw");
  std::remove((dir() + "/nw.wts").c_str());
  const Netlist& nl = read_bookshelf(dir() + "/nw.aux").netlist;
  for (const Net& n : nl.nets()) EXPECT_DOUBLE_EQ(n.weight, 1.0);
}

// Capture the message of the runtime_error thrown by `expr` (empty if none).
#define THROWN_MESSAGE(expr)                 \
  [&]() -> std::string {                     \
    try {                                    \
      (void)(expr);                          \
    } catch (const std::runtime_error& e) {  \
      return e.what();                       \
    }                                        \
    return {};                               \
  }()

TEST_F(BookshelfRoundTrip, UnknownCellInNetThrowsWithFileAndLine) {
  const std::string base = dir() + "/u";
  std::ofstream(base + ".nodes") << "NumNodes : 1\na 4 12\n";
  std::ofstream(base + ".nets")
      << "NumNets : 2\nNetDegree : 2 bad\na I : 0 0\nghost O : 0 0\n"
      << "NetDegree : 2 ok\na I : 0 0\na O : 1 0\n";
  std::ofstream(base + ".pl") << "a 0 0 : N\n";
  std::ofstream(base + ".scl") << "";
  std::ofstream(base + ".aux")
      << "RowBasedPlacement : u.nodes u.nets u.wts u.pl u.scl\n";
  // A dangling pin reference is an inconsistent .nodes/.nets pair; the
  // reader refuses it rather than silently dropping connectivity.
  const std::string msg = THROWN_MESSAGE(read_bookshelf(base + ".aux"));
  EXPECT_NE(msg.find(".nets:4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("ghost"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bad"), std::string::npos) << msg;
}

TEST_F(BookshelfRoundTrip, DuplicateNodeNameThrows) {
  const std::string base = dir() + "/d";
  std::ofstream(base + ".nodes") << "NumNodes : 2\na 4 12\na 6 12\n";
  std::ofstream(base + ".nets") << "";
  std::ofstream(base + ".pl") << "";
  std::ofstream(base + ".scl") << "";
  std::ofstream(base + ".aux")
      << "RowBasedPlacement : d.nodes d.nets d.wts d.pl d.scl\n";
  const std::string msg = THROWN_MESSAGE(read_bookshelf(base + ".aux"));
  EXPECT_NE(msg.find(".nodes:3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicate node name 'a'"), std::string::npos) << msg;
}

TEST_F(BookshelfRoundTrip, NumNodesMismatchThrows) {
  const std::string base = dir() + "/t";
  // Declares 3 nodes, supplies 2: a truncated file must not parse.
  std::ofstream(base + ".nodes") << "NumNodes : 3\na 4 12\nb 4 12\n";
  std::ofstream(base + ".nets") << "";
  std::ofstream(base + ".pl") << "";
  std::ofstream(base + ".scl") << "";
  std::ofstream(base + ".aux")
      << "RowBasedPlacement : t.nodes t.nets t.wts t.pl t.scl\n";
  const std::string msg = THROWN_MESSAGE(read_bookshelf(base + ".aux"));
  EXPECT_NE(msg.find("NumNodes=3"), std::string::npos) << msg;
}

TEST_F(BookshelfRoundTrip, ShortNetDegreeBlockThrows) {
  const std::string base = dir() + "/s";
  std::ofstream(base + ".nodes") << "NumNodes : 2\na 4 12\nb 4 12\n";
  // First net declares 3 pins but only 2 follow before the next NetDegree.
  std::ofstream(base + ".nets")
      << "NumNets : 2\nNetDegree : 3 short\na I : 0 0\nb O : 0 0\n"
      << "NetDegree : 2 ok\na I : 0 0\nb O : 0 0\n";
  std::ofstream(base + ".pl") << "a 0 0 : N\nb 0 0 : N\n";
  std::ofstream(base + ".scl") << "";
  std::ofstream(base + ".aux")
      << "RowBasedPlacement : s.nodes s.nets s.wts s.pl s.scl\n";
  const std::string msg = THROWN_MESSAGE(read_bookshelf(base + ".aux"));
  EXPECT_NE(msg.find("'short'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("NetDegree 3"), std::string::npos) << msg;
}

TEST_F(BookshelfRoundTrip, TruncatedNetsFileThrows) {
  const std::string base = dir() + "/e";
  std::ofstream(base + ".nodes") << "NumNodes : 2\na 4 12\nb 4 12\n";
  std::ofstream(base + ".nets")
      << "NumNets : 1\nNetDegree : 3 cut\na I : 0 0\n";
  std::ofstream(base + ".pl") << "a 0 0 : N\nb 0 0 : N\n";
  std::ofstream(base + ".scl") << "";
  std::ofstream(base + ".aux")
      << "RowBasedPlacement : e.nodes e.nets e.wts e.pl e.scl\n";
  const std::string msg = THROWN_MESSAGE(read_bookshelf(base + ".aux"));
  EXPECT_NE(msg.find("'cut'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("missing at EOF"), std::string::npos) << msg;
}

TEST_F(BookshelfRoundTrip, PinLineOutsideNetBlockThrows) {
  const std::string base = dir() + "/p";
  std::ofstream(base + ".nodes") << "NumNodes : 1\na 4 12\n";
  std::ofstream(base + ".nets") << "NumNets : 0\na I : 0 0\n";
  std::ofstream(base + ".pl") << "a 0 0 : N\n";
  std::ofstream(base + ".scl") << "";
  std::ofstream(base + ".aux")
      << "RowBasedPlacement : p.nodes p.nets p.wts p.pl p.scl\n";
  const std::string msg = THROWN_MESSAGE(read_bookshelf(base + ".aux"));
  EXPECT_NE(msg.find("pin line outside a NetDegree block"), std::string::npos)
      << msg;
}

TEST(Bookshelf, MissingAuxThrows) {
  EXPECT_THROW(read_bookshelf("/nonexistent/x.aux"), std::runtime_error);
}

TEST_F(BookshelfRoundTrip, MalformedNumberThrows) {
  const std::string base = dir() + "/m";
  std::ofstream(base + ".nodes") << "NumNodes : 1\na four 12\n";
  std::ofstream(base + ".nets") << "";
  std::ofstream(base + ".pl") << "";
  std::ofstream(base + ".scl") << "";
  std::ofstream(base + ".aux")
      << "RowBasedPlacement : m.nodes m.nets m.wts m.pl m.scl\n";
  EXPECT_THROW(read_bookshelf(base + ".aux"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Tokenizer, strict numbers and declared counts.

// Every field the reader produces, compared as bit patterns (-0.0 and +0.0
// differ): cells, names, nets, pins, rows and the core.
void expect_netlists_bitwise_equal(const Netlist& a, const Netlist& b) {
  ASSERT_EQ(a.num_cells(), b.num_cells());
  ASSERT_EQ(a.num_nets(), b.num_nets());
  ASSERT_EQ(a.num_pins(), b.num_pins());
  size_t bad = 0;
  for (CellId i = 0; i < a.num_cells() && bad < 10; ++i) {
    const Cell& x = a.cell(i);
    const Cell& y = b.cell(i);
    if (a.cell_name(i) != b.cell_name(i) || bits(x.width) != bits(y.width) ||
        bits(x.height) != bits(y.height) || bits(x.x) != bits(y.x) ||
        bits(x.y) != bits(y.y) || x.kind != y.kind || x.region != y.region ||
        x.flipped_x != y.flipped_x) {
      ++bad;
      ADD_FAILURE() << "cell " << i << " '" << a.cell_name(i) << "'";
    }
  }
  for (NetId e = 0; e < a.num_nets() && bad < 10; ++e) {
    if (a.net_name(e) != b.net_name(e) ||
        bits(a.net(e).weight) != bits(b.net(e).weight) ||
        a.net(e).first_pin != b.net(e).first_pin ||
        a.net(e).num_pins != b.net(e).num_pins) {
      ++bad;
      ADD_FAILURE() << "net " << e << " '" << a.net_name(e) << "'";
    }
  }
  for (PinId k = 0; k < a.num_pins() && bad < 10; ++k) {
    const Pin p = a.pin(k);
    const Pin q = b.pin(k);
    if (p.cell != q.cell || bits(p.dx) != bits(q.dx) ||
        bits(p.dy) != bits(q.dy)) {
      ++bad;
      ADD_FAILURE() << "pin " << k;
    }
  }
  ASSERT_EQ(a.rows().size(), b.rows().size());
  for (size_t r = 0; r < a.rows().size(); ++r) {
    const Row& x = a.rows()[r];
    const Row& y = b.rows()[r];
    EXPECT_TRUE(bits(x.y) == bits(y.y) && bits(x.height) == bits(y.height) &&
                bits(x.xl) == bits(y.xl) && bits(x.xh) == bits(y.xh) &&
                bits(x.site_width) == bits(y.site_width))
        << "row " << r;
  }
  EXPECT_EQ(bits(a.core().xl), bits(b.core().xl));
  EXPECT_EQ(bits(a.core().yl), bits(b.core().yl));
  EXPECT_EQ(bits(a.core().xh), bits(b.core().xh));
  EXPECT_EQ(bits(a.core().yh), bits(b.core().yh));
}

// One write -> read cycle reproduces every field bitwise. The one expected
// change is the .pl lower-left corner, which the writer derives from the
// cell center: x' = (x + w/2) - w/2 in double arithmetic.
void expect_round_trip_bitwise(const Netlist& original, const Netlist& read) {
  Netlist expected = original;
  for (CellId i = 0; i < expected.num_cells(); ++i) {
    Cell& c = expected.cell(i);
    c.x = c.cx() - c.width / 2.0;
    c.y = c.cy() - c.height / 2.0;
  }
  expect_netlists_bitwise_equal(expected, read);
}

TEST_F(BookshelfRoundTrip, GeneratedCircuitRoundTripIsBitwise) {
  GenParams p;
  p.seed = 21;
  p.num_cells = 2000;
  p.num_movable_macros = 2;
  p.num_fixed_macros = 2;
  const Netlist original = generate_circuit(p);
  write_bookshelf(original, dir(), "gc");
  expect_round_trip_bitwise(original,
                            read_bookshelf(dir() + "/gc.aux").netlist);
}

TEST_F(BookshelfRoundTrip, PekoWithFixedMacrosRoundTripIsBitwise) {
  PekoParams p;
  p.seed = 4;
  p.num_cells = 1024;
  p.utilization = 0.5;
  p.num_fixed_macros = 4;
  const PekoDesign design = generate_peko(p);
  ASSERT_GT(design.macros_placed, 0u);
  write_bookshelf(design.netlist, dir(), "pk");
  expect_round_trip_bitwise(design.netlist,
                            read_bookshelf(dir() + "/pk.aux").netlist);
}

class BookshelfText : public BookshelfRoundTrip {
 protected:
  // Writes design `name` from inline file texts; returns its .aux path.
  std::string write(const std::string& name, const std::string& nodes,
                    const std::string& nets, const std::string& pl,
                    const std::string& scl, const std::string& wts = "") {
    const std::string base = dir() + "/" + name;
    std::ofstream(base + ".nodes", std::ios::binary) << nodes;
    std::ofstream(base + ".nets", std::ios::binary) << nets;
    std::ofstream(base + ".wts", std::ios::binary) << wts;
    std::ofstream(base + ".pl", std::ios::binary) << pl;
    std::ofstream(base + ".scl", std::ios::binary) << scl;
    std::ofstream(base + ".aux")
        << "RowBasedPlacement : " << name << ".nodes " << name << ".nets "
        << name << ".wts " << name << ".pl " << name << ".scl\n";
    return base + ".aux";
  }
};

const char* const kNodes =
    "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n"
    "a 4 12\nb 6 12\np 1 1 terminal\n";
const char* const kNets =
    "UCLA nets 1.0\nNumNets : 2\nNumPins : 5\n"
    "NetDegree : 2 n0\na I : 0.5 -0.25\nb O : 0 0\n"
    "NetDegree : 3 n1\na I : 1 1\nb I : -1 0\np O : 0 0\n";
const char* const kPl =
    "UCLA pl 1.0\na 5 0 : N\nb 10.5 12 : FN\np 0 0 : N /FIXED\n";
const char* const kScl =
    "UCLA scl 1.0\nNumRows : 2\n"
    "CoreRow Horizontal\n Coordinate : 0\n Height : 12\n Sitewidth : 1\n"
    " SubrowOrigin : 0 NumSites : 50\nEnd\n"
    "CoreRow Horizontal\n Coordinate : 12\n Height : 12\n Sitewidth : 1\n"
    " SubrowOrigin : 0 NumSites : 50\nEnd\n";
const char* const kWts = "UCLA wts 1.0\nn0 2\nn1 0.5\n";

TEST_F(BookshelfText, ReferenceDesignParses) {
  const Netlist nl =
      read_bookshelf(write("ref", kNodes, kNets, kPl, kScl, kWts)).netlist;
  ASSERT_EQ(nl.num_cells(), 3u);
  ASSERT_EQ(nl.num_nets(), 2u);
  EXPECT_EQ(nl.cell_name(2), "p");
  EXPECT_EQ(nl.cell(2).kind, CellKind::Fixed);
  EXPECT_TRUE(nl.cell(1).flipped_x);
  EXPECT_EQ(bits(nl.cell(1).x), bits(10.5));
  EXPECT_EQ(bits(nl.pin(0).dy), bits(-0.25));
  EXPECT_EQ(bits(nl.net(0).weight), bits(2.0));
  EXPECT_EQ(bits(nl.net(1).weight), bits(0.5));
  ASSERT_EQ(nl.rows().size(), 2u);
  EXPECT_EQ(bits(nl.core().yh), bits(24.0));
}

std::string with_crlf(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '\n') out += '\r';
    out += c;
  }
  return out;
}

TEST_F(BookshelfText, CrlfLineEndingsReadLikeLf) {
  const Netlist lf =
      read_bookshelf(write("lf", kNodes, kNets, kPl, kScl, kWts)).netlist;
  const Netlist crlf =
      read_bookshelf(write("crlf", with_crlf(kNodes), with_crlf(kNets),
                           with_crlf(kPl), with_crlf(kScl), with_crlf(kWts)))
          .netlist;
  EXPECT_EQ(crlf.cell_name(2), "p");  // no '\r' glued to the name
  expect_netlists_bitwise_equal(lf, crlf);
}

TEST_F(BookshelfText, LastLineWithoutNewlineIsRead) {
  auto chop = [](std::string s) {
    s.pop_back();  // every fixture text ends in '\n'
    return s;
  };
  const Netlist lf =
      read_bookshelf(write("lf", kNodes, kNets, kPl, kScl, kWts)).netlist;
  const Netlist cut =
      read_bookshelf(write("cut", chop(kNodes), chop(kNets), chop(kPl),
                           chop(kScl), chop(kWts)))
          .netlist;
  expect_netlists_bitwise_equal(lf, cut);
}

TEST_F(BookshelfText, CommentEndsTheLineMidway) {
  const std::string nodes =
      "NumNodes : 3 # three\na 4 12 # terminal\nb 6 12\n"
      "p 1 1 terminal#comment glued on\n";
  const std::string nets =
      "NumNets : 2 # header\nNumPins : 5\n"
      "NetDegree : 2 n0 # net name ends before this\n"
      "a I : 0.5 -0.25 # 99\nb O : 0 0\n"
      "NetDegree : 3 n1\na I : 1 1\nb I : -1 0#\np O : 0 0\n";
  const std::string pl =
      "a 5 0 : N # /FIXED\nb 10.5 12 : FN\np 0 0 : N /FIXED\n";
  const Netlist ref =
      read_bookshelf(write("ref", kNodes, kNets, kPl, kScl, kWts)).netlist;
  const Netlist nl =
      read_bookshelf(write("cm", nodes, nets, pl, kScl, kWts)).netlist;
  EXPECT_EQ(nl.net_name(0), "n0");
  EXPECT_EQ(nl.cell(0).kind, CellKind::Movable);
  expect_netlists_bitwise_equal(ref, nl);
}

TEST_F(BookshelfText, MixedTabsAndSpacesSeparateTokens) {
  const std::string nodes =
      "NumNodes\t:\t3\n\tNumTerminals :\t 1\na\t4 \t12\n  b  6\t\t12  \n"
      "\t p\t1 1\tterminal\t\n";
  const std::string nets =
      "NumNets : 2\nNumPins\t: 5\nNetDegree\t:\t2\tn0\n\ta\tI\t:\t0.5\t-0.25\n"
      " b O : 0 0 \nNetDegree : 3  n1\n\ta I :  1\t1\n\tb I : -1\t 0\n"
      "\tp O : 0 0\n";
  const std::string pl =
      "a\t5\t0\t:\tN\nb 10.5\t12 :\tFN\n\tp 0 0 : N\t/FIXED\n";
  const Netlist ref =
      read_bookshelf(write("ref", kNodes, kNets, kPl, kScl, kWts)).netlist;
  const Netlist nl =
      read_bookshelf(write("tab", nodes, nets, pl, kScl, kWts)).netlist;
  expect_netlists_bitwise_equal(ref, nl);
}

TEST_F(BookshelfText, LinesLongerThanAReadBlockAreWhole) {
  // The reader fetches files in 32 KiB blocks; a 300k-character name spans
  // several of them and must still come back as one token.
  const std::string big(300000, 'q');
  const std::string nodes = "NumNodes : 2\na 4 12\n" + big + " 6 12\n";
  const std::string nets =
      "NumNets : 1\nNetDegree : 2 n0\na I : 0 0\n" + big + " O : 1 2\n";
  const std::string pl = "a 1 0 : N\n" + big + " 7 12 : FN\n";
  const Netlist nl =
      read_bookshelf(write("long", nodes, nets, pl, kScl)).netlist;
  ASSERT_EQ(nl.num_cells(), 2u);
  EXPECT_EQ(nl.cell_name(1), big);
  EXPECT_EQ(bits(nl.cell(1).x), bits(7.0));
  EXPECT_TRUE(nl.cell(1).flipped_x);
  ASSERT_EQ(nl.num_pins(), 2u);
  EXPECT_EQ(nl.pin(1).cell, 1u);
  EXPECT_EQ(bits(nl.pin(1).dy), bits(2.0));
}

TEST_F(BookshelfText, EmptyPlAndSclGiveOriginCellsAndBoundingBoxCore) {
  const Netlist nl =
      read_bookshelf(write("empty", kNodes, kNets, "", "", kWts)).netlist;
  ASSERT_EQ(nl.num_cells(), 3u);
  for (const Cell& c : nl.cells()) {
    EXPECT_EQ(bits(c.x), bits(0.0));
    EXPECT_EQ(bits(c.y), bits(0.0));
    EXPECT_FALSE(c.flipped_x);
  }
  // No /FIXED markers: only the terminal is fixed; no rows, no macros.
  EXPECT_EQ(nl.num_movable(), 2u);
  EXPECT_EQ(bits(nl.core().xh), bits(6.0));
  EXPECT_EQ(bits(nl.core().yh), bits(12.0));
  // Netlist::finalize synthesizes rows over the core when .scl has none.
  ASSERT_EQ(nl.rows().size(), 1u);
  EXPECT_EQ(bits(nl.rows()[0].xh), bits(6.0));
}

TEST_F(BookshelfText, OnePinNetIsDroppedButCounted) {
  // NumNets/NumPins count the 1-pin net; the netlist does not keep it.
  const std::string nets =
      "NumNets : 3\nNumPins : 6\nNetDegree : 1 solo\na I : 0 0\n"
      "NetDegree : 2 n0\na I : 0.5 -0.25\nb O : 0 0\n"
      "NetDegree : 3 n1\na I : 1 1\nb I : -1 0\np O : 0 0\n";
  const Netlist ref =
      read_bookshelf(write("ref", kNodes, kNets, kPl, kScl, kWts)).netlist;
  const Netlist nl =
      read_bookshelf(write("one", kNodes, nets, kPl, kScl, kWts)).netlist;
  EXPECT_EQ(nl.num_nets(), 2u);
  expect_netlists_bitwise_equal(ref, nl);
}

TEST_F(BookshelfText, NumNetsMismatchThrows) {
  // Cut at a net boundary: every remaining block is complete, so only the
  // declared count can tell.
  const std::string nets =
      "NumNets : 2\nNumPins : 5\nNetDegree : 2 n0\na I : 0.5 -0.25\n"
      "b O : 0 0\n";
  const std::string msg = THROWN_MESSAGE(
      read_bookshelf(write("nn", kNodes, nets, kPl, kScl, kWts)));
  EXPECT_NE(msg.find("nn.nets:5: NumNets=2 but 1 nets parsed"),
            std::string::npos)
      << msg;
}

TEST_F(BookshelfText, NumPinsMismatchThrows) {
  const std::string nets =
      "NumNets : 2\nNumPins : 6\nNetDegree : 2 n0\na I : 0.5 -0.25\n"
      "b O : 0 0\nNetDegree : 3 n1\na I : 1 1\nb I : -1 0\np O : 0 0\n";
  const std::string msg = THROWN_MESSAGE(
      read_bookshelf(write("np", kNodes, nets, kPl, kScl, kWts)));
  EXPECT_NE(msg.find("np.nets:9: NumPins=6 but 5 pins parsed"),
            std::string::npos)
      << msg;
}

// Each case replaces one line of the reference design. A number must be
// the whole token (one leading '+' allowed) and finite.
struct BadNumber {
  const char* ext;     ///< file the bad line goes into
  const char* from;    ///< reference line text to replace
  const char* to;      ///< replacement
  const char* expect;  ///< "<ext>:<line>: expected ..., got '...'"
};

TEST_F(BookshelfText, NumbersMustBeWholeFiniteTokens) {
  const BadNumber cases[] = {
      {".nodes", "a 4 12", "a 4abc 12",
       ".nodes:4: expected number, got '4abc'"},
      {".nodes", "b 6 12", "b 6 12.5.1",
       ".nodes:5: expected number, got '12.5.1'"},
      {".nodes", "a 4 12", "a inf 12", ".nodes:4: expected number, got 'inf'"},
      {".nodes", "NumNodes : 3", "NumNodes : 3x",
       ".nodes:2: expected integer, got '3x'"},
      {".nodes", "NumNodes : 3", "NumNodes :",
       ".nodes:2: expected integer, got ''"},
      {".nets", "NetDegree : 2 n0", "NetDegree : 2.5 n0",
       ".nets:4: expected integer, got '2.5'"},
      {".nets", "NumPins : 5", "NumPins : +-5",
       ".nets:3: expected integer, got '+-5'"},
      {".nets", "b O : 0 0", "b O : 0 0x1",
       ".nets:6: expected number, got '0x1'"},
      {".nets", "a I : 1 1", "a I : nan 1",
       ".nets:8: expected number, got 'nan'"},
      {".pl", "a 5 0 : N", "a 5um 0 : N", ".pl:2: expected number, got '5um'"},
      {".pl", "b 10.5 12 : FN", "b 10.5 -inf : FN",
       ".pl:3: expected number, got '-inf'"},
      {".wts", "n1 0.5", "n1 1e999", ".wts:3: expected number, got '1e999'"},
      {".wts", "n0 2", "n0 NaN", ".wts:2: expected number, got 'NaN'"},
      {".scl", " Height : 12", " Height : 12,0",
       ".scl:5: expected number, got '12,0'"},
  };
  for (const BadNumber& c : cases) {
    std::string files[] = {kNodes, kNets, kPl, kScl, kWts};
    const std::string exts[] = {".nodes", ".nets", ".pl", ".scl", ".wts"};
    for (int f = 0; f < 5; ++f) {
      if (exts[f] != c.ext) continue;
      const size_t at = files[f].find(c.from);
      ASSERT_NE(at, std::string::npos) << c.from;
      files[f].replace(at, std::string(c.from).size(), c.to);
    }
    const std::string msg = THROWN_MESSAGE(read_bookshelf(
        write("bad", files[0], files[1], files[2], files[3], files[4])));
    EXPECT_NE(msg.find(std::string("bad") + c.expect), std::string::npos)
        << c.to << " -> " << msg;
  }
}

TEST_F(BookshelfText, LeadingPlusIsAccepted) {
  const std::string nodes =
      "NumNodes : +3\na +4 12\nb 6 +12\np 1 1 terminal\n";
  const std::string pl = "a +5 +0 : N\nb 10.5 12 : FN\np 0 0 : N /FIXED\n";
  const Netlist ref =
      read_bookshelf(write("ref", kNodes, kNets, kPl, kScl, kWts)).netlist;
  const Netlist nl =
      read_bookshelf(write("plus", nodes, kNets, pl, kScl, kWts)).netlist;
  expect_netlists_bitwise_equal(ref, nl);
}

// ---------------------------------------------------------------------------
// Truncation ladder (ctest label `chaos`, run under ASan/UBSan in CI): a
// small valid design's .nodes and .nets cut at every byte offset. Each read
// must throw std::runtime_error or parse — never crash, read out of bounds
// or throw anything else. Thanks to the declared counts, a read that parses
// still has every cell, net and pin — unless the .nets cut falls before the
// first NetDegree, where a file that declares nothing reads as net-free.

TEST(BookshelfTruncation, EveryPrefixThrowsOrParsesWhole) {
  // Per-process directory: ctest runs this test both alone (label chaos)
  // and inside the full test_bookshelf binary, possibly at the same time.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("complx_bookshelf_ladder_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  GenParams p;
  p.seed = 5;
  p.num_cells = 16;
  p.num_pads = 4;
  const Netlist original = generate_circuit(p);
  const std::string base = (dir / "t").string();
  for (const char* ext : {".nodes", ".nets"}) {
    write_bookshelf(original, dir.string(), "t");
    const std::string full = slurp(base + ext);
    size_t parsed = 0;
    for (size_t cut = 0; cut <= full.size(); ++cut) {
      std::ofstream(base + ext, std::ios::binary | std::ios::trunc)
          << full.substr(0, cut);
      const bool no_nets = std::string(ext) == ".nets" &&
                           full.substr(0, cut).find("NetDegree") ==
                               std::string::npos;
      try {
        const Netlist nl = read_bookshelf(base + ".aux").netlist;
        ++parsed;
        EXPECT_EQ(nl.num_cells(), original.num_cells()) << ext << " " << cut;
        EXPECT_EQ(nl.num_nets(), no_nets ? 0 : original.num_nets())
            << ext << " " << cut;
        EXPECT_EQ(nl.num_pins(), no_nets ? 0 : original.num_pins())
            << ext << " " << cut;
      } catch (const std::runtime_error&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << ext << " cut at " << cut << ": " << e.what();
      }
    }
    // The full file and cuts inside the trailing newline/last number parse.
    EXPECT_GE(parsed, 1u) << ext;
    EXPECT_LT(parsed, full.size() / 4) << ext;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace complx
