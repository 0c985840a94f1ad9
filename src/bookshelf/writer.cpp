#include "bookshelf/writer.h"

#include <charconv>
#include <concepts>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "util/atomic_file.h"

namespace complx {

namespace {
/// Text composer for the Bookshelf files. Doubles are formatted by
/// std::to_chars at max_digits10 significant digits in general notation —
/// the same text as printf("%.17g") and as an ostream at precision 17 —
/// so the decimal parses back to the bitwise-identical double
/// (round-trip-tested in test_bookshelf). Each file is composed whole and
/// published by write_file_atomic (util/atomic_file.h): an interrupted
/// export leaves either the previous file or the complete new one — a
/// truncated .nodes/.pl would otherwise be read back as a silently smaller
/// design.
class TextOut {
 public:
  TextOut& operator<<(std::string_view s) {
    text_.append(s);
    return *this;
  }
  TextOut& operator<<(char c) {
    text_.push_back(c);
    return *this;
  }
  TextOut& operator<<(double v) {
    char buf[32];  // %.17g needs at most 24: sign, 17 digits, '.', "e-308"
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                      std::numeric_limits<double>::max_digits10);
    text_.append(buf, r.ptr);
    return *this;
  }
  template <std::integral T>
  TextOut& operator<<(T v) {
    char buf[24];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
    text_.append(buf, r.ptr);
    return *this;
  }

  void publish(const std::string& path) const {
    write_file_atomic(path, text_);
  }

 private:
  std::string text_;
};
}  // namespace

void write_pl(const Netlist& nl, const Placement& p,
              const std::string& path) {
  if (p.x.size() != nl.num_cells() || p.y.size() != nl.num_cells())
    throw std::invalid_argument("write_pl: placement size mismatch");
  TextOut out;
  out << "UCLA pl 1.0\n\n";
  for (CellId i = 0; i < nl.num_cells(); ++i) {
    const Cell& c = nl.cell(i);
    const double x = p.x[i] - c.width / 2.0;
    const double y = p.y[i] - c.height / 2.0;
    out << nl.cell_name(i) << '\t' << x << '\t' << y << "\t: "
        << (c.flipped_x ? "FN" : "N");
    if (!c.movable()) out << " /FIXED";
    out << '\n';
  }
  out.publish(path);
}

void write_bookshelf(const Netlist& nl, const std::string& dir,
                     const std::string& name) {
  const std::string base = dir + "/" + name;

  {
    TextOut out;
    out << "RowBasedPlacement : " << name << ".nodes " << name << ".nets "
        << name << ".wts " << name << ".pl " << name << ".scl\n";
    out.publish(base + ".aux");
  }
  {
    TextOut out;
    out << "UCLA nodes 1.0\n\n";
    size_t terminals = 0;
    for (const Cell& c : nl.cells())
      if (!c.movable()) ++terminals;
    out << "NumNodes : " << nl.num_cells() << "\n";
    out << "NumTerminals : " << terminals << "\n";
    for (CellId i = 0; i < nl.num_cells(); ++i) {
      const Cell& c = nl.cell(i);
      out << '\t' << nl.cell_name(i) << '\t' << c.width << '\t' << c.height;
      if (!c.movable()) out << "\tterminal";
      out << '\n';
    }
    out.publish(base + ".nodes");
  }
  {
    TextOut out;
    out << "UCLA nets 1.0\n\n";
    out << "NumNets : " << nl.num_nets() << "\n";
    out << "NumPins : " << nl.num_pins() << "\n";
    for (NetId e = 0; e < nl.num_nets(); ++e) {
      const Net& n = nl.net(e);
      out << "NetDegree : " << n.num_pins << "  " << nl.net_name(e) << '\n';
      for (uint32_t k = 0; k < n.num_pins; ++k) {
        const Pin pin = nl.pin(n.first_pin + k);
        out << '\t' << nl.cell_name(pin.cell) << "  B  : " << pin.dx << ' '
            << pin.dy << '\n';
      }
    }
    out.publish(base + ".nets");
  }
  {
    TextOut out;
    out << "UCLA wts 1.0\n\n";
    for (NetId e = 0; e < nl.num_nets(); ++e)
      out << nl.net_name(e) << '\t' << nl.net(e).weight << '\n';
    out.publish(base + ".wts");
  }
  write_pl(nl, nl.snapshot(), base + ".pl");
  {
    TextOut out;
    out << "UCLA scl 1.0\n\n";
    out << "NumRows : " << nl.rows().size() << "\n";
    for (const Row& r : nl.rows()) {
      out << "CoreRow Horizontal\n";
      out << "  Coordinate : " << r.y << '\n';
      out << "  Height : " << r.height << '\n';
      out << "  Sitewidth : " << r.site_width << '\n';
      out << "  Sitespacing : " << r.site_width << '\n';
      out << "  Siteorient : 1\n  Sitesymmetry : 1\n";
      out << "  SubrowOrigin : " << r.xl << "  NumSites : " << r.num_sites()
          << '\n';
      out << "End\n";
    }
    out.publish(base + ".scl");
  }
}

}  // namespace complx
