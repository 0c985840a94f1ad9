#include "io/svg.h"

#include <stdexcept>

#include "util/atomic_file.h"

namespace complx {

void write_placement_svg(const Netlist& nl, const Placement& p,
                         const std::string& path, const SvgOptions& opts) {
  constexpr double kImageWidthPx = 1000.0;
  AtomicFileWriter writer(path);
  std::ostream& out = writer.stream();

  // Drawing frame: the core plus a margin for pads.
  Rect frame = nl.core();
  const double margin = 0.04 * std::max(frame.width(), frame.height());
  frame = {frame.xl - margin, frame.yl - margin, frame.xh + margin,
           frame.yh + margin};
  const double scale = kImageWidthPx / frame.width();
  const double h_px = frame.height() * scale;

  // SVG y grows downward; flip so chip y grows upward.
  auto X = [&](double x) { return (x - frame.xl) * scale; };
  auto Y = [&](double y) { return h_px - (y - frame.yl) * scale; };

  out << "<svg xmlns='http://www.w3.org/2000/svg' width='"
      << kImageWidthPx << "' height='" << h_px << "' viewBox='0 0 "
      << kImageWidthPx << " " << h_px << "'>\n";
  out << "<rect width='100%' height='100%' fill='#ffffff'/>\n";

  auto rect = [&](const Rect& r, const char* fill, const char* stroke,
                  double opacity) {
    out << "<rect x='" << X(r.xl) << "' y='" << Y(r.yh) << "' width='"
        << r.width() * scale << "' height='" << r.height() * scale
        << "' fill='" << fill << "' stroke='" << stroke
        << "' stroke-width='0.5' fill-opacity='" << opacity << "'/>\n";
  };

  // Core outline.
  rect(nl.core(), "none", "#222222", 1.0);

  for (const Cell& c : nl.cells())
    if (!c.movable()) rect(c.bounds(), "#9aa0a6", "#5f6368", 0.8);

  for (CellId id : nl.movable_cells()) {
    const Cell& c = nl.cell(id);
    const Rect r{p.x[id] - c.width / 2.0, p.y[id] - c.height / 2.0,
                 p.x[id] + c.width / 2.0, p.y[id] + c.height / 2.0};
    const bool hot =
        id < opts.highlight.size() && opts.highlight[id] != 0;
    if (c.is_macro()) {
      rect(r, hot ? "#d93025" : "#f9ab00", "#b06000", 0.75);
    } else {
      rect(r, hot ? "#d93025" : "#4285f4", "none", hot ? 0.95 : 0.55);
    }
  }

  for (const Region& reg : nl.regions())
    rect(reg.box, "none", "#d93025", 1.0);

  out << "</svg>\n";
  writer.commit();
}

}  // namespace complx
