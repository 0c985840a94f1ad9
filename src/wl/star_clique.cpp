#include "wl/star_clique.h"

#include <algorithm>
#include <cmath>

namespace complx {

namespace {
double pin_coord(const Netlist& nl, const Placement& p, PinId k, Axis axis) {
  const Pin& pin = nl.pin(k);
  return axis == Axis::X ? p.x[pin.cell] + pin.dx : p.y[pin.cell] + pin.dy;
}
}  // namespace

void build_clique(const Netlist& nl, const Placement& p, Axis axis,
                  const B2bOptions& opts, std::vector<PinSpring>& springs,
                  const std::vector<NetId>* nets, uint32_t clique_max_degree) {
  springs.clear();
  const size_t num_nets = nets ? nets->size() : nl.num_nets();
  for (size_t i = 0; i < num_nets; ++i) {
    const Net& net = nl.net(nets ? (*nets)[i] : static_cast<NetId>(i));
    const uint32_t deg = net.num_pins;
    if (deg < 2 || deg > opts.max_degree) continue;

    if (deg > clique_max_degree) {
      // Fall back to star-like bound pairs to keep the edge count linear:
      // connect consecutive pins in coordinate order (a chain has the same
      // span as the clique at the linearization point).
      std::vector<PinId> order;
      order.reserve(deg);
      for (uint32_t k = net.first_pin; k < net.first_pin + deg; ++k)
        order.push_back(k);
      std::sort(order.begin(), order.end(), [&](PinId a, PinId b) {
        return pin_coord(nl, p, a, axis) < pin_coord(nl, p, b, axis);
      });
      for (uint32_t k = 0; k + 1 < deg; ++k) {
        const double sep = std::max(
            std::abs(pin_coord(nl, p, order[k], axis) -
                     pin_coord(nl, p, order[k + 1], axis)),
            opts.min_separation);
        springs.push_back({order[k], order[k + 1], net.weight / sep});
      }
      continue;
    }

    const double w = net.weight / static_cast<double>(deg - 1);
    for (uint32_t a = net.first_pin; a < net.first_pin + deg; ++a) {
      for (uint32_t b = a + 1; b < net.first_pin + deg; ++b) {
        const double sep =
            std::max(std::abs(pin_coord(nl, p, a, axis) -
                              pin_coord(nl, p, b, axis)),
                     opts.min_separation);
        springs.push_back({a, b, w / sep});
      }
    }
  }
}

void build_star(const Netlist& nl, const Placement& p, Axis axis,
                const B2bOptions& opts, std::vector<StarSpring>& springs,
                const std::vector<NetId>* nets) {
  springs.clear();
  const size_t num_nets = nets ? nets->size() : nl.num_nets();
  for (size_t i = 0; i < num_nets; ++i) {
    const Net& net = nl.net(nets ? (*nets)[i] : static_cast<NetId>(i));
    const uint32_t deg = net.num_pins;
    if (deg < 2 || deg > opts.max_degree) continue;

    double centroid = 0.0;
    for (uint32_t k = net.first_pin; k < net.first_pin + deg; ++k)
      centroid += pin_coord(nl, p, k, axis);
    centroid /= static_cast<double>(deg);

    // Star weight w_e · P/(P−1) per pin-to-center spring reproduces the
    // clique sum-of-squares at the centroid.
    const double w =
        net.weight * static_cast<double>(deg) / static_cast<double>(deg - 1);
    for (uint32_t k = net.first_pin; k < net.first_pin + deg; ++k) {
      const double sep = std::max(
          std::abs(pin_coord(nl, p, k, axis) - centroid), opts.min_separation);
      springs.push_back({k, centroid, w / sep});
    }
  }
}

}  // namespace complx
