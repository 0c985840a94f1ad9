#include "wl/b2b.h"

#include <algorithm>
#include <cmath>

#include "util/parallel.h"

namespace complx {

namespace {

/// Springs a net of degree `deg` emits: the bound pair plus two per inner
/// pin, or none for a skipped net.
size_t springs_of(uint32_t deg, const B2bOptions& opts) {
  return deg < 2 || deg > opts.max_degree ? 0 : 2 * size_t{deg} - 3;
}

/// Writes the B2B springs of nets ids[begin, end) — of nets [begin, end)
/// when `ids` is null — to `out` in that order.
/// Works on the netlist's raw-array view: per axis, the loop touches the
/// position vector, the pin→cell array and ONE pin-offset array — the SoA
/// payoff on multi-million-pin designs.
///
/// The bound coordinates are carried in registers (lo_c/hi_c) instead of
/// being re-derived from the pin arrays at every comparison, so the scan
/// performs one position load per pin and the emit loop one per spring pair
/// (the AoS-era code did three per pin and two extra per spring). A cached
/// bound equals coord(bound) exactly — same pure arithmetic on unchanged
/// memory — so every comparison, separation and weight is bitwise identical
/// to the re-deriving loop.
void build_b2b_range(const NetlistView& v, const double* pos,
                     const double* off, const B2bOptions& opts,
                     const NetId* ids, size_t begin, size_t end,
                     PinSpring* out) {
  for (size_t i = begin; i < end; ++i) {
    const Net& net = v.nets[ids ? ids[i] : i];
    const uint32_t deg = net.num_pins;
    if (springs_of(deg, opts) == 0) continue;

    // Locate the two bound pins on this axis.
    auto coord = [&](uint32_t k) { return pos[v.pin_cell[k]] + off[k]; };
    uint32_t lo = net.first_pin, hi = net.first_pin;
    double lo_c = coord(net.first_pin), hi_c = lo_c;
    for (uint32_t k = net.first_pin + 1; k < net.first_pin + deg; ++k) {
      const double c = coord(k);
      if (c < lo_c) {
        lo = k;
        lo_c = c;
      }
      if (c > hi_c) {
        hi = k;
        hi_c = c;
      }
    }
    if (lo == hi) {
      hi = lo == net.first_pin ? lo + 1 : net.first_pin;
      hi_c = coord(hi);
    }

    // Weight w_e/((P−1)·sep): in the Σ w (Δ)² convention used throughout
    // this codebase (no ½ factor), the quadratic form then equals the
    // weighted HPWL exactly at the linearization point.
    const double scale = net.weight / static_cast<double>(deg - 1);
    auto emit = [&](uint32_t a, uint32_t b, double ca, double cb) {
      const double sep = std::max(std::abs(ca - cb), opts.min_separation);
      *out++ = {a, b, scale / sep};
    };

    emit(lo, hi, lo_c, hi_c);
    for (uint32_t k = net.first_pin; k < net.first_pin + deg; ++k) {
      if (k == lo || k == hi) continue;
      const double c = coord(k);
      emit(k, lo, c, lo_c);
      emit(k, hi, c, hi_c);
    }
  }
}

}  // namespace

void build_b2b(const Netlist& nl, const Placement& p, Axis axis,
               const B2bOptions& opts, std::vector<PinSpring>& springs,
               const std::vector<NetId>* nets) {
  const NetlistView v = nl.view();
  const double* pos = axis == Axis::X ? p.x.data() : p.y.data();
  const double* off = axis == Axis::X ? v.pin_dx : v.pin_dy;
  const NetId* ids = nets ? nets->data() : nullptr;
  const size_t num_nets = nets ? nets->size() : v.num_nets;
  constexpr size_t kMaxBlocks = 64;
  const Partition part = partition_range(num_nets, 512, kMaxBlocks);

  // A net's spring count follows from its degree alone, so every block
  // knows where its springs start and writes them in place: the output is
  // the exact spring sequence of the serial loop at any thread count, with
  // no per-block buffers.
  size_t block_start[kMaxBlocks + 1] = {};
  for (size_t i = 0; i < num_nets; ++i)
    block_start[i / part.chunk + 1] +=
        springs_of(v.nets[ids ? ids[i] : i].num_pins, opts);
  for (size_t b = 0; b < part.parts; ++b) block_start[b + 1] += block_start[b];
  springs.resize(block_start[part.parts]);

  parallel_for(
      num_nets,
      [&](size_t begin, size_t end) {
        build_b2b_range(v, pos, off, opts, ids, begin, end,
                        springs.data() + block_start[begin / part.chunk]);
      },
      part.chunk);
}

}  // namespace complx
