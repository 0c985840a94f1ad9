// Netlist data model: cells (standard cells, macros, fixed terminals), nets
// with pin offsets, placement rows, and region constraints.
//
// Conventions:
//  * Cell positions are stored as LOWER-LEFT corners (Bookshelf convention).
//  * All placement algorithms operate on a Placement of cell CENTERS, one
//    entry per cell (fixed cells keep constant values). Conversion helpers
//    live on Netlist.
//  * Pin offsets are measured from the cell CENTER, as in Bookshelf .nets.
//
// Data layout (the multi-million-cell contract):
//  * Cell is a 40-byte hot struct — geometry, kind, region, orientation.
//    Names live in a NamePool side arena (cell_name()/net_name()); nothing
//    on a placer hot path ever touches a string.
//  * Pins are structure-of-arrays: pin_cell / pin_dx / pin_dy flat vectors.
//    Per-axis loops (B2B, HPWL) read only the offset array of their axis.
//  * Cell→net and cell→pin adjacency is CSR (offset + index arrays, 32-bit),
//    built by finalize() with two counting passes — no vector-of-vectors,
//    no per-cell heap blocks.
//  * NetlistView exposes the raw arrays for kernel loops. Its pointers stay
//    valid as long as the Netlist is alive and no add_* call happens;
//    mutating positions, kinds or pin offsets does NOT invalidate a view.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "linalg/vec.h"
#include "util/geom.h"
#include "util/name_pool.h"
#include "util/span.h"

namespace complx {

using CellId = uint32_t;
using NetId = uint32_t;
using PinId = uint32_t;
using RegionId = uint32_t;

inline constexpr RegionId kNoRegion = std::numeric_limits<RegionId>::max();
/// Sentinel returned by Netlist::find_cell for unknown names. An explicit
/// constant: the historical convention "returns num_cells()" truncated the
/// size through CellId and forced every caller into a size comparison.
inline constexpr CellId kInvalidCell = std::numeric_limits<CellId>::max();

/// Movability/role of a placeable object.
enum class CellKind : uint8_t {
  Movable,       ///< standard cell
  MovableMacro,  ///< large movable block (ISPD 2006 style)
  Fixed,         ///< fixed macro / terminal / pad
};

/// Hot per-cell record: geometry and role only (40 bytes). The name lives
/// in the netlist's NamePool — hot loops touch only x/y/w/h/kind.
struct Cell {
  double width = 0.0;
  double height = 0.0;
  double x = 0.0;  ///< lower-left x
  double y = 0.0;  ///< lower-left y
  CellKind kind = CellKind::Movable;
  RegionId region = kNoRegion;  ///< optional hard region constraint
  bool flipped_x = false;  ///< mirrored about its vertical axis (orient FN)

  bool movable() const { return kind != CellKind::Fixed; }
  bool is_macro() const { return kind == CellKind::MovableMacro; }
  double area() const { return width * height; }
  double cx() const { return x + width / 2.0; }
  double cy() const { return y + height / 2.0; }
  Rect bounds() const { return {x, y, x + width, y + height}; }
};

/// One net connection point, materialized from the pin SoA arrays. Offsets
/// are from the owning cell's center.
struct Pin {
  CellId cell = 0;
  double dx = 0.0;
  double dy = 0.0;
};

/// Hot per-net record (16 bytes; the name is pooled on the netlist).
struct Net {
  double weight = 1.0;
  uint32_t first_pin = 0;  ///< index into the pin arrays
  uint32_t num_pins = 0;

  uint32_t degree() const { return num_pins; }
};

/// Standard-cell placement row (Bookshelf .scl CoreRow).
struct Row {
  double y = 0.0;       ///< bottom of the row
  double height = 0.0;  ///< row (= standard cell) height
  double xl = 0.0;      ///< leftmost site edge
  double xh = 0.0;      ///< rightmost site edge
  double site_width = 1.0;

  /// Number of placement sites. 64-bit: a huge core divided by a sub-micron
  /// site width overflowed the historical int return (UB in the float→int
  /// cast); counts beyond int64 saturate. Degenerate rows (site_width <= 0,
  /// xh <= xl, or any NaN in the ratio) report 0 sites — finalize()
  /// additionally rejects such rows so they never reach the legalizer.
  int64_t num_sites() const {
    if (!(site_width > 0.0) || !(xh > xl)) return 0;
    const double n = (xh - xl) / site_width + 0.5;
    if (!(n < 9223372036854775808.0))  // 2^63, NaN-safe ordering
      return std::numeric_limits<int64_t>::max();
    return static_cast<int64_t>(n);
  }
};

/// Hard region constraint: member cells must stay inside `box`.
struct Region {
  std::string name;
  Rect box;
};

/// Cell-center coordinates for all cells (movable AND fixed; the fixed
/// entries never change). This is the state the optimizer iterates on.
struct Placement {
  Vec x;  ///< center x per cell
  Vec y;  ///< center y per cell

  size_t size() const { return x.size(); }
};

/// Raw-array view of a finalized netlist for kernel loops (B2B assembly,
/// HPWL/RUDY, density deposit, the spreader). Trivially copyable; capture it
/// by value at the top of a hot function. Lifetime: valid until the owning
/// Netlist is destroyed or its topology is edited (add_cell/add_net);
/// position / kind / pin-offset mutation keeps existing views coherent
/// because they point into the live arrays.
struct NetlistView {
  size_t num_cells = 0;
  size_t num_nets = 0;
  size_t num_pins = 0;
  size_t num_movable = 0;

  const Cell* cells = nullptr;  ///< 40-byte hot structs
  const Net* nets = nullptr;    ///< 16-byte hot structs
  const CellId* movable = nullptr;

  // Pin SoA: per-axis loops read exactly one offset array.
  const CellId* pin_cell = nullptr;
  const double* pin_dx = nullptr;
  const double* pin_dy = nullptr;

  // CSR adjacency (offsets have num_cells + 1 entries).
  const uint32_t* cell_net_off = nullptr;
  const NetId* cell_net_ids = nullptr;
  const uint32_t* cell_pin_off = nullptr;
  const PinId* cell_pin_ids = nullptr;

  Span<NetId> nets_of_cell(CellId id) const {
    return {cell_net_ids + cell_net_off[id],
            cell_net_off[id + 1] - cell_net_off[id]};
  }
  Span<PinId> pins_of_cell(CellId id) const {
    return {cell_pin_ids + cell_pin_off[id],
            cell_pin_off[id + 1] - cell_pin_off[id]};
  }
};

/// The immutable circuit plus mutable stored positions.
///
/// Build once via add_cell/add_net (+ set_rows / set_core / add_region),
/// then call finalize(). finalize() computes the CSR cell->net/pin
/// back-references, movable indexing and aggregate statistics used all over
/// the placer.
class Netlist {
 public:
  // ---- construction -------------------------------------------------
  /// Pre-sizes every internal array (cells, nets, pin SoA, name arena) so a
  /// generator-scale build performs no reallocation churn.
  void reserve(size_t cells, size_t nets, size_t pins,
               size_t avg_name_chars = 12);
  CellId add_cell(Cell c, std::string_view name);
  /// Pins belong to the net being added; each references an existing cell.
  NetId add_net(std::string_view name, double weight,
                const std::vector<Pin>& pins);
  RegionId add_region(Region r);
  void set_core(Rect core) { core_ = core; }
  void set_rows(std::vector<Row> rows);
  void set_target_density(double gamma) { target_density_ = gamma; }
  /// Must be called once after construction, before use. Validates rows
  /// (finite geometry, positive height and site width) and builds the CSR
  /// adjacency plus movable statistics.
  void finalize();
  /// Recomputes everything that depends on cell KINDS (movable index, area
  /// aggregates) after a caller mutated them — the ECO re-placement path
  /// freezes out-of-window cells this way. Topology (CSR, rows, names) is
  /// untouched. Requires a prior finalize().
  void refinalize();

  // ---- topology ------------------------------------------------------
  size_t num_cells() const { return cells_.size(); }
  size_t num_nets() const { return nets_.size(); }
  size_t num_pins() const { return pin_cell_.size(); }
  size_t num_movable() const { return movable_.size(); }

  const Cell& cell(CellId id) const { return cells_[id]; }
  Cell& cell(CellId id) { return cells_[id]; }
  const Net& net(NetId id) const { return nets_[id]; }
  Net& net(NetId id) { return nets_[id]; }
  Pin pin(PinId id) const {
    return {pin_cell_[id], pin_dx_[id], pin_dy_[id]};
  }
  const std::vector<Cell>& cells() const { return cells_; }
  const std::vector<Net>& nets() const { return nets_; }
  const std::vector<Region>& regions() const { return regions_; }

  std::string_view cell_name(CellId id) const { return cell_names_[id]; }
  std::string_view net_name(NetId id) const { return net_names_[id]; }

  /// Ids of all movable cells (standard cells and movable macros).
  const std::vector<CellId>& movable_cells() const { return movable_; }
  /// Nets incident to a cell (CSR row; available after finalize()).
  Span<NetId> nets_of_cell(CellId id) const {
    return {cell_net_ids_.data() + cell_net_off_[id],
            cell_net_off_[id + 1] - cell_net_off_[id]};
  }
  /// Pins owned by a cell (CSR row; available after finalize()).
  Span<PinId> pins_of_cell(CellId id) const {
    return {cell_pin_ids_.data() + cell_pin_off_[id],
            cell_pin_off_[id + 1] - cell_pin_off_[id]};
  }

  /// Raw-array view for kernel loops; requires finalize().
  NetlistView view() const;

  /// Mirrors a cell about its vertical axis: toggles the orientation flag
  /// and negates the x offsets of all its pins (cell-orientation
  /// optimization; the Bookshelf orientation changes N <-> FN).
  void flip_horizontal(CellId id);
  /// Lookup by name; returns kInvalidCell when absent. Duplicated names
  /// resolve to the smallest matching id (the historical first-insertion
  /// semantics).
  CellId find_cell(std::string_view name) const;

  // ---- geometry / stats ----------------------------------------------
  const Rect& core() const { return core_; }
  const std::vector<Row>& rows() const { return rows_; }
  double row_height() const { return row_height_; }
  double target_density() const { return target_density_; }
  double movable_area() const { return movable_area_; }
  double fixed_area_in_core() const { return fixed_area_in_core_; }
  double average_movable_width() const { return avg_movable_width_; }

  /// Bytes currently held by the netlist's arrays (capacities, i.e. what
  /// the allocator charged) — the number BENCH_scale.json tracks.
  size_t memory_bytes() const;

  // ---- placement state -----------------------------------------------
  /// Snapshot current stored cell positions as a center Placement.
  Placement snapshot() const;
  /// Write a center Placement back into stored lower-left positions
  /// (fixed cells are untouched).
  void apply(const Placement& p);

 private:
  void compute_movable_stats();

  std::vector<Cell> cells_;
  std::vector<Net> nets_;
  // Pin structure-of-arrays (primary storage; Pin values are materialized).
  std::vector<CellId> pin_cell_;
  std::vector<double> pin_dx_;
  std::vector<double> pin_dy_;
  NamePool cell_names_;
  NamePool net_names_;
  std::vector<Region> regions_;
  std::vector<Row> rows_;
  std::vector<CellId> movable_;
  // CSR adjacency, built in finalize().
  std::vector<uint32_t> cell_net_off_;
  std::vector<NetId> cell_net_ids_;
  std::vector<uint32_t> cell_pin_off_;
  std::vector<PinId> cell_pin_ids_;
  // Lazy name index: cell ids sorted by (name, id); built on the first
  // find_cell() after an add_cell() (complx_eval resolves .pl names this
  // way; the Bookshelf reader keeps its own index over its .nodes buffer).
  // ~4 bytes/cell vs ~60+ for the historical unordered_map<string, CellId>.
  // Single-threaded like all construction.
  mutable std::vector<CellId> name_order_;
  mutable bool name_index_dirty_ = true;
  Rect core_;
  double row_height_ = 1.0;
  double target_density_ = 1.0;
  double movable_area_ = 0.0;
  double fixed_area_in_core_ = 0.0;
  double avg_movable_width_ = 0.0;
  bool finalized_ = false;
};

}  // namespace complx
