#include "qp/system_builder.h"

namespace complx {

VarMap::VarMap(const Netlist& nl) {
  var_of_cell.assign(nl.num_cells(), kFixed);
  cell_of_var.reserve(nl.num_movable());
  for (CellId id : nl.movable_cells()) {
    var_of_cell[id] = cell_of_var.size();
    cell_of_var.push_back(id);
  }

  const NetlistView v = nl.view();
  auto live = [&](const Net& net) {
    for (uint32_t k = net.first_pin; k < net.first_pin + net.num_pins; ++k)
      if (var_of_cell[v.pin_cell[k]] != kFixed) return true;
    return false;
  };
  size_t num_live = 0;
  for (NetId e = 0; e < v.num_nets; ++e) num_live += live(v.nets[e]);
  if (num_live == v.num_nets) return;  // every net is live: no list
  live_nets.reserve(num_live);
  for (NetId e = 0; e < v.num_nets; ++e)
    if (live(v.nets[e])) live_nets.push_back(e);
}

SystemBuilder::SystemBuilder(const Netlist& nl, const VarMap& vars, Axis axis,
                             const Placement& linearization_point)
    : nl_(nl),
      vars_(vars),
      axis_(axis),
      point_(&linearization_point),
      stamps_(vars.num_vars()),
      rhs_(vars.num_vars(), 0.0) {
  const NetlistView v = nl.view();
  pin_cell_ = v.pin_cell;
  pin_off_ = axis == Axis::X ? v.pin_dx : v.pin_dy;
}

void SystemBuilder::reset(const Placement& linearization_point) {
  point_ = &linearization_point;
  stamps_.clear();  // keeps capacity
  rhs_.assign(vars_.num_vars(), 0.0);
}

double SystemBuilder::pin_coord(PinId k) const {
  const Vec& pos = axis_ == Axis::X ? point_->x : point_->y;
  return pos[pin_cell_[k]] + pin_off_[k];
}

double SystemBuilder::pin_offset(PinId k) const { return pin_off_[k]; }

void SystemBuilder::add_pin_springs(const std::vector<PinSpring>& springs) {
  for (const PinSpring& s : springs) {
    const CellId ca = pin_cell_[s.p], cb = pin_cell_[s.q];
    const size_t va = vars_.var_of_cell[ca], vb = vars_.var_of_cell[cb];
    const double oa = pin_offset(s.p), ob = pin_offset(s.q);

    if (va != VarMap::kFixed && vb != VarMap::kFixed) {
      if (va == vb) continue;  // net touches the same cell twice: no force
      stamps_.add_spring(va, vb, s.weight);
      rhs_[va] += s.weight * (ob - oa);
      rhs_[vb] += s.weight * (oa - ob);
    } else if (va != VarMap::kFixed) {
      stamps_.add_diag(va, s.weight);
      rhs_[va] += s.weight * (pin_coord(s.q) - oa);
    } else if (vb != VarMap::kFixed) {
      stamps_.add_diag(vb, s.weight);
      rhs_[vb] += s.weight * (pin_coord(s.p) - ob);
    }
  }
}

void SystemBuilder::add_star_springs(const std::vector<StarSpring>& springs) {
  for (const StarSpring& s : springs) {
    const CellId c = pin_cell_[s.p];
    const size_t v = vars_.var_of_cell[c];
    if (v == VarMap::kFixed) continue;
    stamps_.add_diag(v, s.weight);
    rhs_[v] += s.weight * (s.center - pin_offset(s.p));
  }
}

void SystemBuilder::add_anchor(CellId c, double target, double weight) {
  const size_t v = vars_.var_of_cell[c];
  if (v == VarMap::kFixed || weight <= 0.0) return;
  stamps_.add_diag(v, weight);
  rhs_[v] += weight * target;
}

CgResult SystemBuilder::solve(Placement& p, const CgOptions& opts,
                              SolveWorkspace& ws) const {
  // Precondition: assemble(ws) ran after the last stamping call.
  const CsrMatrix& A = ws.A;
  Vec& coords = axis_ == Axis::X ? p.x : p.y;

  // Warm start from the current iterate: quadratic placement changes little
  // between relinearizations, which saves most CG iterations.
  ws.x.resize(vars_.num_vars());
  for (size_t v = 0; v < vars_.num_vars(); ++v)
    ws.x[v] = coords[vars_.cell_of_var[v]];

  const CgResult res = solve_pcg(A, rhs_, ws.x, opts, ws.cg);
  for (size_t v = 0; v < vars_.num_vars(); ++v)
    coords[vars_.cell_of_var[v]] = ws.x[v];
  return res;
}

}  // namespace complx
