#include "core/health.h"

#include <algorithm>

#include "projection/lal.h"
#include "qp/solver.h"

namespace complx {

const char* to_string(StopReason r) {
  switch (r) {
    case StopReason::Converged: return "converged";
    case StopReason::Plateau: return "plateau";
    case StopReason::MaxIterations: return "max-iterations";
    case StopReason::TimeLimit: return "time-limit";
    case StopReason::Cancelled: return "cancelled";
    case StopReason::Diverged: return "diverged";
    case StopReason::RollbackCycle: return "rollback-cycle";
  }
  return "unknown";
}

const char* to_string(HealthFault f) {
  switch (f) {
    case HealthFault::None: return "none";
    case HealthFault::NonFiniteIterate: return "non-finite iterate";
    case HealthFault::NonFiniteAnchors: return "non-finite anchors";
    case HealthFault::NonFiniteLambda: return "non-finite lambda";
    case HealthFault::NonFiniteStats: return "non-finite statistics";
    case HealthFault::ObjectiveBlowup: return "objective blow-up";
    case HealthFault::PenaltyBlowup: return "penalty blow-up";
    case HealthFault::LagrangianBlowup: return "lagrangian blow-up";
    case HealthFault::CgBreakdown: return "cg breakdown";
    case HealthFault::kCount: break;
  }
  return "unknown";
}

void HealthStats::count(HealthFault f) {
  if (f == HealthFault::None) return;
  ++faults;
  ++by_kind[static_cast<size_t>(f)];
}

void SolverStats::add(const QpIterationResult& r) {
  add(r.cg_x);
  add(r.cg_y);
  assembly_s += r.assembly_s;
  solve_s += r.solve_s;
}

void SolverStats::add(const ProjectionTimers& t) {
  ++projections;
  proj_grid_build_s += t.grid_build_s;
  proj_region_find_s += t.region_find_s;
  proj_spread_s += t.spread_s;
  proj_readback_s += t.readback_s;
}

SolverStats& SolverStats::operator+=(const SolverStats& o) {
  solves += o.solves;
  nonconverged += o.nonconverged;
  breakdowns += o.breakdowns;
  total_cg_iterations += o.total_cg_iterations;
  worst_residual = std::max(worst_residual, o.worst_residual);
  assembly_s += o.assembly_s;
  solve_s += o.solve_s;
  projections += o.projections;
  proj_grid_build_s += o.proj_grid_build_s;
  proj_region_find_s += o.proj_region_find_s;
  proj_spread_s += o.proj_spread_s;
  proj_readback_s += o.proj_readback_s;
  return *this;
}

HealthStats& HealthStats::operator+=(const HealthStats& o) {
  faults += o.faults;
  for (size_t k = 0; k < by_kind.size(); ++k) by_kind[k] += o.by_kind[k];
  return *this;
}

bool HealthMonitor::placement_finite(const Netlist& nl, const Placement& p) {
  for (CellId id : nl.movable_cells())
    if (!std::isfinite(p.x[id]) || !std::isfinite(p.y[id])) return false;
  return true;
}

HealthMonitor::HealthMonitor(const Netlist& nl)
    : pi_bound_(static_cast<double>(nl.num_movable()) *
                (nl.core().width() + nl.core().height())) {}

HealthFault HealthMonitor::check_stats(const IterationStats& st) const {
  if (!std::isfinite(st.lambda)) return HealthFault::NonFiniteLambda;
  if (!std::isfinite(st.phi_lower) || !std::isfinite(st.phi_upper) ||
      !std::isfinite(st.pi) || !std::isfinite(st.lagrangian) ||
      !std::isfinite(st.overflow_ratio))
    return HealthFault::NonFiniteStats;
  // Blow-up tests start with the first accepted iteration, so the initial
  // state can never be flagged as divergent.
  if (!accepted_) return HealthFault::None;
  const bool phi_ref = last_phi_upper_ > 0.0;
  if (phi_ref && st.phi_lower > kPhiBlowupRatio * last_phi_upper_)
    return HealthFault::ObjectiveBlowup;
  if (st.pi > kPiBlowupRatio * pi_bound_) return HealthFault::PenaltyBlowup;
  if (phi_ref && st.lagrangian > kLagrangianBlowupRatio * last_phi_upper_)
    return HealthFault::LagrangianBlowup;
  return HealthFault::None;
}

void HealthMonitor::accept(const IterationStats& st) {
  accepted_ = true;
  last_phi_upper_ = st.phi_upper;
}

bool Checkpoint::offer(const Netlist& nl, const Placement& it,
                       const Placement& anc, const IterationStats& st) {
  if (!std::isfinite(st.lambda) || !std::isfinite(st.pi) ||
      !std::isfinite(st.overflow_ratio) || !std::isfinite(st.phi_upper))
    return false;
  if (valid() && ranks_better(row, st)) return false;
  if (!HealthMonitor::placement_finite(nl, it) ||
      !HealthMonitor::placement_finite(nl, anc))
    return false;
  iterate = it;
  anchors = anc;
  row = st;
  return true;
}

}  // namespace complx
