#include "core/health.h"

#include <algorithm>

namespace complx {

const char* to_string(StopReason r) {
  switch (r) {
    case StopReason::Converged: return "converged";
    case StopReason::Plateau: return "plateau";
    case StopReason::MaxIterations: return "max-iterations";
    case StopReason::TimeLimit: return "time-limit";
    case StopReason::Cancelled: return "cancelled";
    case StopReason::Diverged: return "diverged";
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
  }
  return "unknown";
}

void HealthStats::count(HealthFault f) {
  if (f == HealthFault::None) return;
  ++faults;
  switch (f) {
    case HealthFault::None: break;
    case HealthFault::NonFiniteIterate: ++nonfinite_iterate; break;
    case HealthFault::NonFiniteAnchors: ++nonfinite_anchors; break;
    case HealthFault::NonFiniteLambda: ++nonfinite_lambda; break;
    case HealthFault::NonFiniteStats: ++nonfinite_stats; break;
    case HealthFault::ObjectiveBlowup: ++objective_blowups; break;
    case HealthFault::PenaltyBlowup: ++penalty_blowups; break;
    case HealthFault::LagrangianBlowup: ++lagrangian_blowups; break;
    case HealthFault::CgBreakdown: ++cg_breakdowns; break;
  }
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
  checks += o.checks;
  faults += o.faults;
  nonfinite_iterate += o.nonfinite_iterate;
  nonfinite_anchors += o.nonfinite_anchors;
  nonfinite_lambda += o.nonfinite_lambda;
  nonfinite_stats += o.nonfinite_stats;
  objective_blowups += o.objective_blowups;
  penalty_blowups += o.penalty_blowups;
  lagrangian_blowups += o.lagrangian_blowups;
  cg_breakdowns += o.cg_breakdowns;
  return *this;
}

bool HealthMonitor::placement_finite(const Netlist& nl, const Placement& p) {
  for (CellId id : nl.movable_cells())
    if (!std::isfinite(p.x[id]) || !std::isfinite(p.y[id])) return false;
  return true;
}

HealthFault HealthMonitor::check_stats(const IterationStats& st) const {
  if (!std::isfinite(st.lambda)) return HealthFault::NonFiniteLambda;
  if (!std::isfinite(st.phi_lower) || !std::isfinite(st.phi_upper) ||
      !std::isfinite(st.pi) || !std::isfinite(st.lagrangian) ||
      !std::isfinite(st.overflow_ratio))
    return HealthFault::NonFiniteStats;
  // Blow-up tests compare against references from accepted iterations only,
  // so the very first iteration can never be flagged as divergent.
  if (best_phi_ > 0.0 && std::isfinite(best_phi_) &&
      st.phi_lower > opts_.phi_blowup_ratio * best_phi_)
    return HealthFault::ObjectiveBlowup;
  if (max_pi_ > 0.0 && st.pi > opts_.pi_blowup_ratio * max_pi_)
    return HealthFault::PenaltyBlowup;
  if (best_lagrangian_ > 0.0 && std::isfinite(best_lagrangian_) &&
      st.lagrangian > opts_.lagrangian_blowup_ratio * best_lagrangian_)
    return HealthFault::LagrangianBlowup;
  return HealthFault::None;
}

void HealthMonitor::accept(const IterationStats& st) {
  ++stats_.checks;
  if (std::isfinite(st.phi_lower) && st.phi_lower < best_phi_)
    best_phi_ = st.phi_lower;
  if (std::isfinite(st.lagrangian) && st.lagrangian < best_lagrangian_)
    best_lagrangian_ = st.lagrangian;
  if (std::isfinite(st.pi) && st.pi > max_pi_) max_pi_ = st.pi;
}

bool Checkpoint::offer(const Netlist& nl, const Placement& it,
                       const Placement& anc, double lam, double pi_value,
                       int index, size_t bins, double ovfl, double phi_up) {
  if (!std::isfinite(lam) || !std::isfinite(pi_value) ||
      !std::isfinite(ovfl) || !std::isfinite(phi_up))
    return false;
  if (valid() &&
      ranks_better(grid_bins, overflow, phi_upper, bins, ovfl, phi_up))
    return false;
  if (!HealthMonitor::placement_finite(nl, it) ||
      !HealthMonitor::placement_finite(nl, anc))
    return false;
  iterate = it;
  anchors = anc;
  lambda = lam;
  pi = pi_value;
  trace_index = index;
  grid_bins = bins;
  overflow = ovfl;
  phi_upper = phi_up;
  return true;
}

}  // namespace complx
