// Lagrange-multiplier scheduling (paper Section 4).
//
// ComPLx (Formula 12):
//   λ₁     = Φ / (100 · Π)                      — penalty starts 100× below Φ
//   λ_{k+1} = min{ 2·λ_k,  λ_k + (Π_{k+1}/Π_k)·h }  — capped geometric growth
//
// SimPL's fixed ramp (pseudo-net weight 0.01·(1+k)) and naive doubling are
// provided for the special-case demonstration and the schedule ablation.
#pragma once

#include <algorithm>
#include <cmath>

namespace complx {

/// Finite ceiling for λ. Healthy runs converge at O(1) multipliers (Section
/// S3), so it is unreachable except under runaway growth — it exists to keep
/// long ablation runs finite.
inline constexpr double kMaxLambda = 1e12;

enum class ScheduleKind {
  ComplxFormula12,  ///< the paper's schedule
  SimplLinearRamp,  ///< SimPL: λ_k = 0.01 · (1 + k)
  NaiveDoubling,    ///< λ_{k+1} = 2 λ_k (ablation strawman)
};

class LambdaSchedule {
 public:
  LambdaSchedule(ScheduleKind kind, double h_factor = 1.0)
      : kind_(kind), h_factor_(h_factor) {}

  /// Sets λ₁ from the first interconnect cost Φ and penalty Π (paper:
  /// λ₁ = Φ/(100·Π) so the Lagrangian starts cost-dominated).
  ///
  /// `h_base` is the absolute scaling constant h of Formula 12 (for the
  /// SimPL ramp, the per-iteration step). The ComPLx driver derives it from
  /// a force-balance estimate of the final multiplier so convergence takes
  /// a size-independent number of iterations (Section S3's flat iteration
  /// counts). When h_base <= 0, h falls back to h_factor · λ₁.
  /// Non-finite inputs (a corrupted first trace point) fall back to the
  /// zero-penalty default instead of seeding λ with NaN.
  void init(double phi, double pi, double h_base = 0.0) {
    const bool sane = std::isfinite(phi) && std::isfinite(pi) && pi > 0.0;
    switch (kind_) {
      case ScheduleKind::ComplxFormula12:
        lambda_ = sane ? phi / (100.0 * pi) : 1e-6;
        h_ = h_base > 0.0 ? h_factor_ * h_base : h_factor_ * lambda_;
        break;
      case ScheduleKind::SimplLinearRamp:
        step_ = h_base > 0.0 ? h_factor_ * h_base : 0.01 * h_factor_;
        lambda_ = step_;
        break;
      case ScheduleKind::NaiveDoubling:
        lambda_ = sane ? phi / (100.0 * pi) : 1e-6;
        break;
    }
    clamp();
    iteration_ = 1;
  }

  /// Advances λ given the previous and current penalty values (Formula 12).
  /// Non-finite penalties are treated as ratio 1 (the neutral step) and λ is
  /// clamped to the finite ceiling — NaiveDoubling would otherwise reach Inf
  /// after ~1000 iterations, and Formula 12's ratio is undefined when the
  /// projection returned a corrupted Π.
  void update(double pi_prev, double pi_cur) {
    ++iteration_;
    switch (kind_) {
      case ScheduleKind::ComplxFormula12: {
        const double ratio =
            (pi_prev > 0.0 && std::isfinite(pi_prev) && std::isfinite(pi_cur) &&
             pi_cur >= 0.0)
                ? pi_cur / pi_prev
                : 1.0;
        lambda_ = std::min(2.0 * lambda_, lambda_ + ratio * h_);
        break;
      }
      case ScheduleKind::SimplLinearRamp:
        lambda_ = step_ * (1.0 + static_cast<double>(iteration_));
        break;
      case ScheduleKind::NaiveDoubling:
        lambda_ *= 2.0;
        break;
    }
    clamp();
  }

  double lambda() const { return lambda_; }
  int iteration() const { return iteration_; }
  ScheduleKind kind() const { return kind_; }

  /// Overrides λ directly (recovery rollback-and-backoff); clamped to
  /// [0, kMaxLambda] and sanitized against non-finite values.
  void set_lambda(double l) {
    lambda_ = std::isfinite(l) ? std::max(0.0, l) : kMaxLambda;
    clamp();
  }

 private:
  void clamp() {
    if (!std::isfinite(lambda_) || lambda_ > kMaxLambda) lambda_ = kMaxLambda;
  }

  ScheduleKind kind_;
  double h_factor_;
  double lambda_ = 0.0;
  double h_ = 0.0;
  double step_ = 0.01;  ///< SimPL ramp per-iteration increment
  int iteration_ = 0;
};

}  // namespace complx
