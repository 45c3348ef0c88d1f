#pragma once
/// \file monitor.hpp
/// Algorithm 1's monitor rule, defined once: IntermittentController and
/// the batched serve::Service both decide through these functions.
/// Membership is judged from a state's max constraint violation
/// (HPolytope::violation, or one row of linalg::batch_max_violation -- the
/// same reduction), which is NaN when a coordinate is NaN, so such a state
/// fails both tests.

#include <cstddef>
#include <vector>

#include "control/lti.hpp"
#include "core/w_history.hpp"
#include "linalg/kernels.hpp"
#include "poly/hpolytope.hpp"

namespace oic::core {

/// XI precondition slack (Algorithm 1 line 2).
inline constexpr double kXiTol = 1e-6;
/// X' membership slack (line 5): the HPolytope::contains default.
inline constexpr double kXPrimeTol = 1e-9;

/// Line 2: the state is inside XI (its max XI violation is within slack).
inline bool in_xi(double xi_violation) { return xi_violation <= kXiTol; }

/// Line 5: the state is inside X', so Omega may decide.
inline bool in_x_prime(double x_prime_violation) {
  return x_prime_violation <= kXPrimeTol;
}

/// One period's outcome for a state inside XI.
struct Verdict {
  int z = 1;            ///< 1 = run the controller, 0 = skip
  bool forced = false;  ///< x outside X': the controller runs regardless
};

/// Lines 5-9: inside X' Omega decides (`omega()` is called only then; a
/// nonzero answer reads as z = 1), outside the controller is forced.
template <typename Omega>
Verdict monitor_verdict(double x_prime_violation, Omega&& omega) {
  if (!in_x_prime(x_prime_violation)) return {1, true};
  return {omega() == 0 ? 0 : 1, false};
}

/// The burst a granted skip at x certifies: k-1 further skips for the
/// deepest k in [2, max_burst] whose rung X'_k = ladder[k-1] contains x;
/// 0 when none does.
inline std::size_t certified_burst(const std::vector<poly::HPolytope>& ladder,
                                   std::size_t max_burst, const linalg::Vector& x) {
  for (std::size_t k = max_burst; k >= 2; --k) {
    if (in_x_prime(ladder[k - 1].violation(x))) return k - 1;
  }
  return 0;
}

/// Push one period's realized disturbance E w = x_next - A x - B u - c
/// onto `history`, accumulated in `scratch` (allocation-free once sized).
inline void record_disturbance(const control::AffineLTI& sys, const linalg::Vector& x,
                               const linalg::Vector& u, const linalg::Vector& x_next,
                               linalg::Vector& scratch, WHistory& history) {
  scratch = x_next;
  double* ew = scratch.data().data();
  linalg::gemv_sub(sys.a(), x.data().data(), ew);
  linalg::gemv_sub(sys.b(), u.data().data(), ew);
  for (std::size_t i = 0; i < scratch.size(); ++i) ew[i] -= sys.c()[i];
  history.push(scratch);
}

}  // namespace oic::core
