// Unit tests for the performance layer: workspace-reuse LP solving
// (PreparedProblem / solve_warm, the compact warm tableau's layout branches,
// the pinned TubeMpc warm-sequence digests and solver counters),
// SupportSolver parity, the allocation-free MLP forward pass, the WHistory
// ring, and the l1_ball dimension guard.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/random.hpp"
#include "control/tube_mpc.hpp"
#include "core/w_history.hpp"
#include "eval/harness.hpp"
#include "eval/registry.hpp"
#include "lp/prepared.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "poly/hpolytope.hpp"
#include "poly/support_solver.hpp"
#include "rl/mlp.hpp"

namespace {

using oic::Rng;
using oic::linalg::Matrix;
using oic::linalg::Vector;
using oic::lp::PreparedProblem;
using oic::lp::Problem;
using oic::lp::Relation;
using oic::lp::SolverWorkspace;
using oic::poly::HPolytope;

/// Random bounded-feasible LP: box-bounded variables, mixed-relation rows
/// through the box's interior, random objective.
Problem random_lp(Rng& rng, std::size_t nv, std::size_t rows) {
  Problem p(nv);
  for (std::size_t j = 0; j < nv; ++j) {
    p.set_bounds(j, -10.0, 10.0);
    p.set_objective_coeff(j, rng.uniform(-1.0, 1.0));
  }
  for (std::size_t i = 0; i < rows; ++i) {
    Vector a(nv);
    for (std::size_t j = 0; j < nv; ++j) a[j] = rng.uniform(-1.0, 1.0);
    // rhs large enough that the box keeps a feasible chunk.
    p.add_constraint(a, Relation::kLessEq, rng.uniform(1.0, 5.0));
  }
  return p;
}

TEST(PreparedProblem, MatchesOneShotSolveExactly) {
  Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const Problem p = random_lp(rng, 2 + trial % 4, 3 + trial % 5);
    const oic::lp::Result fresh = oic::lp::solve(p);

    PreparedProblem prep(p);
    SolverWorkspace ws;
    const oic::lp::Result reused1 = prep.solve(ws);
    const oic::lp::Result reused2 = prep.solve(ws);  // workspace reuse

    ASSERT_EQ(fresh.status, reused1.status);
    ASSERT_EQ(fresh.status, reused2.status);
    if (fresh.status != oic::lp::Status::kOptimal) continue;
    EXPECT_EQ(fresh.objective, reused1.objective);
    EXPECT_EQ(fresh.objective, reused2.objective);
    for (std::size_t j = 0; j < p.num_vars(); ++j) {
      EXPECT_EQ(fresh.x[j], reused1.x[j]);
      EXPECT_EQ(fresh.x[j], reused2.x[j]);
    }
  }
}

TEST(PreparedProblem, SetRhsOnEqualityRowsMatchesRebuild) {
  // The TubeMpc pattern: equality rows whose rhs is patched per solve.
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    Problem base(3);
    for (std::size_t j = 0; j < 3; ++j) base.set_objective_coeff(j, rng.uniform(-1, 1));
    // x0 = v (patched), plus static inequality rows.
    base.add_constraint(Vector{1, 0, 0}, Relation::kEqual, 0.0);
    for (int i = 0; i < 4; ++i) {
      Vector a(3);
      for (std::size_t j = 0; j < 3; ++j) a[j] = rng.uniform(-1, 1);
      base.add_constraint(a, Relation::kLessEq, rng.uniform(1.0, 3.0));
    }
    for (std::size_t j = 0; j < 3; ++j) base.set_bounds(j, -8.0, 8.0);

    PreparedProblem prep(base);
    SolverWorkspace ws;
    for (int k = 0; k < 6; ++k) {
      const double v = rng.uniform(-2.0, 2.0);  // sign changes exercise the flip
      prep.set_rhs(0, v);
      const oic::lp::Result patched = prep.solve(ws);

      Problem rebuilt(3);
      for (std::size_t j = 0; j < 3; ++j) {
        rebuilt.set_objective_coeff(j, base.objective()[j]);
        rebuilt.set_bounds(j, -8.0, 8.0);
      }
      rebuilt.add_constraint(base.constraint(0).coeffs, Relation::kEqual, v);
      for (std::size_t i = 1; i < base.num_constraints(); ++i) {
        rebuilt.add_constraint(base.constraint(i).coeffs, Relation::kLessEq,
                               base.constraint(i).rhs);
      }
      const oic::lp::Result fresh = oic::lp::solve(rebuilt);
      ASSERT_EQ(fresh.status, patched.status) << "trial " << trial << " k " << k;
      if (fresh.status != oic::lp::Status::kOptimal) continue;
      EXPECT_EQ(fresh.objective, patched.objective);
      for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(fresh.x[j], patched.x[j]);
    }
  }
}

TEST(PreparedProblem, SetRhsSignFlipOnNonDynamicInequalityThrows) {
  Problem p(2);
  p.add_constraint(Vector{1, 1}, Relation::kLessEq, 1.0);
  p.set_bounds(0, 0.0, 5.0);
  p.set_bounds(1, 0.0, 5.0);
  PreparedProblem prep(p);
  EXPECT_THROW(prep.set_rhs(0, -1.0), oic::PreconditionError);
  // Declared dynamic, the same patch is legal.
  PreparedProblem dyn(p, {0});
  dyn.set_rhs(0, -1.0);  // must not throw
  SolverWorkspace ws;
  EXPECT_EQ(dyn.solve(ws).status, oic::lp::Status::kInfeasible);
}

TEST(PreparedProblem, WarmSolveMatchesColdOptimum) {
  // A drifting-rhs sequence (the MPC pattern): warm continuation must track
  // the cold optimum at every step.
  Rng rng(23);
  Problem p(3);
  for (std::size_t j = 0; j < 3; ++j) {
    p.set_objective_coeff(j, rng.uniform(0.2, 1.0));  // bounded below on the box
    p.set_bounds(j, -10.0, 10.0);
  }
  p.add_constraint(Vector{1, 0, 0}, Relation::kEqual, 0.0);
  p.add_constraint(Vector{1, 1, 0}, Relation::kLessEq, 4.0);
  p.add_constraint(Vector{0, 1, 1}, Relation::kGreaterEq, -4.0);

  PreparedProblem prep(p);
  SolverWorkspace ws_warm, ws_cold;
  PreparedProblem::WarmState warm;
  double x0 = -1.5;
  for (int k = 0; k < 40; ++k) {
    x0 += rng.uniform(-0.3, 0.35);  // drifts across zero
    prep.set_rhs(0, x0);
    const oic::lp::Result rw = prep.solve_warm(ws_warm, warm);
    const oic::lp::Result rc = prep.solve(ws_cold);
    ASSERT_EQ(rc.status, rw.status) << "step " << k;
    if (rc.status != oic::lp::Status::kOptimal) continue;
    EXPECT_NEAR(rc.objective, rw.objective, 1e-8) << "step " << k;
  }
}

TEST(PreparedProblem, WarmSolveTracksDynamicInequalityRhs) {
  // Regression: for a dynamic <=-row the warm path's B^-1 unit column is
  // the slack, not the (all-zero) eagerly reserved artificial; a wrong
  // column silently drops the rhs update.
  Problem p(2);
  p.set_objective_coeff(0, -1.0);  // maximize x0
  p.set_bounds(0, 0.0, 10.0);
  p.set_bounds(1, 0.0, 10.0);
  p.add_constraint(Vector{1, 1}, Relation::kLessEq, 4.0);
  PreparedProblem prep(p, {0});
  SolverWorkspace ws;
  PreparedProblem::WarmState warm;
  EXPECT_NEAR(prep.solve_warm(ws, warm).objective, -4.0, 1e-9);
  prep.set_rhs(0, 2.5);  // same sign class, warm continuation
  EXPECT_NEAR(prep.solve_warm(ws, warm).objective, -2.5, 1e-9);
  // Crossing zero flips the row's orientation: x0 + x1 <= -1 is infeasible
  // over [0,10]^2, and the warm continuation must agree.
  prep.set_rhs(0, -1.0);
  EXPECT_EQ(prep.solve_warm(ws, warm).status, oic::lp::Status::kInfeasible);
}

TEST(PreparedProblem, WarmStateFromAnotherProblemFallsBackCold) {
  // Two different problems sharing one (workspace, warm) pair: the second
  // solve must not continue from the first problem's tableau.
  Problem p1(1), p2(1);
  p1.set_objective_coeff(0, 1.0);
  p1.set_bounds(0, 2.0, 9.0);  // min x0 -> 2
  p2.set_objective_coeff(0, 1.0);
  p2.set_bounds(0, 5.0, 9.0);  // min x0 -> 5
  PreparedProblem a(p1), b(p2);
  SolverWorkspace ws;
  PreparedProblem::WarmState warm;
  EXPECT_NEAR(a.solve_warm(ws, warm).objective, 2.0, 1e-9);
  EXPECT_NEAR(b.solve_warm(ws, warm).objective, 5.0, 1e-9);
  EXPECT_NEAR(a.solve_warm(ws, warm).objective, 2.0, 1e-9);
}

TEST(PreparedProblem, WarmStateWithForeignWorkspaceFallsBackCold) {
  Problem p(2);
  p.set_objective_coeff(0, 1.0);
  p.set_bounds(0, 0.0, 5.0);
  p.set_bounds(1, 0.0, 5.0);
  p.add_constraint(Vector{1, 1}, Relation::kGreaterEq, 1.0);
  PreparedProblem prep(p);
  SolverWorkspace ws1, ws2;
  PreparedProblem::WarmState warm;
  const auto r1 = prep.solve_warm(ws1, warm);
  // Same warm state, different (fresh) workspace: must cold-solve, not UB.
  const auto r2 = prep.solve_warm(ws2, warm);
  ASSERT_EQ(r1.status, oic::lp::Status::kOptimal);
  ASSERT_EQ(r2.status, oic::lp::Status::kOptimal);
  EXPECT_EQ(r1.objective, r2.objective);
}

/// A long seeded TubeMpc::control sequence on one registry plant, folded
/// into an FNV-1a digest of every returned input and optimal cost (bit
/// patterns).  Between solves the plant runs open loop for 1-8 steps on the
/// solved input plan under the scenario's disturbance, so the warm path
/// sees both consecutive and post-skip solves.  reset_solver() runs every
/// 100 calls except across calls [400, 800), which is long enough to cross
/// the scheduled refactorization; calls 150 and 1050 query a state far
/// outside X, which must be rejected with NumericalError.
std::uint64_t warm_sequence_digest(const char* plant_id, const char* scenario_id) {
  constexpr std::size_t kCalls = 1200;
  const oic::eval::ScenarioRegistry& registry = oic::eval::ScenarioRegistry::builtin();
  const auto plant = registry.make_plant(plant_id);
  const auto scenario = registry.make_scenario(plant_id, scenario_id);
  Rng rng(0x5eedf00dull);
  const oic::eval::CaseData data = oic::eval::make_case(*plant, scenario, rng, 4096);
  const auto& sys = plant->system();
  oic::control::TubeMpc& mpc = plant->rmpc();
  mpc.reset_solver();

  oic::Fnv1a h;
  Vector x = data.x0;
  Vector w(sys.nw());
  std::size_t t = 0;
  for (std::size_t call = 0; call < kCalls; ++call) {
    if (call % 100 == 0 && (call < 400 || call >= 800)) mpc.reset_solver();
    if (call == 150 || call == 1050) {
      Vector far(sys.nx());
      for (std::size_t i = 0; i < far.size(); ++i) {
        far[i] = 1e4 * (1.0 + static_cast<double>(i));
      }
      EXPECT_THROW(mpc.control(far), oic::NumericalError) << plant_id << " " << call;
      h.u64(0xbadull);
      continue;
    }
    const Vector u = mpc.control(x);
    for (std::size_t i = 0; i < u.size(); ++i) h.f64(u[i]);
    h.f64(mpc.last_solve().cost);
    const auto& plan = mpc.last_solve().planned_u;
    const int gap = rng.uniform_int(1, 8);
    for (int k = 0; k < gap; ++k, ++t) {
      plant->signal_to_w(data.signal[t % data.signal.size()], w);
      x = sys.step(x, plan[std::min<std::size_t>(k, plan.size() - 1)], w);
    }
  }
  // The sequence must have reached every cold path it is meant to pin:
  // 8 resets, one scheduled refactorization (call 556) and a restart after
  // each rejected far state, whose rejection went through the dual ratio
  // test's two-phase confirmation.
  const oic::lp::WarmCounters& c = mpc.solver_counters();
  EXPECT_EQ(c.seed_restarts, 11u) << plant_id;
  EXPECT_EQ(c.infeasible_fallbacks, 2u) << plant_id;
  EXPECT_EQ(c.two_phase_colds, 2u) << plant_id;
  EXPECT_EQ(c.stall_fallbacks, 0u) << plant_id;
  EXPECT_GT(c.dual_pivots, kCalls) << plant_id;
  return h.value();
}

TEST(TubeMpcWarm, LongSequenceDigestIsPinned) {
  // Pins the absolute warm-path decision stream through seed restarts,
  // scheduled refactorizations, post-skip solves and infeasible-state
  // rejections -- restart and refactor sequences far longer than the
  // golden episodes reach.  Any change to the warm simplex that moves a
  // single bit fails here, at every kernel ISA.
  struct Case {
    const char* plant;
    const char* scenario;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"acc", "Fig.4", 0x091c8fdccfce44b3ull},
      {"lane-keep", "sine", 0x0b9d12f91acd0ee7ull},
      {"quad-alt", "sine", 0xbf8049184e825305ull},
      {"toy2d", "sine", 0x583536f52de9580full},
  };
  for (const Case& c : cases) {
    const std::uint64_t d = warm_sequence_digest(c.plant, c.scenario);
    EXPECT_EQ(d, c.digest) << c.plant << " digest " << std::hex << d;
  }
}

TEST(TubeMpcWarm, SolverCountersTrackRestartsAndPivots) {
  // A short drifting sequence on toy2d: the first call re-anchors on the
  // canonical seed, calls 2..256 continue warm, and call 257 is the
  // scheduled refactorization -- a second seed restart.
  const oic::eval::ScenarioRegistry& registry = oic::eval::ScenarioRegistry::builtin();
  const auto plant = registry.make_plant("toy2d");
  const auto scenario = registry.make_scenario("toy2d", "sine");
  Rng rng(41);
  const oic::eval::CaseData data = oic::eval::make_case(*plant, scenario, rng, 300);
  oic::control::TubeMpc& mpc = plant->rmpc();
  const oic::lp::WarmCounters& c = mpc.solver_counters();
  Vector x = data.x0;
  Vector w(plant->system().nw());
  for (std::size_t call = 1; call <= 257; ++call) {
    const Vector u = mpc.control(x);
    if (call == 1) {
      EXPECT_EQ(c.seed_restarts, 1u);
      EXPECT_EQ(c.two_phase_colds, 0u);
    }
    if (call == 256) {
      EXPECT_EQ(c.seed_restarts, 1u);
    }
    plant->signal_to_w(data.signal[call], w);
    x = plant->system().step(x, u, w);
  }
  EXPECT_EQ(c.seed_restarts, 2u);
  EXPECT_EQ(c.two_phase_colds, 0u);
  EXPECT_EQ(c.stall_fallbacks, 0u);
  EXPECT_EQ(c.infeasible_fallbacks, 0u);
  EXPECT_GT(c.dual_pivots, 0u);

  // reset_solver() drops the basis, not the history; a copy starts fresh.
  const std::uint64_t pivots = c.dual_pivots;
  mpc.reset_solver();
  mpc.control(x);
  EXPECT_EQ(c.seed_restarts, 3u);
  EXPECT_GE(c.dual_pivots, pivots);
  const oic::control::TubeMpc copy(mpc);
  EXPECT_EQ(copy.solver_counters().seed_restarts, 0u);
  EXPECT_EQ(copy.solver_counters().dual_pivots, 0u);
}

/// True when some basic column of the warm tableau keeps a slot.
bool has_stored_basic(const SolverWorkspace& ws) {
  for (std::size_t j : ws.basis) {
    if (!(ws.slot[j] & SolverWorkspace::kImplicit)) return true;
  }
  return false;
}

/// Warm and fresh solves of the same patched problem agree.
void expect_matches_fresh(const PreparedProblem& prep, const oic::lp::Result& warm) {
  SolverWorkspace ws;
  const oic::lp::Result fresh = prep.solve(ws);
  ASSERT_EQ(fresh.status, warm.status);
  if (fresh.status != oic::lp::Status::kOptimal) return;
  EXPECT_NEAR(fresh.objective, warm.objective, 1e-9);
  for (std::size_t j = 0; j < fresh.x.size(); ++j) {
    EXPECT_NEAR(fresh.x[j], warm.x[j], 1e-9);
  }
}

/// Two equality rows at zero level that phase 1 leaves with basic
/// artificials:  49 x0 - x1 - x2 = tA,  -49 x0 - x1 + x2 = tB  on [0, 10]^3.
/// The drive-out pivot on x0 scales its row by 1/49, so x0 becomes basic
/// with 49 * (1/49) = 1 - 2^-53 != 1.0: not an exact unit column.
Problem drive_out_lp() {
  Problem p(3);
  for (std::size_t j = 0; j < 3; ++j) {
    p.set_bounds(j, 0.0, 10.0);
    p.set_objective_coeff(j, 1.0);
  }
  p.add_constraint(Vector{49.0, -1.0, -1.0}, Relation::kEqual, 0.0);
  p.add_constraint(Vector{-49.0, -1.0, 1.0}, Relation::kEqual, 0.0);
  return p;
}

TEST(WarmLayout, NonUnitBasicColumnStaysStored) {
  for (const bool seeded : {false, true}) {
    SCOPED_TRACE(seeded ? "seed restart" : "two-phase cold");
    PreparedProblem prep(drive_out_lp());
    if (seeded) prep.set_hot_rows({0, 1});
    SolverWorkspace ws;
    PreparedProblem::WarmState warm;
    const oic::lp::Result r = prep.solve_warm(ws, warm);
    EXPECT_TRUE(has_stored_basic(ws));
    EXPECT_LT(ws.stored.size(), prep.num_cols());  // the rest are implicit
    expect_matches_fresh(prep, r);
  }
}

TEST(WarmLayout, StoredLeavingColumnReleasesTheEnteringSlot) {
  // tA = -2 drives x0 = (tA - tB) / 98 negative: the dual pivot leaves the
  // row of the stored (non-unit) x0 and enters x2.  With no implicit
  // column to take over the entering column's slot, the stored set
  // shrinks by one.
  PreparedProblem prep(drive_out_lp());
  SolverWorkspace ws;
  PreparedProblem::WarmState warm;
  prep.solve_warm(ws, warm);
  ASSERT_TRUE(has_stored_basic(ws));
  const std::size_t stored_before = ws.stored.size();
  const std::uint64_t pivots_before = warm.counters.dual_pivots;
  prep.set_rhs(0, -2.0);
  const oic::lp::Result r = prep.solve_warm(ws, warm);
  EXPECT_GT(warm.counters.dual_pivots, pivots_before);
  EXPECT_EQ(warm.counters.two_phase_colds, 1u);  // only the first solve
  EXPECT_LT(ws.stored.size(), stored_before);
  EXPECT_TRUE(std::is_sorted(ws.stored.begin(), ws.stored.end()));
  expect_matches_fresh(prep, r);
  EXPECT_NEAR(r.x[2], 1.0, 1e-12);
}

TEST(WarmLayout, HotRowWithImplicitUnitColumn) {
  // min -x0 + x1/2  s.t.  x0 <= 4,  x0 + x1 <= t (hot, dynamic)  on
  // [0, 10]^2 (unique optimum x0 = min(4, t), x1 = 0).
  // Standard-form columns: x0, x1 (0, 1), row 0's slack (2), row 1's
  // slack and reserved artificial (3, 4), bound-row slacks (5, 6).  While
  // t > 4 row 1 is slack and column 3 -- the unit column its rhs update
  // reads -- is basic and implicit; t < 4 makes that slack leave.
  Problem p(2);
  p.set_objective_coeff(0, -1.0);
  p.set_objective_coeff(1, 0.5);
  p.set_bounds(0, 0.0, 10.0);
  p.set_bounds(1, 0.0, 10.0);
  p.add_constraint(Vector{1.0, 0.0}, Relation::kLessEq, 4.0);
  p.add_constraint(Vector{1.0, 1.0}, Relation::kLessEq, 8.0);
  for (const bool seeded : {false, true}) {
    SCOPED_TRACE(seeded ? "seed restart" : "two-phase cold");
    PreparedProblem prep(p, {1});
    if (seeded) prep.set_hot_rows({1});
    SolverWorkspace ws;
    PreparedProblem::WarmState warm;
    expect_matches_fresh(prep, prep.solve_warm(ws, warm));
    double prev = 8.0;
    for (const double t : {7.0, 5.5, 3.0, 6.0, 2.0}) {
      SCOPED_TRACE(t);
      const bool implicit = (ws.slot[3] & SolverWorkspace::kImplicit) != 0;
      EXPECT_EQ(implicit, prev > 4.0);
      prev = t;
      prep.set_rhs(1, t);
      const oic::lp::Result r = prep.solve_warm(ws, warm);
      expect_matches_fresh(prep, r);
      EXPECT_NEAR(r.objective, -std::min(4.0, t), 1e-12);
    }
  }
}

TEST(SupportSolver, MatchesFreshProblemAnswers) {
  Rng rng(42);
  for (int trial = 0; trial < 15; ++trial) {
    // Random bounded polytope: a box intersected with random halfspaces.
    Vector r(3);
    for (std::size_t i = 0; i < 3; ++i) r[i] = rng.uniform(0.5, 3.0);
    HPolytope p = HPolytope::sym_box(r);
    for (int i = 0; i < 4; ++i) {
      Vector a(3);
      for (std::size_t j = 0; j < 3; ++j) a[j] = rng.uniform(-1, 1);
      p = p.intersect(HPolytope(Matrix::from_rows({a}), Vector{rng.uniform(0.5, 2.0)}));
    }
    oic::poly::SupportSolver solver(p);
    for (int q = 0; q < 10; ++q) {
      Vector d(3);
      for (std::size_t j = 0; j < 3; ++j) d[j] = rng.uniform(-1, 1);
      const auto fresh = p.support(d);
      const auto reused = solver.support(d);
      ASSERT_EQ(fresh.bounded, reused.bounded);
      ASSERT_EQ(fresh.feasible, reused.feasible);
      if (!fresh.bounded || !fresh.feasible) continue;
      EXPECT_EQ(fresh.value, reused.value);
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(fresh.maximizer[j], reused.maximizer[j]);
      }
    }
  }
}

TEST(Mlp, ForwardIntoMatchesReferenceForward) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    oic::rl::Mlp net({4, 32, 16, 2}, rng);
    oic::rl::MlpWorkspace ws;
    for (int s = 0; s < 20; ++s) {
      Vector in(4);
      for (std::size_t j = 0; j < 4; ++j) in[j] = rng.normal();
      const Vector ref = net.forward(in);
      const Vector& fast = net.forward_into(in, ws);
      ASSERT_EQ(ref.size(), fast.size());
      for (std::size_t j = 0; j < ref.size(); ++j) {
        EXPECT_NEAR(ref[j], fast[j], 1e-12);
      }
    }
  }
}

TEST(WHistory, RingSemanticsOldestFirst) {
  oic::core::WHistory h(3);
  EXPECT_EQ(h.capacity(), 3u);
  EXPECT_TRUE(h.empty());
  h.push(Vector{1.0});
  h.push(Vector{2.0});
  ASSERT_EQ(h.size(), 2u);
  EXPECT_DOUBLE_EQ(h[0][0], 1.0);
  EXPECT_DOUBLE_EQ(h.latest()[0], 2.0);
  h.push(Vector{3.0});
  h.push(Vector{4.0});  // evicts 1.0
  ASSERT_EQ(h.size(), 3u);
  EXPECT_DOUBLE_EQ(h[0][0], 2.0);
  EXPECT_DOUBLE_EQ(h[1][0], 3.0);
  EXPECT_DOUBLE_EQ(h[2][0], 4.0);
  h.push(Vector{5.0});
  EXPECT_DOUBLE_EQ(h[0][0], 3.0);
  EXPECT_DOUBLE_EQ(h.latest()[0], 5.0);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.capacity(), 3u);
  h.push(Vector{9.0});
  EXPECT_DOUBLE_EQ(h[0][0], 9.0);
}

TEST(WHistory, ZeroCapacityRetainsNothing) {
  oic::core::WHistory h(0);
  h.push(Vector{1.0});
  EXPECT_TRUE(h.empty());
}

TEST(WHistory, ConvertsFromVectorForAdHocCallers) {
  std::vector<Vector> xs = {Vector{1.0}, Vector{2.0}};
  oic::core::WHistory h = xs;
  ASSERT_EQ(h.size(), 2u);
  EXPECT_DOUBLE_EQ(h[0][0], 1.0);
  EXPECT_DOUBLE_EQ(h[1][0], 2.0);
}

TEST(HPolytope, L1BallGuardsAgainstHugeDimensions) {
  // 2^dim facet rows: beyond the cap the representation is a memory bomb.
  EXPECT_THROW(HPolytope::l1_ball(HPolytope::kL1BallMaxDim + 1, 1.0),
               oic::PreconditionError);
  EXPECT_THROW(HPolytope::l1_ball(64, 1.0), oic::PreconditionError);
  // At and below the cap it still works.
  const HPolytope small = HPolytope::l1_ball(3, 2.0);
  EXPECT_EQ(small.num_constraints(), 8u);
  EXPECT_TRUE(small.contains(Vector{2.0, 0.0, 0.0}));
  EXPECT_FALSE(small.contains(Vector{1.5, 1.0, 0.0}));
}

}  // namespace
