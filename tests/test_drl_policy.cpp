// Tests for the DRL-policy helpers: DQN state assembly, normalization, and
// the paper's reward function (Sec. III-B.2).

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/random.hpp"
#include "control/lti.hpp"
#include "core/drl_policy.hpp"
#include "rl/dqn.hpp"

namespace {

using oic::control::AffineLTI;
using oic::core::apply_state_scale;
using oic::core::build_drl_state;
using oic::core::drl_state_dim;
using oic::core::drl_state_scale;
using oic::core::SafeSets;
using oic::core::skipping_reward;
using oic::linalg::Matrix;
using oic::linalg::Vector;
using oic::poly::HPolytope;

TEST(BuildDrlState, PadsYoungHistoryWithZeros) {
  const Vector x{1.0, 2.0};
  const Vector s = build_drl_state(x, {}, 2, 2);
  ASSERT_EQ(s.size(), drl_state_dim(2, 2, 2));
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  EXPECT_DOUBLE_EQ(s[1], 2.0);
  for (std::size_t i = 2; i < s.size(); ++i) EXPECT_DOUBLE_EQ(s[i], 0.0);
}

TEST(BuildDrlState, KeepsMostRecentObservationsOldestFirst) {
  const Vector x{0.0};
  const std::vector<Vector> hist = {Vector{1.0}, Vector{2.0}, Vector{3.0}};
  const Vector s = build_drl_state(x, hist, 2, 1);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[1], 2.0);  // older of the two retained
  EXPECT_DOUBLE_EQ(s[2], 3.0);  // most recent last
}

TEST(BuildDrlState, PartialHistoryFrontPadded) {
  const Vector x{0.0};
  const std::vector<Vector> hist = {Vector{5.0}};
  const Vector s = build_drl_state(x, hist, 3, 1);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s[1], 0.0);
  EXPECT_DOUBLE_EQ(s[2], 0.0);
  EXPECT_DOUBLE_EQ(s[3], 5.0);
}

TEST(BuildDrlState, DimensionMismatchThrows) {
  EXPECT_THROW(build_drl_state(Vector{0.0}, {Vector{1.0, 2.0}}, 1, 1),
               oic::PreconditionError);
}

TEST(DrlStateScale, ReciprocalHalfWidths) {
  // X = [-30,30]x[-15,15]; disturbance enters only coordinate 0 with E=[1;0].
  Matrix a{{1, 0}, {0, 1}};
  Matrix b{{0}, {1}};
  Matrix e{{1}, {0}};
  const AffineLTI sys(a, b, e, Vector{0, 0},
                      HPolytope::box(Vector{-30, -15}, Vector{30, 15}),
                      HPolytope::sym_box(Vector{2}), HPolytope::sym_box(Vector{1}));
  const Vector scale = drl_state_scale(sys, 2);
  ASSERT_EQ(scale.size(), drl_state_dim(2, 2, 2));
  EXPECT_NEAR(scale[0], 1.0 / 30.0, 1e-9);
  EXPECT_NEAR(scale[1], 1.0 / 15.0, 1e-9);
  // E W half-widths: coordinate 0 -> 1, coordinate 1 -> degenerate -> scale 1.
  EXPECT_NEAR(scale[2], 1.0, 1e-6);
  EXPECT_NEAR(scale[3], 1.0, 1e-9);
  EXPECT_NEAR(scale[4], 1.0, 1e-6);
}

TEST(ApplyStateScale, ElementwiseAndEmptyPassthrough) {
  const Vector s = apply_state_scale(Vector{2.0, 4.0}, Vector{0.5, 0.25});
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  EXPECT_DOUBLE_EQ(s[1], 1.0);
  const Vector raw = apply_state_scale(Vector{2.0, 4.0}, {});
  EXPECT_DOUBLE_EQ(raw[0], 2.0);
  EXPECT_THROW(apply_state_scale(Vector{1.0}, Vector{1.0, 2.0}),
               oic::PreconditionError);
}

SafeSets toy_sets() {
  SafeSets sets;
  sets.x = HPolytope::sym_box(Vector{4, 4});
  sets.xi = HPolytope::sym_box(Vector{2, 2});
  sets.x_prime = HPolytope::sym_box(Vector{1, 1});
  return sets;
}

TEST(SkippingReward, FreeSkipInsideXPrime) {
  const SafeSets sets = toy_sets();
  // z = 0, x1 and x2 in X': no penalty at all.
  EXPECT_DOUBLE_EQ(skipping_reward(sets, Vector{0, 0}, 0, Vector{0.5, 0}, 7.0,
                                   0.01, 0.0001),
                   0.0);
}

TEST(SkippingReward, LeavingXPrimePaysW1) {
  const SafeSets sets = toy_sets();
  const double r =
      skipping_reward(sets, Vector{0, 0}, 0, Vector{1.5, 0}, 7.0, 0.01, 0.0001);
  EXPECT_DOUBLE_EQ(r, -0.01);  // R1 fires, R2 still free (z=0, x1 in X')
}

TEST(SkippingReward, RunningPaysEnergy) {
  const SafeSets sets = toy_sets();
  const double r =
      skipping_reward(sets, Vector{0, 0}, 1, Vector{0.5, 0}, 7.0, 0.01, 0.0001);
  EXPECT_DOUBLE_EQ(r, -0.0001 * 7.0);
}

TEST(SkippingReward, ForcedRunOutsideXPrimePaysBoth) {
  const SafeSets sets = toy_sets();
  // x1 outside X' (monitor forced z = 1) and x2 also outside.
  const double r =
      skipping_reward(sets, Vector{1.5, 0}, 1, Vector{1.5, 0}, 7.0, 0.01, 0.0001);
  EXPECT_DOUBLE_EQ(r, -0.01 - 0.0001 * 7.0);
}

TEST(DrlPolicy, GreedyDecisionMatchesAgent) {
  oic::rl::DqnConfig cfg;
  cfg.hidden = {8};
  auto agent = std::make_shared<oic::rl::DoubleDqn>(drl_state_dim(2, 2, 1), 2, cfg,
                                                    oic::Rng(3));
  oic::core::DrlPolicy policy(agent, 1, 2);
  const Vector x{0.5, -0.5};
  const std::vector<Vector> hist = {Vector{0.1, 0.0}};
  const int z = policy.decide(x, hist);
  const int expect = agent->greedy_action(build_drl_state(x, hist, 1, 2));
  EXPECT_EQ(z, expect);
  EXPECT_TRUE(z == 0 || z == 1);
}

TEST(DrlPolicy, ScaledDecisionUsesScaledState) {
  oic::rl::DqnConfig cfg;
  cfg.hidden = {8};
  auto agent = std::make_shared<oic::rl::DoubleDqn>(drl_state_dim(2, 2, 1), 2, cfg,
                                                    oic::Rng(4));
  const Vector scale{0.1, 0.1, 1.0, 1.0};
  oic::core::DrlPolicy policy(agent, 1, 2, scale);
  const Vector x{5.0, -5.0};
  const std::vector<Vector> hist = {Vector{0.1, 0.0}};
  const int z = policy.decide(x, hist);
  const int expect = agent->greedy_action(
      apply_state_scale(build_drl_state(x, hist, 1, 2), scale));
  EXPECT_EQ(z, expect);
}

TEST(DrlPolicy, BatchedDecisionsEqualPerRowDecide) {
  // decide_batch is the serve layer's batched Omega: every row must answer
  // exactly what decide() answers for that state and history.  Histories
  // run 0..r+1 observations (front padding, and a ring longer than r);
  // each policy is asked batches of different sizes, so the state-row
  // scratch is reused at, below and above its previous row count.
  const std::size_t r = 2, nx = 2;
  oic::Rng rng(41);
  const auto net = std::make_shared<oic::rl::Mlp>(
      std::vector<std::size_t>{drl_state_dim(nx, nx, r), 16, 8, 2}, rng);
  const Vector scale{0.5, 2.0, 10.0, 0.25, 3.0, 1.5};
  for (const Vector& s : {Vector(), scale}) {
    const auto policy = oic::core::DrlPolicy::from_network(net, r, nx, s);
    std::size_t call = 0;
    for (std::size_t n : {std::size_t{300}, std::size_t{7}, std::size_t{301},
                          std::size_t{301}}) {
      ++call;  // shifts each row's history length between equal-size batches
      std::vector<Vector> xs;
      std::vector<oic::core::WHistory> hists;
      for (std::size_t i = 0; i < n; ++i) {
        xs.push_back(Vector{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)});
        oic::core::WHistory h(r + 1);
        for (std::size_t k = 0; k < (i + call) % (r + 2); ++k) {
          h.push(Vector{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)});
        }
        hists.push_back(std::move(h));
      }
      std::vector<oic::core::DrlPolicy::Query> rows;
      for (std::size_t i = 0; i < n; ++i) rows.push_back({&xs[i], &hists[i]});
      std::vector<int> z;
      policy->decide_batch(rows, z);
      ASSERT_EQ(z.size(), n);
      std::size_t skips = 0;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(z[i], policy->decide(xs[i], hists[i])) << "row " << i << " of " << n;
        if (z[i] == 0) ++skips;
      }
      if (n >= 300) {
        // Both answers occur, so the comparison is not vacuous.
        EXPECT_GT(skips, 0u);
        EXPECT_LT(skips, n);
      }
    }
    std::vector<int> z{5};
    policy->decide_batch({}, z);
    EXPECT_TRUE(z.empty());
  }
}

TEST(DrlPolicy, NullAgentRejected) {
  EXPECT_THROW(oic::core::DrlPolicy(nullptr, 1, 2), oic::PreconditionError);
}

}  // namespace
