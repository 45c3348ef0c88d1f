// Benchmark self-tests: seeded inputs, decorator transparency, and the
// self-time arithmetic of the traced run.
//
//   cmake -S perfbench -B .bench_build && cmake --build .bench_build -j
//   .bench_build/perfbench_selftest

#include <gtest/gtest.h>

#include "drivers.hpp"
#include "eval/engine.hpp"
#include "eval/policy_spec.hpp"
#include "mc/family.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

const oic::eval::ScenarioRegistry& registry() {
  return oic::eval::ScenarioRegistry::builtin();
}

bool same_cases(const std::vector<oic::eval::CaseData>& a,
                const std::vector<oic::eval::CaseData>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].signal != b[i].signal || a[i].x0.size() != b[i].x0.size()) return false;
    for (std::size_t k = 0; k < a[i].x0.size(); ++k) {
      if (a[i].x0[k] != b[i].x0[k]) return false;
    }
  }
  return true;
}

TEST(Inputs, AccCasesFollowTheSeed) {
  const auto acc = registry().make_plant("acc");
  const auto a = acc_cases(*acc, 7, 6, 30);
  EXPECT_TRUE(same_cases(a, acc_cases(*acc, 7, 6, 30)));
  EXPECT_FALSE(same_cases(a, acc_cases(*acc, 8, 6, 30)));
}

TEST(Inputs, CampaignSpecFollowsTheSeed) {
  const auto a = campaign_spec("agent", 7, 0, 64);
  EXPECT_EQ(a.seed, campaign_spec("agent", 7, 0, 64).seed);
  EXPECT_NE(a.seed, campaign_spec("agent", 8, 0, 64).seed);
  EXPECT_NE(a.seed, campaign_spec("agent", 7, 1, 64).seed);
  EXPECT_EQ(a.faults, "overloaded");
  EXPECT_EQ(a.workers, 2u);
}

TEST(Inputs, ServeTrajectoriesFollowTheSeedAtAnyThreadCount) {
  std::vector<std::unique_ptr<oic::eval::PlantCase>> plants;
  for (const auto& id : serve_plants()) plants.push_back(registry().make_plant(id));
  const auto policies = serve_policies(PERFBENCH_AGENT);
  const auto a = serve_trajectories(registry(), plants, policies, 7, 16, 12, 1);
  const auto b = serve_trajectories(registry(), plants, policies, 7, 16, 12, 3);
  const auto c = serve_trajectories(registry(), plants, policies, 8, 16, 12, 2);
  ASSERT_EQ(a.size(), 16u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].u, b[i].u);
    EXPECT_EQ(a[i].z, b[i].z);
    EXPECT_EQ(a[i].forced, b[i].forced);
  }
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) differs = differs || a[i].x != c[i].x;
  EXPECT_TRUE(differs);
  EXPECT_EQ(trajectory_digest(a), trajectory_digest(b));
}

/// The traced driver, with and without a tracer, must reproduce
/// EpisodeEngine bit for bit on the fault-free and the faulted path.
void expect_transparent(const oic::eval::PlantCase& plant, const std::string& spec,
                        const oic::fault::FaultSpec& faults,
                        const std::vector<oic::eval::CaseData>& cases) {
  auto p_engine = oic::eval::make_policy(spec);
  auto p_plain = oic::eval::make_policy(spec);
  auto p_traced = oic::eval::make_policy(spec);
  oic::eval::EpisodeEngine engine(plant, *p_engine, faults);
  TracedEpisodeDriver plain(plant, *p_plain, faults, nullptr);
  Tracer tracer;
  TracedEpisodeDriver traced(plant, *p_traced, faults, &tracer);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto want = engine.run(cases[c]);
    EXPECT_TRUE(same_result(want, plain.run(cases[c], c))) << spec << " case " << c;
    EXPECT_TRUE(same_result(want, traced.run(cases[c], c))) << spec << " case " << c;
  }
  const LayerTimes lt = layer_times(tracer);
  EXPECT_TRUE(lt.nesting_ok);
  EXPECT_EQ(lt.spans("eval.episode"), cases.size());
  EXPECT_EQ(lt.spans("core.decide"), cases.size() * cases.front().signal.size());
}

std::vector<oic::eval::CaseData> toy_cases(const oic::eval::PlantCase& plant, bool faulted) {
  const auto family =
      oic::mc::family_by_id(registry().plant("toy2d").signal_band, "mixed");
  std::vector<oic::eval::CaseData> cases;
  for (std::uint64_t e = 0; e < 6; ++e) {
    oic::Rng rng(oic::derive_stream(11, e));
    const auto scenario = family.sample(rng);
    cases.push_back(oic::eval::make_case(plant, scenario, rng, 60, faulted));
  }
  return cases;
}

TEST(Decorators, TransparentFaultFree) {
  const auto plant = registry().make_plant("toy2d");
  const auto cases = toy_cases(*plant, false);
  for (const std::string spec :
       {"always-run", "bang-bang", "periodic-5", "burst:8", "drl:" PERFBENCH_AGENT}) {
    expect_transparent(*plant, spec, {}, cases);
  }
}

TEST(Decorators, TransparentFaulted) {
  const auto plant = registry().make_plant("toy2d");
  const auto faults = registry().resolve_faults("overloaded");
  const auto cases = toy_cases(*plant, true);
  for (const std::string spec : {"always-run", "bang-bang", "drl:" PERFBENCH_AGENT}) {
    expect_transparent(*plant, spec, faults, cases);
  }
}

TEST(Trace, SelfTimesOnHandBuiltSpans) {
  Tracer t;
  const auto root = t.intern("root"), a = t.intern("a"), b = t.intern("b");
  // root [0, 100) with children a [10, 40) and b [50, 90); a has a child
  // b [20, 30).
  const auto r = t.add(root, kNoParent, 0, 100);
  const auto ca = t.add(a, r, 10, 40);
  t.add(b, ca, 20, 30);
  t.add(b, r, 50, 90);
  const LayerTimes lt = layer_times(t);
  EXPECT_TRUE(lt.nesting_ok);
  EXPECT_DOUBLE_EQ(lt.total_ns, 100.0);
  EXPECT_DOUBLE_EQ(lt.self("root"), 30.0);  // 100 - 30 - 40
  EXPECT_DOUBLE_EQ(lt.self("a"), 20.0);     // 30 - 10
  EXPECT_DOUBLE_EQ(lt.self("b"), 50.0);     // 10 + 40
  EXPECT_EQ(lt.spans("b"), 2u);
}

TEST(Trace, ReconciliationGatesTheUnattributedShare) {
  auto share_of = [](std::int64_t covered, Outcome& out) {
    Tracer t;
    const auto root = t.intern("root"), a = t.intern("a");
    const auto r = t.add(root, kNoParent, 0, 100);
    t.add(a, r, 0, covered);
    check_reconciliation(layer_times(t), "root", out);
    return out.metrics.at("trace.unattributed_frac");
  };
  Outcome ok, bad;
  EXPECT_DOUBLE_EQ(share_of(95, ok), 0.05);
  EXPECT_TRUE(ok.correct);
  EXPECT_DOUBLE_EQ(share_of(80, bad), 0.2);
  EXPECT_FALSE(bad.correct);
}

TEST(Trace, DetectsBrokenNesting) {
  Tracer t;
  const auto root = t.intern("root"), a = t.intern("a");
  const auto r = t.add(root, kNoParent, 0, 100);
  t.add(a, r, 90, 120);  // runs past its parent
  EXPECT_FALSE(layer_times(t).nesting_ok);

  Tracer u;
  const auto root2 = u.intern("root"), a2 = u.intern("a");
  const auto r2 = u.add(root2, kNoParent, 0, 100);
  u.add(a2, r2, 0, 60);
  u.add(a2, r2, 40, 100);  // overlapping siblings: parent self < 0
  EXPECT_FALSE(layer_times(u).nesting_ok);
}

TEST(Trace, RecorderNestsLiveSpans) {
  Tracer t;
  const auto outer = t.intern("outer"), inner = t.intern("inner");
  t.set_group(3);
  {
    Scope s(&t, outer);
    Scope s2(&t, inner);
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, 0u);
  EXPECT_EQ(t.spans()[1].group, 3u);
  const LayerTimes lt = layer_times(t);
  EXPECT_TRUE(lt.nesting_ok);
  Scope off(nullptr, outer);  // a null tracer records nothing
  EXPECT_EQ(t.spans().size(), 2u);
}

/// A transport failure part-way through serve-open gives a failed result;
/// the metrics of phases that never ran are not read.
TEST(ServeOpen, TransportFailureFailsTheRun) {
  Options opt;
  opt.workload = "serve-open";
  opt.seconds = 0.5;
  opt.root = PERFBENCH_ROOT;
  for (const int phase : {0, 2}) {
    opt.fail_phase = phase;
    const Outcome out = run_serve_open(opt);
    EXPECT_FALSE(out.correct) << phase;
    EXPECT_GE(out.failed, 1u) << phase;
    ASSERT_FALSE(out.problems.empty());
    EXPECT_NE(out.problems.front().find("transport failed"), std::string::npos)
        << out.problems.front();
  }
}

TEST(Stats, HistogramQuantilesTrackExactOnes) {
  Histogram h;
  std::vector<double> xs;
  for (int i = 1; i <= 100000; ++i) {
    const double v = 1000.0 + 37.0 * (i % 4099) + (i % 7 == 0 ? 250000.0 : 0.0);
    h.add(v);
    xs.push_back(v);
  }
  EXPECT_EQ(h.count(), xs.size());
  for (const double q : {0.5, 0.9, 0.99}) {
    const double exact = quantile(xs, q);
    EXPECT_NEAR(h.quantile(q), exact, 0.008 * exact) << q;
  }
  EXPECT_EQ(Histogram().quantile(0.5), 0.0);
  const double iqm = interquartile_mean(xs);
  EXPECT_NEAR(h.interquartile_mean(), iqm, 0.008 * iqm);
  EXPECT_EQ(Histogram().interquartile_mean(), 0.0);
}

TEST(Stats, InterquartileMeanAveragesTheMiddleHalf) {
  std::vector<double> xs = {100, 1, 2, 3, 4, 5, 6, -50};  // middle half: 2 3 4 5
  EXPECT_DOUBLE_EQ(interquartile_mean(xs), 3.5);
  std::vector<double> one = {7};
  EXPECT_DOUBLE_EQ(interquartile_mean(one), 7.0);
}

}  // namespace
}  // namespace perfbench
