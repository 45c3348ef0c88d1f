/// acc-sweep: the paper's ACC plant on the Fig.4 scenario, one
/// eval::EpisodeEngine per policy, driven case by case on one thread.

#include <limits>
#include <memory>

#include "cert/certificate.hpp"
#include "common/random.hpp"
#include "drivers.hpp"
#include "eval/engine.hpp"
#include "eval/policy_spec.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kCanarySeed = 20200406;
constexpr std::size_t kCanaryCases = 4;
constexpr std::size_t kCases = 512;  ///< distinct cases; the timed loop cycles them
constexpr int kSetups = 7;           ///< setup repetitions (median reported)

/// One setup: plant construction (certificate synthesis timed on its own)
/// and one engine per policy (the nesting-verification LPs).
struct AccSetup {
  std::unique_ptr<oic::eval::PlantCase> plant;
  std::vector<std::unique_ptr<oic::core::SkipPolicy>> policies;
  std::vector<std::unique_ptr<oic::eval::EpisodeEngine>> engines;
  double setup_s = 0.0, synthesize_ms = 0.0, engine_build_ms = 0.0;
};

AccSetup build_setup() {
  AccSetup s;
  const auto t0 = Clock::now();
  const oic::cert::Provider timed = [&](const oic::cert::PlantModel& m) {
    const auto ts = Clock::now();
    auto c = oic::cert::synthesize(m);
    s.synthesize_ms += 1e3 * seconds_since(ts);
    return c;
  };
  s.plant = oic::eval::ScenarioRegistry::builtin().make_plant("acc", timed);
  const auto t1 = Clock::now();
  for (const auto& spec : acc_policies()) {
    s.policies.push_back(oic::eval::make_policy(spec));
    s.engines.push_back(
        std::make_unique<oic::eval::EpisodeEngine>(*s.plant, *s.policies.back()));
  }
  s.engine_build_ms = 1e3 * seconds_since(t1);
  s.setup_s = seconds_since(t0);
  return s;
}

}  // namespace

const std::vector<std::string>& acc_policies() {
  static const std::vector<std::string> specs = {"always-run", "bang-bang", "periodic-5",
                                                 "burst:8"};
  return specs;
}

std::vector<oic::eval::CaseData> acc_cases(const oic::eval::PlantCase& acc,
                                           std::uint64_t seed, std::size_t n,
                                           std::size_t steps) {
  const oic::eval::Scenario scenario =
      oic::eval::ScenarioRegistry::builtin().make_scenario("acc", "Fig.4");
  oic::Rng rng(oic::derive_stream(seed, 1));
  std::vector<oic::eval::CaseData> cases;
  cases.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    cases.push_back(oic::eval::make_case(acc, scenario, rng, steps));
  }
  return cases;
}

Outcome run_acc_sweep(const Options& opt) {
  Outcome out;

  // ---- setup (timed, repeated) -------------------------------------------
  std::vector<double> setup_s, synth_ms, build_ms;
  AccSetup setup;
  for (int k = 0; k < kSetups; ++k) {
    setup = build_setup();
    setup_s.push_back(setup.setup_s);
    synth_ms.push_back(setup.synthesize_ms);
    build_ms.push_back(setup.engine_build_ms);
  }
  const oic::eval::PlantCase& plant = *setup.plant;
  const std::size_t np = setup.engines.size();

  // ---- inputs (untimed) ----------------------------------------------------
  const std::vector<oic::eval::CaseData> cases = acc_cases(plant, opt.seed, kCases);

  // ---- canary: fixed-seed digest against the committed value -------------
  {
    Digest d;
    for (const auto& c : acc_cases(plant, kCanarySeed, kCanaryCases)) {
      for (auto& e : setup.engines) digest_episode(d, e->run(c));
    }
    if (opt.write_digests) {
      write_digest(opt, "acc-sweep", hex(d));
    } else if (hex(d) != read_digest(opt, "acc-sweep")) {
      out.fail("acc-sweep canary digest " + hex(d) + " differs from digests.txt");
    }
  }

  // ---- timed loop -----------------------------------------------------------
  // The run cycles the cases in passes (at least one).  Reruns are checked
  // bit for bit, so every pass does the same work step for step, and each
  // episode (case × policy) keeps the wall time and the step times of its
  // fastest pass: that keeps a neighbour's burst on a shared host out of the
  // figures while every episode still pays all of its own work (cold start,
  // warm starts, restarts).  A step is timed as the interval between
  // successive observer callbacks; an episode's first step is timed from
  // run() entry.
  const std::size_t episodes = cases.size() * np;
  std::vector<double> best_ns(episodes, std::numeric_limits<double>::infinity());
  std::vector<std::vector<float>> best_step_ns(episodes);
  std::vector<float> step_buf;
  std::int64_t prev = 0;
  for (auto& e : setup.engines) {
    e->set_observer([&](std::size_t, const oic::linalg::Vector&) {
      const std::int64_t t = now_ns();
      step_buf.push_back(static_cast<float>(t - prev));
      prev = t;
    });
  }
  std::vector<oic::eval::EpisodeResult> first(episodes);
  std::vector<double> first_ns(episodes, 0.0);
  std::size_t seen = 0;  // cases with a recorded first-pass result
  std::uint64_t steps = 0, passes = 0;
  Digest digest;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(opt.seconds);
  for (std::size_t i = 0; i < cases.size() || Clock::now() < deadline; ++i) {
    const std::size_t c = i % cases.size();
    for (std::size_t p = 0; p < np; ++p) {
      const std::size_t e = c * np + p;
      step_buf.clear();
      prev = now_ns();
      const std::int64_t entry = prev;
      const oic::eval::EpisodeResult r = setup.engines[p]->run(cases[c]);
      const double ns = static_cast<double>(now_ns() - entry);
      ++out.attempted;
      steps += r.steps;
      if (ns < best_ns[e]) {
        best_ns[e] = ns;
        best_step_ns[e].assign(step_buf.begin(), step_buf.end());
      }
      if (r.left_x || r.left_xi) {
        out.fail("acc-sweep: episode left X/XI (case " + std::to_string(c) + ", " +
                 acc_policies()[p] + ")");
      }
      if (i < cases.size()) {
        first[e] = r;
        first_ns[e] = ns;
        digest_episode(digest, r);
      } else if (!same_result(first[e], r)) {
        out.fail("acc-sweep: rerun of case " + std::to_string(c) + " differs");
      }
    }
    if (i < cases.size()) seen = i + 1;
    if (c + 1 == cases.size()) ++passes;
  }
  const double wall = seconds_since(t0);
  for (auto& e : setup.engines) e->set_observer({});

  double pass_ns = 0.0, pass_steps = 0.0;
  Histogram step_ns;
  for (std::size_t e = 0; e < episodes; ++e) {
    pass_ns += best_ns[e];
    pass_steps += static_cast<double>(best_step_ns[e].size());
    for (const float ns : best_step_ns[e]) step_ns.add(ns);
  }
  out.set("setup_s", median_of(setup_s));
  out.set("steps_per_s", pass_steps / (1e-9 * pass_ns));
  out.set("step_iqm_us", step_ns.interquartile_mean() / 1e3);
  out.set("step_p99_us", step_ns.quantile(0.99) / 1e3);
  out.set("cert.synthesize_ms", median_of(synth_ms));
  out.set("eval.engine_build_ms", median_of(build_ms));

  // ---- traced pass: every case of the first pass, so its counts repeat
  // exactly for a seed ---------------------------------------------------------
  if (opt.trace) {
    Tracer tracer;
    std::vector<std::unique_ptr<TracedEpisodeDriver>> drivers;
    for (auto& p : setup.policies) {
      drivers.push_back(std::make_unique<TracedEpisodeDriver>(plant, *p,
                                                              oic::fault::FaultSpec{},
                                                              &tracer));
    }
    std::vector<oic::eval::EpisodeResult> traced;
    double untraced_ns = 0.0;
    for (std::size_t c = 0; c < seen; ++c) {
      for (std::size_t p = 0; p < np; ++p) {
        const auto r = drivers[p]->run(cases[c], c * np + p);
        if (!same_result(r, first[c * np + p])) {
          out.fail("acc-sweep: traced episode differs from the engine (case " +
                   std::to_string(c) + ", " + acc_policies()[p] + ")");
        }
        traced.push_back(r);
        untraced_ns += first_ns[c * np + p];
      }
    }
    report_episode_layers(tracer, traced, untraced_ns, out);
  }

  out.detail_json = "{\"cases\": " + std::to_string(cases.size()) +
                    ", \"episodes\": " + std::to_string(out.attempted) +
                    ", \"steps\": " + std::to_string(steps) +
                    ", \"passes\": " + std::to_string(passes) +
                    ", \"step_samples\": " + std::to_string(step_ns.count()) +
                    ", \"step_deciles_us\": " + step_ns.deciles_us_json() +
                    ", \"mean_steps_per_s\": " + json_num(static_cast<double>(steps) / wall) +
                    ", \"wall_s\": " + json_num(wall) +
                    ", \"digest\": " + json_str(hex(digest)) + "}";
  return out;
}

}  // namespace perfbench
