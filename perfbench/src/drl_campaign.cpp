/// drl-campaign: mc::run_campaign on toy2d, family `mixed`, policies
/// drl:<agent> and bang-bang under the `overloaded` fault preset, 2 workers.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <mutex>

#include "cert/store.hpp"
#include "common/random.hpp"
#include "drivers.hpp"
#include "eval/engine.hpp"
#include "eval/policy_spec.hpp"
#include "mc/family.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kCanarySeed = 20200406;
constexpr std::uint64_t kCanaryEpisodes = 32;
constexpr std::uint64_t kRoundEpisodes = 64;  ///< episodes per run_campaign call
constexpr std::uint64_t kRounds = 8;  ///< distinct rounds; the timed loop cycles them
constexpr std::uint64_t kBlock = 32;
constexpr std::size_t kWorkers = 2;
constexpr int kSetups = 7;

/// Per-thread step clock fed from PlantCase::cost_step, which both engine
/// paths call exactly once per simulated period.  Intervals between
/// successive calls on one thread are the user-visible period times of the
/// campaign (an episode's first period includes its reset).  take() hands
/// back one round's samples.
class StepClock {
 public:
  void tick() {
    thread_local Histogram* sink = nullptr;
    thread_local std::uint64_t epoch = 0;
    thread_local std::int64_t prev = 0;
    const std::int64_t t = now_ns();
    if (!sink || epoch != epoch_) {
      std::lock_guard<std::mutex> lock(mu_);
      sinks_.emplace_back();
      sink = &sinks_.back();
      epoch = epoch_;
    } else {
      sink->add(static_cast<double>(t - prev));
    }
    prev = t;
  }
  /// The samples since the last take(); every thread starts a new sink.
  Histogram take() {
    std::lock_guard<std::mutex> lock(mu_);
    Histogram all;
    for (const auto& s : sinks_) all.merge(s);
    sinks_.clear();
    ++epoch_;
    return all;
  }

 private:
  std::mutex mu_;
  std::deque<Histogram> sinks_;
  std::atomic<std::uint64_t> epoch_{1};
};

/// PlantCase decorator that forwards everything and ticks the step clock.
class ClockedPlant final : public oic::eval::PlantCase {
 public:
  ClockedPlant(std::unique_ptr<oic::eval::PlantCase> inner, StepClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  std::string name() const override { return inner_->name(); }
  const oic::control::AffineLTI& system() const override { return inner_->system(); }
  oic::control::TubeMpc& rmpc() override { return inner_->rmpc(); }
  const oic::control::TubeMpc& rmpc() const override { return inner_->rmpc(); }
  const oic::core::SafeSets& sets() const override { return inner_->sets(); }
  const std::vector<oic::poly::HPolytope>& ladder() const override {
    return inner_->ladder();
  }
  const oic::linalg::Vector& u_skip() const override { return inner_->u_skip(); }
  oic::linalg::Vector sample_x0(oic::Rng& rng) const override {
    return inner_->sample_x0(rng);
  }
  void signal_to_w(double signal, oic::linalg::Vector& w) const override {
    inner_->signal_to_w(signal, w);
  }
  double cost_step(const oic::linalg::Vector& x, const oic::linalg::Vector& u,
                   bool ran) const override {
    clock_.tick();
    return inner_->cost_step(x, u, ran);
  }
  double energy_raw(const oic::linalg::Vector& u) const override {
    return inner_->energy_raw(u);
  }
  double train_cost_rate(const oic::linalg::Vector& x,
                         const oic::linalg::Vector& u) const override {
    return inner_->train_cost_rate(x, u);
  }

 private:
  std::unique_ptr<oic::eval::PlantCase> inner_;
  StepClock& clock_;
};

/// Registry holding only toy2d, wrapped in ClockedPlant, plus the builtin
/// fault presets.
oic::eval::ScenarioRegistry clocked_registry(StepClock& clock) {
  const auto& builtin = oic::eval::ScenarioRegistry::builtin();
  oic::eval::PlantInfo info = builtin.plant("toy2d");
  auto make = info.make_plant;
  info.make_plant = [make, &clock](const oic::cert::Provider& p) {
    return std::unique_ptr<oic::eval::PlantCase>(new ClockedPlant(make(p), clock));
  };
  oic::eval::ScenarioRegistry r;
  r.add(std::move(info));
  for (const auto& preset : builtin.fault_presets()) r.add_fault_preset(preset);
  return r;
}

// Replicas of the campaign's per-episode accumulation (mc/campaign.cpp), so
// the traced pass can rebuild a round's statistics bit for bit.
void add_faults(oic::mc::PolicyStats& ps, const oic::eval::EpisodeResult& r) {
  ps.degraded.add(static_cast<double>(r.degraded_steps));
  ps.steps += r.steps;
  ps.degraded_steps += r.degraded_steps;
  ps.stale_forced += r.stale_forced;
  ps.policy_unavail += r.policy_unavail;
  ps.meas_dropped += r.meas_dropped;
  ps.act_dropped += r.act_dropped;
}

void add_episode(oic::mc::PolicyStats& ps, const oic::eval::EpisodeResult* base,
                 const oic::eval::EpisodeResult& r) {
  if (base) ps.saving.add(oic::eval::fuel_saving(*base, r));
  ps.cost.add(r.fuel);
  ps.skipped.add(static_cast<double>(r.skipped));
  if (r.left_x || r.left_xi) ++ps.violations;
  if (r.left_x) ++ps.left_x_episodes;
  ++ps.episodes;
  add_faults(ps, r);
}

bool same_welford(const oic::Welford& a, const oic::Welford& b) {
  const double fa[] = {a.mean(), a.m2(), a.count() ? a.min() : 0.0,
                       a.count() ? a.max() : 0.0};
  const double fb[] = {b.mean(), b.m2(), b.count() ? b.min() : 0.0,
                       b.count() ? b.max() : 0.0};
  return a.count() == b.count() && std::memcmp(fa, fb, sizeof fa) == 0;
}

bool same_stats(const oic::mc::PolicyStats& a, const oic::mc::PolicyStats& b) {
  return same_welford(a.saving, b.saving) && same_welford(a.cost, b.cost) &&
         same_welford(a.skipped, b.skipped) && same_welford(a.degraded, b.degraded) &&
         a.violations == b.violations && a.left_x_episodes == b.left_x_episodes &&
         a.episodes == b.episodes && a.degraded_steps == b.degraded_steps &&
         a.stale_forced == b.stale_forced && a.policy_unavail == b.policy_unavail &&
         a.meas_dropped == b.meas_dropped && a.act_dropped == b.act_dropped &&
         a.steps == b.steps;
}

void digest_welford(Digest& d, const oic::Welford& w) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%llu %.9e %.9e",
                static_cast<unsigned long long>(w.count()), w.mean(), w.stddev());
  d.bytes(buf, std::strlen(buf));
}

std::uint64_t left_x_episodes(const oic::mc::CampaignResult& r) {
  std::uint64_t n = 0;
  for (const auto& cell : r.cells) {
    n += cell.baseline.left_x_episodes;
    for (const auto& ps : cell.policies) n += ps.left_x_episodes;
  }
  return n;
}

/// A private certificate directory for run_campaign, removed on exit.
struct CertDir {
  std::string path;
  explicit CertDir(const Options& opt)
      : path(opt.work_dir + "/certs-" + std::to_string(::getpid())) {
    std::filesystem::create_directories(path);
  }
  ~CertDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

oic::mc::CampaignSpec campaign_spec(const std::string& agent_path, std::uint64_t seed,
                                    std::uint64_t round, std::uint64_t episodes) {
  oic::mc::CampaignSpec spec;
  spec.plants = {"toy2d"};
  spec.families = {"mixed"};
  spec.policies = {"drl:" + agent_path, "bang-bang"};
  spec.episodes = episodes;
  spec.steps = 100;
  spec.seed = oic::derive_stream(seed, 100 + round);
  spec.workers = kWorkers;
  spec.block = kBlock;
  spec.faults = "overloaded";
  return spec;
}

std::string campaign_digest(const oic::mc::CampaignResult& r) {
  Digest d;
  for (const auto& cell : r.cells) {
    const auto add = [&](const oic::mc::PolicyStats& ps) {
      digest_welford(d, ps.saving);
      digest_welford(d, ps.cost);
      digest_welford(d, ps.skipped);
      digest_welford(d, ps.degraded);
      for (std::uint64_t v : {ps.violations, ps.left_x_episodes, ps.episodes,
                              ps.degraded_steps, ps.stale_forced, ps.policy_unavail,
                              ps.meas_dropped, ps.act_dropped, ps.steps}) {
        d.u64(v);
      }
    };
    add(cell.baseline);
    for (const auto& ps : cell.policies) add(ps);
  }
  return hex(d);
}

Outcome run_drl_campaign(const Options& opt) {
  Outcome out;
  const std::string agent = opt.root + "/" + kAgentPath;
  StepClock clock;
  const oic::eval::ScenarioRegistry registry = clocked_registry(clock);
  const auto& builtin = oic::eval::ScenarioRegistry::builtin();
  const oic::fault::FaultSpec faults = builtin.resolve_faults("overloaded");
  const std::vector<std::string> specs = campaign_spec(agent, 0, 0, 1).policies;

  // ---- setup (timed, repeated): plant with certificate synthesis and the
  // per-worker engine sets the campaign builds ------------------------------
  std::vector<double> setup_s, synth_ms, build_ms;
  for (int k = 0; k < kSetups; ++k) {
    double synth = 0.0;
    const auto t0 = Clock::now();
    const oic::cert::Provider timed = [&](const oic::cert::PlantModel& m) {
      const auto ts = Clock::now();
      auto c = oic::cert::synthesize(m);
      synth += 1e3 * seconds_since(ts);
      return c;
    };
    const auto plant = builtin.make_plant("toy2d", timed);
    const auto t1 = Clock::now();
    for (std::size_t w = 0; w < kWorkers; ++w) {
      std::vector<std::unique_ptr<oic::core::SkipPolicy>> policies;
      policies.push_back(std::make_unique<oic::core::AlwaysRunPolicy>());
      for (const auto& s : specs) policies.push_back(oic::eval::make_policy(s));
      for (auto& p : policies) oic::eval::EpisodeEngine engine(*plant, *p, faults);
    }
    build_ms.push_back(1e3 * seconds_since(t1));
    setup_s.push_back(seconds_since(t0));
    synth_ms.push_back(synth);
  }

  // The campaign reads its certificate from a private store, filled here
  // (untimed) so no round pays for synthesis.
  const CertDir certs(opt);
  const oic::cert::Store store(certs.path);
  store.get(builtin.make_model("toy2d"));
  auto with_certs = [&](oic::mc::CampaignSpec s) {
    s.cert_dir = certs.path;
    return s;
  };

  // ---- canary ----------------------------------------------------------------
  {
    const auto r = oic::mc::run_campaign(
        builtin, with_certs(campaign_spec(agent, kCanarySeed, 0, kCanaryEpisodes)));
    const std::string d = campaign_digest(r);
    if (opt.write_digests) {
      write_digest(opt, "drl-campaign", d);
    } else if (d != read_digest(opt, "drl-campaign")) {
      out.fail("drl-campaign canary digest " + d + " differs from digests.txt");
    }
  }

  // ---- timed rounds ------------------------------------------------------------
  // The run cycles kRounds distinct rounds (at least once each).  Each round
  // keeps the wall time and step samples of its fastest repeat, which keeps
  // a neighbour's burst on a shared host out of the figures; a round is
  // ~2 * 10^4 periods plus run_campaign's own set-up, so it still pays all
  // of its own work.  Every repeat must reproduce the round's first
  // statistics bit for bit.
  std::vector<double> best_ns(kRounds, std::numeric_limits<double>::infinity());
  std::vector<std::uint64_t> best_steps(kRounds, 0);
  std::vector<Histogram> best_hist(kRounds);
  std::vector<std::string> first_digest(kRounds);
  std::uint64_t steps = 0, rounds = 0;
  oic::mc::CampaignResult round0;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(opt.seconds);
  for (; rounds < kRounds || Clock::now() < deadline; ++rounds) {
    const std::uint64_t round = rounds % kRounds;
    clock.take();
    const std::int64_t start = now_ns();
    const auto r = oic::mc::run_campaign(
        registry, with_certs(campaign_spec(agent, opt.seed, round, kRoundEpisodes)));
    const double ns = static_cast<double>(now_ns() - start);
    Histogram hist = clock.take();
    out.attempted += r.episodes_run;
    steps += r.total_steps;
    if (ns < best_ns[round]) {
      best_ns[round] = ns;
      best_steps[round] = r.total_steps;
      best_hist[round] = std::move(hist);
    }
    const std::uint64_t bad = left_x_episodes(r);
    if (bad > 0 || r.safety_violations) {
      out.fail("drl-campaign: " + std::to_string(bad) + " episodes left X in round " +
                   std::to_string(round),
               bad ? bad : 1);
    }
    const std::string d = campaign_digest(r);
    if (rounds < kRounds) {
      first_digest[round] = d;
    } else if (d != first_digest[round]) {
      out.fail("drl-campaign: rerun of round " + std::to_string(round) + " differs",
               r.episodes_run);
    }
    if (rounds == 0) round0 = r;
  }
  const double wall = seconds_since(t0);
  double pass_ns = 0.0, pass_steps = 0.0;
  Histogram step_ns;
  for (std::uint64_t k = 0; k < kRounds; ++k) {
    pass_ns += best_ns[k];
    pass_steps += static_cast<double>(best_steps[k]);
    step_ns.merge(best_hist[k]);
  }
  out.set("setup_s", median_of(setup_s));
  out.set("steps_per_s", pass_steps / (1e-9 * pass_ns));
  out.set("step_iqm_us", step_ns.interquartile_mean() / 1e3);
  out.set("step_p99_us", step_ns.quantile(0.99) / 1e3);
  out.set("cert.synthesize_ms", median_of(synth_ms));
  out.set("eval.engine_build_ms", median_of(build_ms));

  // ---- traced pass: round 0 rebuilt serially from public calls ---------------
  if (opt.trace) {
    // Untraced serial reference for the overhead ratio (and a worker-count
    // invariance check of the round's statistics).
    auto serial = with_certs(campaign_spec(agent, opt.seed, 0, kRoundEpisodes));
    serial.workers = 1;
    const auto ref = oic::mc::run_campaign(builtin, serial);
    if (campaign_digest(ref) != campaign_digest(round0)) {
      out.fail("drl-campaign: 1-worker statistics differ from 2-worker ones");
    }

    Tracer tracer;
    const std::uint32_t id_draw = tracer.intern("mc.episode_draw");
    const auto plant = builtin.make_plant("toy2d", store.provider());
    const auto family = oic::mc::family_by_id(builtin.plant("toy2d").signal_band, "mixed");
    oic::core::AlwaysRunPolicy baseline;
    std::vector<std::unique_ptr<oic::core::SkipPolicy>> policies;
    for (const auto& s : specs) policies.push_back(oic::eval::make_policy(s));
    TracedEpisodeDriver base_driver(*plant, baseline, faults, &tracer);
    std::vector<std::unique_ptr<TracedEpisodeDriver>> drivers;
    for (auto& p : policies) {
      drivers.push_back(std::make_unique<TracedEpisodeDriver>(*plant, *p, faults, &tracer));
    }

    const std::uint64_t cell_seed = oic::derive_stream(serial.seed, 0);
    oic::mc::CellStats cell;
    cell.policies.resize(specs.size());
    std::vector<oic::eval::EpisodeResult> traced;
    for (std::uint64_t e0 = 0; e0 < kRoundEpisodes; e0 += kBlock) {
      oic::mc::CellStats block;
      block.policies.resize(specs.size());
      for (std::uint64_t e = e0; e < std::min(kRoundEpisodes, e0 + kBlock); ++e) {
        tracer.set_group(e);
        oic::eval::CaseData data;
        {
          Scope s(&tracer, id_draw);
          oic::Rng ep_rng(oic::derive_stream(cell_seed, e));
          const oic::eval::Scenario scenario = family.sample(ep_rng);
          data = oic::eval::make_case(*plant, scenario, ep_rng, serial.steps, true);
        }
        const auto base = base_driver.run(data, e);
        add_episode(block.baseline, nullptr, base);
        traced.push_back(base);
        for (std::size_t p = 0; p < drivers.size(); ++p) {
          const auto r = drivers[p]->run(data, e);
          add_episode(block.policies[p], &base, r);
          traced.push_back(r);
        }
      }
      cell.baseline.merge(block.baseline);
      for (std::size_t p = 0; p < specs.size(); ++p) cell.policies[p].merge(block.policies[p]);
    }
    const auto& want = ref.cells.front();
    bool same = same_stats(cell.baseline, want.baseline);
    for (std::size_t p = 0; p < specs.size(); ++p) {
      same = same && same_stats(cell.policies[p], want.policies[p]);
    }
    if (!same) out.fail("drl-campaign: traced statistics differ from run_campaign");
    report_episode_layers(tracer, traced, 1e9 * ref.wall_s, out);
  }

  out.detail_json = "{\"rounds\": " + std::to_string(rounds) +
                    ", \"distinct_rounds\": " + std::to_string(kRounds) +
                    ", \"episode_runs\": " + std::to_string(out.attempted) +
                    ", \"steps\": " + std::to_string(steps) +
                    ", \"step_samples\": " + std::to_string(step_ns.count()) +
                    ", \"step_deciles_us\": " + step_ns.deciles_us_json() +
                    ", \"mean_steps_per_s\": " + json_num(static_cast<double>(steps) / wall) +
                    ", \"wall_s\": " + json_num(wall) +
                    ", \"round0_digest\": " + json_str(campaign_digest(round0)) + "}";
  return out;
}

}  // namespace perfbench
