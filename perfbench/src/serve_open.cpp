/// serve-open: an in-process serve::Server behind a loopback SocketListener,
/// driven open-loop by one SocketClient (one send thread, one receive
/// thread).  Every session sends one decide per period at staggered due
/// times, replaying a trajectory precomputed with the per-session
/// IntermittentController reference, and every decision is checked against
/// that reference.  Latency is timed from each request's due time.  The
/// end-to-end figures come from replaying the same requests through the
/// server's request path in-process (see NOTES.md for why).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "cert/certificate.hpp"
#include "common/random.hpp"
#include "control/tube_mpc.hpp"
#include "core/intermittent.hpp"
#include "eval/policy_spec.hpp"
#include "mc/family.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using oic::serve::Request;
using oic::serve::Response;

constexpr std::size_t kSessions = 10000;
constexpr std::uint64_t kCanarySeed = 20200406;
constexpr std::size_t kCanarySessions = 64, kCanarySteps = 20;
constexpr int kSetups = 7;
constexpr double kLatencyLimitMs = 10.0;  ///< one tenth of the 0.1 s period
constexpr std::int64_t kSendQuantumNs = 500'000;  ///< send-thread wake cadence
constexpr std::size_t kMaxBatch = 4096;
/// In-process capacity replay: the `low` phase's requests in batches of
/// kCapacityBatch; at least kMinReplays replays.
constexpr std::size_t kCapacityBatch = 128;
constexpr int kMinReplays = 3;
/// A phase's latencies are also split into kParts equal parts of due time,
/// whose p99s go to the run's detail: they show where a stall hit.
constexpr std::size_t kParts = 10;

/// Offered per-session rates.  `high` is an absolute rate frozen below the
/// reference host's knee (see NOTES.md); the ramp climbs from it.
constexpr double kLowHz = 5.0, kMidHz = 10.0, kHighHz = 12.5;
constexpr double kRampFactor = 1.1;  ///< <= 10% per ramp step
constexpr int kRampSteps = 14;

/// Cold-solving kappa: reset_solver() before every control() makes the
/// input a function of the state alone, so reference trajectories do not
/// depend on which thread computed which session.
class ColdKappa final : public oic::control::Controller {
 public:
  explicit ColdKappa(const oic::control::TubeMpc& mpc) : mpc_(mpc) {}
  oic::linalg::Vector control(const oic::linalg::Vector& x) override {
    count_invocation();
    mpc_.reset_solver();
    return mpc_.control(x);
  }
  std::size_t state_dim() const override { return mpc_.state_dim(); }
  std::size_t input_dim() const override { return mpc_.input_dim(); }
  std::string name() const override { return "cold-" + mpc_.name(); }

 private:
  oic::control::TubeMpc mpc_;
};

/// One measured phase: `rate_hz` per session for `seconds`, open loop.
struct Phase {
  std::string name;
  double rate_hz = 0.0;
  double seconds = 0.0;
  std::size_t sent = 0;        ///< requests actually sent
  std::size_t periods = 0;     ///< decides per session
  std::size_t first_step = 0;  ///< trajectory step of the first period
  std::size_t first_ref = 0;   ///< global request index of the first request
  std::int64_t start_ns = 0;   ///< absolute start (set when the phase starts)
  std::size_t requests() const { return periods * kSessions; }
  /// Due time of the phase's j-th request: period k = j / N, session
  /// i = j % N, staggered by i / N of a period.
  std::int64_t due(std::size_t j) const {
    const double k = static_cast<double>(j / kSessions);
    const double phi = static_cast<double>(j % kSessions) / kSessions;
    return start_ns + static_cast<std::int64_t>(1e9 * (k + phi) / rate_hz);
  }
};

struct PhaseStats {
  std::vector<double> latency_ms;    ///< response time - due time
  std::vector<std::vector<double>> part_ms;  ///< latency_ms by part (kParts)
  std::vector<double> roundtrip_ms;  ///< response time - send time
  std::vector<double> lateness_ms;   ///< send time - due time
  std::uint64_t errors = 0, mismatches = 0, missing = 0;
  double achieved_per_s = 0.0;
  bool backlog_grows = false;
  double p50() { return quantile(latency_ms, 0.5); }
  double p99() { return quantile(latency_ms, 0.99); }
  /// Held the latency limit with no failure and no growing backlog.
  bool pass() {
    return errors == 0 && mismatches == 0 && missing == 0 && !backlog_grows &&
           p99() <= kLatencyLimitMs;
  }
};

Request decide_request(const SessionTrajectory& tr, std::size_t session, std::size_t step,
                       std::uint64_t ref) {
  Request r;
  r.kind = Request::Kind::kDecide;
  r.ref = ref;
  r.session = session + 1;
  r.x = oic::linalg::Vector(tr.nx);
  std::memcpy(r.x.data().data(), &tr.x[step * tr.nx], tr.nx * sizeof(double));
  if (step > 0) {
    r.has_u = true;
    r.u = oic::linalg::Vector(tr.nu);
    std::memcpy(r.u.data().data(), &tr.u[step * tr.nu], tr.nu * sizeof(double));
  }
  return r;
}

std::vector<Request> open_batch(const std::vector<SessionTrajectory>& trajs,
                                const std::vector<std::string>& policies) {
  std::vector<Request> batch;
  batch.reserve(trajs.size());
  for (std::size_t i = 0; i < trajs.size(); ++i) {
    Request r;
    r.kind = Request::Kind::kOpen;
    r.ref = i + 1;
    r.session = i + 1;
    r.plant = serve_plants()[trajs[i].plant];
    r.policy = policies[trajs[i].policy];
    batch.push_back(std::move(r));
  }
  return batch;
}

}  // namespace

const std::vector<std::string>& serve_plants() {
  // Session i runs plant i % 2 and policy i % 4, so the drl:<agent> and
  // burst:32 sessions land on toy2d, the plant the agent was trained on.
  static const std::vector<std::string> ids = {"lane-keep", "toy2d"};
  return ids;
}

std::vector<std::string> serve_policies(const std::string& agent_path) {
  return {"bang-bang", "burst:32", "periodic-5", "drl:" + agent_path};
}

std::vector<SessionTrajectory> serve_trajectories(
    const oic::eval::ScenarioRegistry& registry,
    const std::vector<std::unique_ptr<oic::eval::PlantCase>>& plants,
    const std::vector<std::string>& policies, std::uint64_t seed, std::size_t sessions,
    std::size_t steps, std::size_t threads) {
  std::vector<SessionTrajectory> out(sessions);
  std::vector<oic::mc::ScenarioFamily> families;
  for (const auto& id : serve_plants()) {
    families.push_back(oic::mc::family_by_id(registry.plant(id).signal_band, "mixed"));
  }
  auto work = [&](std::size_t begin, std::size_t end) {
    // One reference controller per (plant, policy), reset between
    // sessions exactly as the episode engines reset between episodes.
    struct Ref {
      std::unique_ptr<oic::core::SkipPolicy> policy;
      std::unique_ptr<ColdKappa> kappa;
      std::unique_ptr<oic::core::IntermittentController> ctrl;
    };
    std::vector<Ref> refs(plants.size() * policies.size());
    oic::linalg::Vector w, xn;
    for (std::size_t i = begin; i < end; ++i) {
      SessionTrajectory& tr = out[i];
      tr.plant = i % plants.size();
      tr.policy = i % policies.size();
      const oic::eval::PlantCase& plant = *plants[tr.plant];
      Ref& ref = refs[tr.plant * policies.size() + tr.policy];
      if (!ref.ctrl) {
        ref.policy = oic::eval::make_policy(policies[tr.policy]);
        ref.kappa = std::make_unique<ColdKappa>(plant.rmpc());
        ref.ctrl = std::make_unique<oic::core::IntermittentController>(
            plant.system(), plant.sets(), *ref.kappa, *ref.policy,
            oic::eval::make_intermittent_config(plant, *ref.policy));
      }
      ref.ctrl->reset();
      const auto& sys = plant.system();
      tr.nx = sys.nx();
      tr.nu = sys.nu();
      tr.x.assign(steps * tr.nx, 0.0);
      tr.u.assign(steps * tr.nu, 0.0);
      tr.z.assign(steps, 0);
      tr.forced.assign(steps, 0);
      oic::Rng rng(oic::derive_stream(seed, i));
      oic::Rng x0_rng = rng.split();
      oic::linalg::Vector x = plant.sample_x0(x0_rng);
      const oic::eval::Scenario scenario = families[tr.plant].sample(rng);
      auto profile = scenario.profile->clone();
      profile->reset(rng.split());
      w = oic::linalg::Vector(sys.nw());
      for (std::size_t t = 0; t < steps; ++t) {
        const oic::core::StepDecision d = ref.ctrl->decide(x);
        std::memcpy(&tr.x[t * tr.nx], x.data().data(), tr.nx * sizeof(double));
        tr.z[t] = static_cast<std::uint8_t>(d.z);
        tr.forced[t] = d.forced ? 1 : 0;
        if (t + 1 < steps) {
          std::memcpy(&tr.u[(t + 1) * tr.nu], d.u.data().data(), tr.nu * sizeof(double));
        }
        plant.signal_to_w(profile->next(), w);
        sys.step_into(x, d.u, w, xn);
        ref.ctrl->record_transition(x, d.u, xn);
        x = xn;
      }
    }
  };
  threads = std::max<std::size_t>(1, std::min(threads, sessions));
  std::vector<std::thread> pool;
  std::exception_ptr error;
  std::mutex error_mu;
  for (std::size_t k = 0; k < threads; ++k) {
    pool.emplace_back([&, k] {
      try {
        work(sessions * k / threads, sessions * (k + 1) / threads);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  return out;
}

std::string trajectory_digest(const std::vector<SessionTrajectory>& trajs) {
  Digest d;
  for (const auto& t : trajs) {
    d.bytes(t.z.data(), t.z.size());
    d.bytes(t.forced.data(), t.forced.size());
  }
  return hex(d);
}

Outcome run_serve_open(const Options& opt) {
  Outcome out;
  const auto& registry = oic::eval::ScenarioRegistry::builtin();
  const std::vector<std::string> policies = serve_policies(opt.root + "/" + kAgentPath);
  const std::size_t threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));

  // ---- phases -------------------------------------------------------------------
  // The three fixed rates; traced runs then climb the stepped ramp (it
  // yields serve.ramp.max_decisions_per_s).  The trajectories always cover
  // the ramp, so the inputs do not depend on --trace.
  const double fixed_s = 0.15 * opt.seconds, ramp_s = 0.02 * opt.seconds,
               capacity_s = 0.4 * opt.seconds;
  std::vector<Phase> phases = {{"low", kLowHz, fixed_s},
                               {"mid", kMidHz, fixed_s},
                               {"high", kHighHz, fixed_s}};
  for (int k = 1; k <= kRampSteps; ++k) {
    phases.push_back({"ramp" + std::to_string(k), kHighHz * std::pow(kRampFactor, k), ramp_s});
  }
  std::size_t steps = 0, total = 0;
  for (auto& p : phases) {
    p.periods = std::max<std::size_t>(1, static_cast<std::size_t>(p.rate_hz * p.seconds));
    p.first_step = steps;
    p.first_ref = total;
    steps += p.periods;
    total += p.requests();
  }
  if (!opt.trace) phases.resize(3);

  // ---- inputs (untimed): reference plants and trajectories
  std::vector<std::unique_ptr<oic::eval::PlantCase>> plants;
  double synth_ms = 0.0;
  const oic::cert::Provider timed = [&](const oic::cert::PlantModel& m) {
    const auto ts = Clock::now();
    auto c = oic::cert::synthesize(m);
    synth_ms += 1e3 * seconds_since(ts);
    return c;
  };
  for (const auto& id : serve_plants()) plants.push_back(registry.make_plant(id, timed));
  const auto tgen = Clock::now();
  const std::vector<SessionTrajectory> trajs =
      serve_trajectories(registry, plants, policies, opt.seed, kSessions, steps, threads);
  const double gen_s = seconds_since(tgen);

  // ---- canary: fixed-seed reference decisions ------------------------------
  {
    const std::string d = trajectory_digest(serve_trajectories(
        registry, plants, policies, kCanarySeed, kCanarySessions, kCanarySteps, threads));
    if (opt.write_digests) {
      write_digest(opt, "serve-open", d);
    } else if (d != read_digest(opt, "serve-open")) {
      out.fail("serve-open canary digest " + d + " differs from digests.txt");
    }
  }

  // ---- setup (timed, repeated): server start, listener, connect, opens ----
  const std::vector<Request> opens = open_batch(trajs, policies);
  std::vector<double> setup_s, open_ms;
  std::unique_ptr<oic::serve::Server> server;
  std::unique_ptr<oic::serve::SocketListener> listener;
  std::unique_ptr<oic::serve::SocketClient> client;
  bool opened_all = true;
  for (int k = 0; k < kSetups && opened_all; ++k) {
    client.reset();
    listener.reset();
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<oic::serve::Server>(registry, oic::serve::ServiceConfig{});
    listener = std::make_unique<oic::serve::SocketListener>(*server, 0);
    client = std::make_unique<oic::serve::SocketClient>("127.0.0.1", listener->port());
    const auto t1 = Clock::now();
    client->submit(opens);
    const std::vector<Response> opened = client->await(opens.size());
    open_ms.push_back(1e3 * seconds_since(t1) / static_cast<double>(kSessions));
    setup_s.push_back(seconds_since(t0));
    for (const auto& r : opened) {
      if (r.kind != Response::Kind::kOpened) {
        out.fail("serve-open: open failed: " + r.error);
        opened_all = false;
        break;
      }
    }
  }
  if (!opened_all) return out;

  // ---- timed phases -------------------------------------------------------------
  // The receive thread writes bad[ref] and then publishes recv_ns[ref] with
  // release order; readers load recv_ns first (acquire).  Responses that
  // arrive after a phase's drain timed out are read consistently or not at
  // all.
  std::vector<std::int64_t> sent_ns(total, 0);
  std::vector<std::atomic<std::int64_t>> recv_ns(total);
  std::vector<std::atomic<std::uint8_t>> bad(total);  // 1 = error, 2 = mismatch
  std::atomic<std::uint64_t> received{0};
  std::vector<std::vector<Request>> recorded;  // low-phase batches, for replay
  auto ref_location = [&](std::uint64_t ref, std::size_t& session, std::size_t& step) {
    std::size_t p = 0;
    while (p + 1 < phases.size() && phases[p + 1].first_ref <= ref) ++p;
    const std::size_t j = ref - phases[p].first_ref;
    session = j % kSessions;
    step = phases[p].first_step + j / kSessions;
    return p;
  };

  std::thread receiver([&] {
    std::vector<Response> res;
    while (client->await_any(res)) {
      const std::int64_t t = now_ns();
      for (const Response& r : res) {
        if (r.ref >= total) continue;
        std::size_t session, step;
        ref_location(r.ref, session, step);
        if (r.kind != Response::Kind::kDecision) {
          bad[r.ref].store(1, std::memory_order_relaxed);
        } else if (r.z != trajs[session].z[step] || r.forced != (trajs[session].forced[step] != 0)) {
          bad[r.ref].store(2, std::memory_order_relaxed);
        }
        recv_ns[r.ref].store(t, std::memory_order_release);
      }
      received.fetch_add(res.size(), std::memory_order_release);
    }
  });

  // Send one phase on the calling thread, then wait (bounded) for its
  // responses.
  std::uint64_t sent = 0;
  auto open_loop = [&](Phase& p, bool record) {
    p.start_ns = now_ns() + 2'000'000;  // 2 ms lead so the first batch is on time
    std::vector<Request> batch;
    std::size_t j = 0;
    const std::size_t n = p.requests();
    p.sent = n;
    while (j < n) {
      const std::int64_t now = now_ns();
      batch.clear();
      while (j < n && p.due(j) <= now && batch.size() < kMaxBatch) {
        const std::size_t ref = p.first_ref + j;
        batch.push_back(decide_request(trajs[j % kSessions], j % kSessions,
                                       p.first_step + j / kSessions, ref));
        ++j;
      }
      if (!batch.empty()) {
        const std::int64_t ts = now_ns();
        for (const Request& r : batch) sent_ns[r.ref] = ts;
        client->submit(batch);
        sent += batch.size();
        if (record) recorded.push_back(batch);
        continue;
      }
      const std::int64_t next = std::max(p.due(j), now + kSendQuantumNs);
      std::this_thread::sleep_for(std::chrono::nanoseconds(next - now_ns()));
    }
  };
  auto run_phase = [&](Phase& p, bool record) {
    open_loop(p, record);
    const auto wait_until = Clock::now() + std::chrono::seconds(1);
    while (received.load(std::memory_order_acquire) < sent && Clock::now() < wait_until) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  auto phase_stats = [&](const Phase& p) {
    PhaseStats s;
    s.part_ms.resize(kParts);
    std::vector<double> first_q, last_q;
    std::int64_t last_recv = 0;
    const std::size_t n = p.sent;
    std::vector<std::int64_t> recv(n);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t ref = p.first_ref + j;
      recv[j] = recv_ns[ref].load(std::memory_order_acquire);
      if (recv[j] == 0) {
        ++s.missing;
        continue;
      }
      const std::uint8_t b = bad[ref].load(std::memory_order_relaxed);
      if (b == 1) ++s.errors;
      if (b == 2) ++s.mismatches;
      last_recv = std::max(last_recv, recv[j]);
      s.roundtrip_ms.push_back(1e-6 * static_cast<double>(recv[j] - sent_ns[ref]));
      const double lat = 1e-6 * static_cast<double>(recv[j] - p.due(j));
      s.latency_ms.push_back(lat);
      s.part_ms[j * kParts / n].push_back(lat);
      s.lateness_ms.push_back(1e-6 * static_cast<double>(sent_ns[ref] - p.due(j)));
      if (j < n / 4) first_q.push_back(lat);
      if (j >= n - n / 4) last_q.push_back(lat);
    }
    s.backlog_grows = quantile(last_q, 0.5) > quantile(first_q, 0.5) + 1.0;
    const double span_s = 1e-9 * static_cast<double>(last_recv - p.start_ns);
    s.achieved_per_s = span_s > 0 ? static_cast<double>(s.roundtrip_ms.size()) / span_s : 0.0;
    return s;
  };

  // Every decision of the fixed-rate phases is an operation; ramp steps past
  // the knee are measurements, not checks.
  std::vector<PhaseStats> stats;
  double ramp_max = 0.0;
  std::string ramp_max_phase;
  try {
  for (std::size_t p = 0; p < phases.size(); ++p) {
    if (static_cast<int>(p) == opt.fail_phase) {
      throw std::runtime_error("injected before phase " + phases[p].name);
    }
    const bool ramp = opt.trace && p >= 3;
    run_phase(phases[p], p == 0 && opt.trace);
    stats.push_back(phase_stats(phases[p]));
    PhaseStats& s = stats.back();
    if (!ramp) {
      out.attempted += phases[p].sent;
      const std::uint64_t failed = s.errors + s.mismatches + s.missing;
      if (failed > 0) {
        out.fail("serve-open: phase " + phases[p].name + ": " + std::to_string(s.errors) +
                     " errors, " + std::to_string(s.mismatches) + " mismatches, " +
                     std::to_string(s.missing) + " unanswered",
                 failed);
      }
    }
    // Rates rise phase by phase; the ramp starts only if `high` held the
    // limit and stops at the first step that misses it.
    if (p >= 2 && opt.trace) {
      if (!s.pass()) break;
      ramp_max = s.achieved_per_s;
      ramp_max_phase = phases[p].name;
    }
  }
  } catch (const std::exception& e) {
    out.fail(std::string("serve-open: transport failed: ") + e.what());
  }
  // Stopping the listener shuts the server side of the connection, which
  // ends the receive thread even if responses are still outstanding (a
  // failed ramp step can leave the server's response queue far behind).
  listener->stop();
  receiver.join();
  client.reset();
  const oic::serve::ServiceCounters counters = server->counters();
  server.reset();
  // The metrics below read the three fixed-rate phases.
  if (stats.size() < 3) {
    out.fail("serve-open: stopped after " + std::to_string(stats.size()) + " of " +
             std::to_string(phases.size()) + " phases");
    return out;
  }

  out.set("setup_s", median_of(setup_s));
  if (opt.trace) out.set("serve.ramp.max_decisions_per_s", ramp_max);
  out.set("cert.synthesize_ms", synth_ms / static_cast<double>(plants.size()));
  out.set("serve.open_ms_per_session", median_of(open_ms));
  const char* fixed_names[] = {"low", "mid", "high"};
  for (int p = 0; p < 3; ++p) {
    out.set(std::string("serve.decision_p50_ms.") + fixed_names[p], stats[p].p50());
    out.set(std::string("serve.decision_p99_ms.") + fixed_names[p], stats[p].p99());
  }
  std::vector<double> lateness;
  for (int p = 0; p < 3; ++p) {
    lateness.insert(lateness.end(), stats[p].lateness_ms.begin(), stats[p].lateness_ms.end());
  }
  out.set("serve.loadgen.lateness_ms.p99", quantile(lateness, 0.99));
  out.set("serve.socket.roundtrip_ms.p50", quantile(stats[0].roundtrip_ms, 0.5));
  out.set("serve.socket.roundtrip_ms.p99", quantile(stats[0].roundtrip_ms, 0.99));

  // ---- in-process capacity (steps_per_s, step_iqm_us, step_p99_us) ------------
  // The `low` phase's requests, in batches of kCapacityBatch,
  // through the server's request path without the socket: RequestReader,
  // Service::serve, write_response_batch.  Every replay starts a fresh
  // Service with every session opened (untimed), so every replay does the
  // same work, batch for batch, and each batch keeps its fastest replay.
  // Every decision is checked against the reference.
  std::size_t replays = 0;
  if (!opt.trace) {
    const std::size_t n = phases[0].requests();
    std::vector<std::string> wire;  // encoded request batches (untimed input)
    for (std::size_t j0 = 0; j0 < n; j0 += kCapacityBatch) {
      std::vector<Request> batch;
      for (std::size_t j = j0; j < std::min(n, j0 + kCapacityBatch); ++j) {
        // `low` starts at step 0, so request j is session j % N at step j / N.
        batch.push_back(decide_request(trajs[j % kSessions], j % kSessions, j / kSessions, j));
      }
      std::ostringstream os;
      oic::serve::write_request_batch(batch, os);
      wire.push_back(os.str());
    }
    std::vector<double> best_ns(wire.size(), std::numeric_limits<double>::infinity());
    std::uint64_t decisions = 0, mismatches = 0;
    const auto deadline = Clock::now() + std::chrono::duration<double>(capacity_s);
    std::vector<Request> parsed;
    std::vector<Response> res;
    for (; replays < kMinReplays || Clock::now() < deadline; ++replays) {
      oic::serve::Service service(registry, oic::serve::ServiceConfig{});
      service.serve(opens, res);
      decisions = 0;
      for (std::size_t b = 0; b < wire.size(); ++b) {
        const std::int64_t t0 = now_ns();
        std::istringstream is(wire[b]);
        oic::serve::RequestReader reader(is);
        parsed.clear();
        reader.read(parsed);
        service.serve(parsed, res);
        std::ostringstream os;
        oic::serve::write_response_batch(res, os);
        best_ns[b] = std::min(best_ns[b], static_cast<double>(now_ns() - t0));
        for (const Response& r : res) {
          std::size_t session, step;
          ref_location(r.ref, session, step);
          if (r.kind != Response::Kind::kDecision || r.z != trajs[session].z[step] ||
              r.forced != (trajs[session].forced[step] != 0)) {
            ++mismatches;
          }
        }
        decisions += res.size();
      }
      out.attempted += decisions;
    }
    if (mismatches > 0) {
      out.fail("serve-open: in-process capacity replay differs from the reference",
               mismatches);
    }
    double pass_ns = 0.0;
    std::vector<double> batch_us;
    for (const double ns : best_ns) {
      pass_ns += ns;
      batch_us.push_back(1e-3 * ns);
    }
    out.set("steps_per_s", static_cast<double>(decisions) / (1e-9 * pass_ns));
    out.set("step_iqm_us", interquartile_mean(batch_us));
    out.set("step_p99_us", quantile(batch_us, 0.99));
  }

  // ---- traced replay: the recorded low-phase batches through the codec and
  // an in-process Service, untraced then traced --------------------------------
  if (opt.trace) {
    struct Replay {
      double total_ns = 0.0;
      std::uint64_t bytes = 0, mismatches = 0;
      oic::serve::ServiceCounters counters;
    };
    auto replay = [&](Tracer* tracer) {
      Replay result;
      oic::serve::Service service(registry, oic::serve::ServiceConfig{});
      std::vector<Response> res;
      service.serve(opens, res);
      Tracer scratch;
      Tracer& t = tracer ? *tracer : scratch;
      const std::uint32_t id_batch = t.intern("serve.batch"),
                          id_req_enc = t.intern("serve.api.request_encode"),
                          id_req_parse = t.intern("serve.api.request_parse"),
                          id_tick = t.intern("serve.service.tick"),
                          id_res_enc = t.intern("serve.api.response_encode"),
                          id_res_parse = t.intern("serve.api.response_parse");
      const std::int64_t t0 = now_ns();
      std::vector<Request> parsed;
      std::vector<Response> echoed;
      for (std::size_t b = 0; b < recorded.size(); ++b) {
        if (tracer) tracer->set_group(b);
        Scope batch(tracer, id_batch);
        std::string wire;
        {
          Scope s(tracer, id_req_enc);
          std::ostringstream os;
          oic::serve::write_request_batch(recorded[b], os);
          wire = os.str();
        }
        result.bytes += wire.size();
        {
          Scope s(tracer, id_req_parse);
          std::istringstream is(wire);
          oic::serve::RequestReader reader(is);
          parsed.clear();
          reader.read(parsed);
        }
        {
          Scope s(tracer, id_tick);
          service.serve(parsed, res);
        }
        std::string rwire;
        {
          Scope s(tracer, id_res_enc);
          std::ostringstream os;
          oic::serve::write_response_batch(res, os);
          rwire = os.str();
        }
        {
          Scope s(tracer, id_res_parse);
          std::istringstream is(rwire);
          oic::serve::ResponseReader reader(is);
          echoed.clear();
          reader.read(echoed);
        }
        for (const Response& r : echoed) {
          std::size_t session, step;
          ref_location(r.ref, session, step);
          if (r.kind != Response::Kind::kDecision || r.z != trajs[session].z[step] ||
              r.forced != (trajs[session].forced[step] != 0)) {
            ++result.mismatches;
          }
        }
      }
      result.total_ns = static_cast<double>(now_ns() - t0);
      result.counters = service.counters();
      return result;
    };
    const Replay plain = replay(nullptr);
    Tracer tracer;
    const Replay traced = replay(&tracer);
    if (plain.mismatches + traced.mismatches > 0) {
      out.fail("serve-open: in-process replay differs from the reference",
               plain.mismatches + traced.mismatches);
    }
    const oic::serve::ServiceCounters& c1 = traced.counters;
    const LayerTimes lt = layer_times(tracer);
    double requests = 0.0;
    for (const auto& b : recorded) requests += static_cast<double>(b.size());
    const double batches = static_cast<double>(recorded.size());
    auto per_req = [&](const char* name) { return lt.self(name) / requests; };
    out.set("serve.api.request_encode_ns", per_req("serve.api.request_encode"));
    out.set("serve.api.request_parse_ns", per_req("serve.api.request_parse"));
    out.set("serve.api.response_encode_ns", per_req("serve.api.response_encode"));
    out.set("serve.api.response_parse_ns", per_req("serve.api.response_parse"));
    out.set("serve.api.request_bytes", static_cast<double>(traced.bytes) / requests);
    out.set("serve.service.tick_ns_per_decision",
            lt.self("serve.service.tick") / static_cast<double>(c1.decisions));
    out.set("serve.service.decisions_per_tick", static_cast<double>(c1.decisions) / batches);
    out.set("serve.service.burst_frac",
            static_cast<double>(c1.burst_skips) / static_cast<double>(c1.decisions));
    out.set("eval.other_ns_per_step", per_req("serve.batch"));
    const double per_batch_ms = 1e-6 * (lt.total_ns - lt.self("serve.batch")) / batches;
    out.set("serve.server.queue_ms",
            std::max(1e-6, quantile(stats[0].roundtrip_ms, 0.5) - per_batch_ms));
    out.set("trace.steps", requests);
    out.set("trace.total_ns_per_step", lt.total_ns / requests);
    out.set("trace.overhead_ratio", lt.total_ns / plain.total_ns);
    out.set("core.skip_frac",
            static_cast<double>(c1.skipped) / static_cast<double>(c1.decisions));
    out.set("core.forced_frac",
            static_cast<double>(c1.forced) / static_cast<double>(c1.decisions));
    check_reconciliation(lt, "serve.batch", out);
  }

  std::string phases_json = "[";
  for (std::size_t p = 0; p < stats.size(); ++p) {
    PhaseStats& s = stats[p];
    if (p) phases_json += ", ";
    phases_json += "{\"name\": " + json_str(phases[p].name) +
                   ", \"offered_per_s\": " + json_num(phases[p].rate_hz * kSessions) +
                   ", \"achieved_per_s\": " + json_num(s.achieved_per_s) +
                   ", \"p50_ms\": " + json_num(s.p50()) + ", \"p99_ms\": " +
                   json_num(s.p99()) + ", \"lateness_p99_ms\": " +
                   json_num(quantile(s.lateness_ms, 0.99)) + ", \"part_p99_ms\": [";
    for (std::size_t k = 0; k < s.part_ms.size(); ++k) {
      phases_json += (k ? ", " : "") + json_num(quantile(s.part_ms[k], 0.99));
    }
    phases_json += "], \"samples\": " +
                   std::to_string(s.latency_ms.size()) + ", \"errors\": " +
                   std::to_string(s.errors) + ", \"mismatches\": " +
                   std::to_string(s.mismatches) + ", \"backlog_grows\": " +
                   (s.backlog_grows ? "true" : "false") + ", \"pass\": " +
                   (s.pass() ? "true" : "false") + "}";
  }
  phases_json += "]";
  out.detail_json = "{\"sessions\": " + std::to_string(kSessions) +
                    ", \"trajectory_steps\": " + std::to_string(steps) +
                    ", \"input_generation_s\": " + json_num(gen_s) +
                    ", \"ramp_max_phase\": " + json_str(ramp_max_phase) +
                    ", \"capacity_replays\": " + std::to_string(replays) +
                    ", \"server_decisions\": " + std::to_string(counters.decisions) +
                    ", \"server_errors\": " + std::to_string(counters.errors) +
                    ", \"digest\": " + json_str(trajectory_digest(trajs)) +
                    ", \"phases\": " + phases_json + "}";
  return out;
}

}  // namespace perfbench
