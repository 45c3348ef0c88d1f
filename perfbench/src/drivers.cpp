#include "drivers.hpp"

#include <cstdio>
#include <cstring>

#include "common/error.hpp"
#include "core/drl_policy.hpp"

namespace perfbench {

using oic::linalg::Vector;

TracedController::TracedController(oic::control::Controller& inner, Tracer* tracer)
    : inner_(inner), tracer_(tracer) {
  if (tracer_) {
    id_consecutive_ = tracer_->intern("control.mpc.consecutive");
    id_after_skip_ = tracer_->intern("control.mpc.after_skip");
    id_cold_ = tracer_->intern("control.mpc.cold");
  }
}

Vector TracedController::control(const Vector& x) {
  count_invocation();
  const std::uint32_t id = last_solve_step_ == kNever      ? id_cold_
                           : last_solve_step_ + 1 == step_ ? id_consecutive_
                                                           : id_after_skip_;
  last_solve_step_ = step_;
  Scope s(tracer_, id);
  return inner_.control(x);
}

TracedPolicy::TracedPolicy(oic::core::SkipPolicy& inner, Tracer* tracer)
    : inner_(inner), tracer_(tracer) {
  if (tracer_) {
    const bool learned = dynamic_cast<oic::core::DrlPolicy*>(&inner) != nullptr;
    id_ = tracer_->intern(learned ? "rl.forward" : "core.policy");
  }
}

TracedEpisodeDriver::TracedEpisodeDriver(const oic::eval::PlantCase& plant,
                                         oic::core::SkipPolicy& policy,
                                         const oic::fault::FaultSpec& faults,
                                         Tracer* tracer)
    : plant_(plant),
      tracer_(tracer),
      rmpc_(plant.rmpc()),
      kappa_(rmpc_, tracer),
      omega_(policy, tracer),
      ic_(plant.system(), plant.sets(), kappa_, omega_,
          oic::eval::make_intermittent_config(plant, omega_, faults.active())),
      link_(faults, 0),
      w_(plant.system().nw()) {
  if (tracer_) {
    id_episode_ = tracer_->intern("eval.episode");
    id_decide_ = tracer_->intern("core.decide");
    id_step_ = tracer_->intern("control.lti_step");
    id_record_ = tracer_->intern("core.record");
    id_contains_ = tracer_->intern("poly.contains");
    id_link_ = tracer_->intern("fault.link");
  }
}

oic::eval::EpisodeResult TracedEpisodeDriver::run(const oic::eval::CaseData& data,
                                                  std::uint64_t group) {
  OIC_REQUIRE(!data.signal.empty(), "TracedEpisodeDriver::run: empty case");
  if (tracer_) tracer_->set_group(group);
  Scope episode(tracer_, id_episode_);
  kappa_.begin_episode();
  if (link_.active()) return run_faulted(data);
  ic_.reset();
  ic_.reset_stats();
  rmpc_.reset_solver();

  const oic::control::AffineLTI& sys = plant_.system();
  oic::eval::EpisodeResult out;
  x_ = data.x0;
  for (std::size_t t = 0; t < data.signal.size(); ++t) {
    kappa_.begin_step(t);
    oic::core::StepDecision d;
    {
      Scope s(tracer_, id_decide_);
      d = ic_.decide(x_);
    }
    plant_.signal_to_w(data.signal[t], w_);
    {
      Scope s(tracer_, id_step_);
      sys.step_into(x_, d.u, w_, x_next_);
    }
    {
      Scope s(tracer_, id_record_);
      ic_.record_transition(x_, d.u, x_next_);
    }
    out.fuel += plant_.cost_step(x_, d.u, d.z == 1);
    out.energy += plant_.energy_raw(d.u);
    {
      Scope s(tracer_, id_contains_);
      if (!out.left_xi && !ic_.sets().xi.contains(x_next_, 1e-6)) out.left_xi = true;
      if (!out.left_x && !ic_.sets().x.contains(x_next_, 1e-6)) out.left_x = true;
    }
    x_ = x_next_;
  }
  out.skipped = ic_.skipped_steps();
  out.forced = ic_.forced_steps();
  out.steps = data.signal.size();
  return out;
}

oic::eval::EpisodeResult TracedEpisodeDriver::run_faulted(const oic::eval::CaseData& data) {
  ic_.reset();
  ic_.reset_stats();
  rmpc_.reset_solver();
  link_.reset(data.fault_stream);
  ic_.seed_state(data.x0);

  const oic::control::AffineLTI& sys = plant_.system();
  oic::eval::EpisodeResult out;
  x_ = data.x0;
  oic::core::MeasuredState m;
  bool prev_fresh = false;
  for (std::size_t t = 0; t < data.signal.size(); ++t) {
    kappa_.begin_step(t);
    const oic::fault::Measurement* meas;
    {
      Scope s(tracer_, id_link_);
      meas = &link_.sense_and_observe(t, x_);
    }
    const bool fresh = meas->available && meas->age == 0;
    if (fresh && prev_fresh) {
      Scope s(tracer_, id_record_);
      ic_.record_transition(prev_meas_x_, prev_u_cmd_, meas->x);
    }
    m.available = meas->available;
    m.age = meas->age;
    if (meas->available) m.x = meas->x;

    bool policy_ok;
    {
      Scope s(tracer_, id_link_);
      policy_ok = link_.policy_available(t);
    }
    oic::core::StepDecision d;
    {
      Scope s(tracer_, id_decide_);
      d = ic_.decide_measured(m, policy_ok);
    }
    const Vector* u_applied;
    {
      Scope s(tracer_, id_link_);
      u_applied = &link_.actuate(t, d.u);
    }
    plant_.signal_to_w(data.signal[t], w_);
    {
      Scope s(tracer_, id_step_);
      sys.step_into(x_, *u_applied, w_, x_next_);
    }
    out.fuel += plant_.cost_step(x_, *u_applied, d.z == 1);
    out.energy += plant_.energy_raw(*u_applied);
    {
      Scope s(tracer_, id_contains_);
      if (!out.left_xi && !ic_.sets().xi.contains(x_next_, 1e-6)) out.left_xi = true;
      if (!out.left_x && !ic_.sets().x.contains(x_next_, 1e-6)) out.left_x = true;
    }
    prev_fresh = fresh;
    if (fresh) {
      prev_meas_x_ = meas->x;
      prev_u_cmd_ = d.u;
    }
    x_ = x_next_;
  }
  out.skipped = ic_.skipped_steps();
  out.forced = ic_.forced_steps();
  out.steps = data.signal.size();
  out.degraded_steps = ic_.degraded_steps();
  out.stale_forced = ic_.stale_forced();
  out.policy_unavail = ic_.policy_unavail();
  out.meas_dropped = link_.meas_dropped();
  out.act_dropped = link_.act_dropped();
  return out;
}

bool same_result(const oic::eval::EpisodeResult& a, const oic::eval::EpisodeResult& b) {
  return std::memcmp(&a.fuel, &b.fuel, sizeof(double)) == 0 &&
         std::memcmp(&a.energy, &b.energy, sizeof(double)) == 0 &&
         a.skipped == b.skipped && a.forced == b.forced && a.steps == b.steps &&
         a.left_x == b.left_x && a.left_xi == b.left_xi &&
         a.degraded_steps == b.degraded_steps && a.stale_forced == b.stale_forced &&
         a.policy_unavail == b.policy_unavail && a.meas_dropped == b.meas_dropped &&
         a.act_dropped == b.act_dropped;
}

void digest_episode(Digest& d, const oic::eval::EpisodeResult& r) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9e", r.fuel);
  d.bytes(buf, std::strlen(buf));
  d.u64(r.skipped);
  d.u64(r.forced);
}

void report_episode_layers(const Tracer& tracer,
                           const std::vector<oic::eval::EpisodeResult>& traced,
                           double untraced_ns, Outcome& out) {
  const LayerTimes lt = layer_times(tracer);
  double steps = 0.0, skipped = 0.0, forced = 0.0, degraded = 0.0;
  for (const auto& r : traced) {
    steps += static_cast<double>(r.steps);
    skipped += static_cast<double>(r.skipped);
    forced += static_cast<double>(r.forced);
    degraded += static_cast<double>(r.degraded_steps);
  }
  if (steps <= 0.0 || lt.total_ns <= 0.0) {
    out.fail("traced pass recorded no steps");
    return;
  }
  auto per_call = [&](const std::string& name) {
    const auto n = lt.spans(name);
    return n ? lt.self(name) / static_cast<double>(n) : 0.0;
  };
  auto per_step = [&](const std::string& name) { return lt.self(name) / steps; };
  const double mpc_calls = static_cast<double>(lt.spans("control.mpc.consecutive") +
                                               lt.spans("control.mpc.after_skip") +
                                               lt.spans("control.mpc.cold"));
  out.set("control.mpc_ns_per_call.consecutive", per_call("control.mpc.consecutive"));
  out.set("control.mpc_ns_per_call.after_skip", per_call("control.mpc.after_skip"));
  out.set("control.mpc_ns_per_call.cold", per_call("control.mpc.cold"));
  out.set("control.mpc_ns_per_step",
          per_step("control.mpc.consecutive") + per_step("control.mpc.after_skip") +
              per_step("control.mpc.cold"));
  out.set("control.mpc_calls_per_step", mpc_calls / steps);
  out.set("control.lti_step_ns", per_call("control.lti_step"));
  out.set("core.decide_self_ns", per_call("core.decide"));
  out.set("core.record_ns", per_call("core.record"));
  out.set("core.policy_ns_per_call", per_call("core.policy"));
  out.set("core.policy_calls_per_step",
          static_cast<double>(lt.spans("core.policy") + lt.spans("rl.forward")) / steps);
  out.set("core.skip_frac", skipped / steps);
  out.set("core.forced_frac", forced / steps);
  out.set("core.degraded_frac", degraded / steps);
  out.set("rl.forward_ns_per_call", per_call("rl.forward"));
  out.set("poly.contains_ns_per_step", per_step("poly.contains"));
  out.set("fault.link_ns_per_step", per_step("fault.link"));
  out.set("mc.episode_draw_ns", per_call("mc.episode_draw"));
  out.set("eval.other_ns_per_step", per_step("eval.episode"));
  out.set("trace.steps", steps);
  out.set("trace.total_ns_per_step", lt.total_ns / steps);
  if (untraced_ns > 0.0) out.set("trace.overhead_ratio", lt.total_ns / untraced_ns);
  check_reconciliation(lt, "eval.episode", out);
}

}  // namespace perfbench
