#pragma once
/// \file drivers.hpp
/// Decorators over the two plug points of Algorithm 1 (the safe controller
/// kappa and the skip policy Omega) and the traced episode driver that
/// rebuilds eval::EpisodeEngine::run / run_faulted from public calls.
///
/// With a null tracer every decorator is a pass-through, so a driver built
/// on them must reproduce the engine's EpisodeResult bit for bit; the
/// self-tests and every traced run check exactly that.

#include <cstdint>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "control/tube_mpc.hpp"
#include "core/intermittent.hpp"
#include "core/policy.hpp"
#include "eval/harness.hpp"
#include "fault/fault.hpp"
#include "trace.hpp"

namespace perfbench {

/// kappa decorator: times TubeMpc::control under one of three span names,
/// by what the previous step did: `control.mpc.consecutive` (the previous
/// step also solved), `control.mpc.after_skip` (first solve after >= 1
/// skipped step), `control.mpc.cold` (first step of an episode).
class TracedController final : public oic::control::Controller {
 public:
  TracedController(oic::control::Controller& inner, Tracer* tracer);

  /// Per-episode and per-step bookkeeping from the driver.
  void begin_episode() { last_solve_step_ = kNever; }
  void begin_step(std::size_t t) { step_ = t; }

  oic::linalg::Vector control(const oic::linalg::Vector& x) override;
  std::size_t state_dim() const override { return inner_.state_dim(); }
  std::size_t input_dim() const override { return inner_.input_dim(); }
  std::string name() const override { return inner_.name(); }

 private:
  static constexpr std::size_t kNever = static_cast<std::size_t>(-1);
  oic::control::Controller& inner_;
  Tracer* tracer_;
  std::uint32_t id_consecutive_ = 0, id_after_skip_ = 0, id_cold_ = 0;
  std::size_t step_ = 0;
  std::size_t last_solve_step_ = kNever;
};

/// Omega decorator: times SkipPolicy::decide as `rl.forward` for trained
/// agents (the DQN forward pass) and `core.policy` otherwise.
class TracedPolicy final : public oic::core::SkipPolicy {
 public:
  TracedPolicy(oic::core::SkipPolicy& inner, Tracer* tracer);

  int decide(const oic::linalg::Vector& x, const oic::core::WHistory& w) override {
    Scope s(tracer_, id_);
    return inner_.decide(x, w);
  }
  void reset() override { inner_.reset(); }
  std::string name() const override { return inner_.name(); }
  std::size_t burst_depth() const override { return inner_.burst_depth(); }

 private:
  oic::core::SkipPolicy& inner_;
  Tracer* tracer_;
  std::uint32_t id_ = 0;
};

/// The traced episode driver: EpisodeEngine's loop rebuilt from
/// IntermittentController (with decorated kappa and Omega),
/// AffineLTI::step_into, HPolytope::contains and fault::Link, each call
/// wrapped in a span.  Not thread-safe; one per policy.
class TracedEpisodeDriver {
 public:
  TracedEpisodeDriver(const oic::eval::PlantCase& plant, oic::core::SkipPolicy& policy,
                      const oic::fault::FaultSpec& faults, Tracer* tracer);

  TracedEpisodeDriver(const TracedEpisodeDriver&) = delete;
  TracedEpisodeDriver& operator=(const TracedEpisodeDriver&) = delete;

  /// One episode; all its spans carry `group`.
  oic::eval::EpisodeResult run(const oic::eval::CaseData& data, std::uint64_t group);

 private:
  oic::eval::EpisodeResult run_faulted(const oic::eval::CaseData& data);

  const oic::eval::PlantCase& plant_;
  Tracer* tracer_;
  oic::control::TubeMpc rmpc_;
  TracedController kappa_;
  TracedPolicy omega_;
  oic::core::IntermittentController ic_;
  oic::fault::Link link_;
  oic::linalg::Vector x_, x_next_, w_, prev_meas_x_, prev_u_cmd_;
  std::uint32_t id_episode_ = 0, id_decide_ = 0, id_step_ = 0, id_record_ = 0,
                id_contains_ = 0, id_link_ = 0;
};

/// Bitwise equality of two episode results (every field).
bool same_result(const oic::eval::EpisodeResult& a, const oic::eval::EpisodeResult& b);

/// Digest contribution of one episode: (fuel to 9 significant digits,
/// skipped, forced), the quantities the paper reports per episode.
void digest_episode(Digest& d, const oic::eval::EpisodeResult& r);

/// Per-layer metrics of a traced episode pass: per-call and per-step self
/// times of every span name the driver records, the step counts behind
/// them, the reconciliation (check_reconciliation, with eval.episode as the
/// root), and the tracing overhead against `untraced_ns`, the untraced time
/// of the same episodes.
void report_episode_layers(const Tracer& tracer,
                           const std::vector<oic::eval::EpisodeResult>& traced,
                           double untraced_ns, Outcome& out);

}  // namespace perfbench
