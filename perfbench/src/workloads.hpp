#pragma once
/// \file workloads.hpp
/// The three benchmark workloads and their seeded input generators.
///
/// Inputs are a pure function of (seed, sizes): the workload seed is a
/// benchmark argument and the program under test only ever sees the
/// generated cases, campaign specs and request trajectories.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "eval/harness.hpp"
#include "eval/registry.hpp"
#include "mc/campaign.hpp"

namespace perfbench {

// ---- acc-sweep --------------------------------------------------------------

/// Policies of the acc-sweep workload (always-run is the baseline).
const std::vector<std::string>& acc_policies();

/// `n` Fig.4 cases of `steps` periods on the ACC plant.
std::vector<oic::eval::CaseData> acc_cases(const oic::eval::PlantCase& acc,
                                           std::uint64_t seed, std::size_t n,
                                           std::size_t steps = 100);

Outcome run_acc_sweep(const Options& opt);

// ---- drl-campaign -------------------------------------------------------------

/// Path of the committed toy2d agent, relative to the checkout root.
inline constexpr const char* kAgentPath = "perfbench/agent/toy2d.agent";

/// Campaign spec of one drl-campaign round: toy2d, family `mixed`, policies
/// drl:<agent> and bang-bang, fault preset `overloaded`, 2 workers.
oic::mc::CampaignSpec campaign_spec(const std::string& agent_path, std::uint64_t seed,
                                    std::uint64_t round, std::uint64_t episodes);

/// Digest of campaign statistics (counts exactly, moments to 9 digits).
std::string campaign_digest(const oic::mc::CampaignResult& r);

Outcome run_drl_campaign(const Options& opt);

// ---- serve-open ---------------------------------------------------------------

/// Reference decisions and replay data of one session: the state it sends
/// at each period, the input it actuated in the period before, and the
/// reference (z, forced) the per-session IntermittentController produced
/// with RMPC actuation.
struct SessionTrajectory {
  std::size_t plant = 0;   ///< index into serve_plants()
  std::size_t policy = 0;  ///< index into the policy spec list
  std::size_t nx = 0, nu = 0;
  std::vector<double> x;   ///< steps * nx
  std::vector<double> u;   ///< steps * nu (row t = input actuated at t - 1)
  std::vector<std::uint8_t> z, forced;
};

/// Plants of serve-open, in session round-robin order.
const std::vector<std::string>& serve_plants();

/// Policy specs of serve-open, in session round-robin order.
std::vector<std::string> serve_policies(const std::string& agent_path);

/// Precompute `sessions` reference trajectories of `steps` periods
/// (parallel over `threads`; identical for any thread count).
std::vector<SessionTrajectory> serve_trajectories(
    const oic::eval::ScenarioRegistry& registry,
    const std::vector<std::unique_ptr<oic::eval::PlantCase>>& plants,
    const std::vector<std::string>& policies, std::uint64_t seed,
    std::size_t sessions, std::size_t steps, std::size_t threads);

/// Digest of the (z, forced) streams.
std::string trajectory_digest(const std::vector<SessionTrajectory>& trajs);

Outcome run_serve_open(const Options& opt);

}  // namespace perfbench
