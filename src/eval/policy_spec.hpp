#pragma once
/// \file policy_spec.hpp
/// The one authoritative definition of the policy spec grammar every
/// surface shares (oic_eval/oic_mc/oic_train CLIs, the serve layer, the
/// test suite).  A spec is a single whitespace-free token:
///
///   always-run        transmit every period (the baseline)
///   bang-bang         skip whenever the monitor allows it
///   periodic-N        transmit every N-th period (N >= 1, digits only)
///   burst:<k>         bang-bang plus certified k-step burst requests
///                     (k >= 1; clamped to the plant's ladder depth)
///   drl:<path>        trained skipping agent (an `oic-agent v1` file)
///
/// parse_policy_spec classifies a spec without touching the filesystem, so
/// the wire/CLI layers can validate grammar cheaply; make_policy performs
/// the classification *and* materializes the policy (loading the agent
/// file for drl specs).  Malformed specs raise PreconditionError with a
/// message naming the offending payload, never a silent fallback.

#include <cstddef>
#include <memory>
#include <string>

#include "core/policy.hpp"

namespace oic::core {
class DrlPolicy;
}  // namespace oic::core

namespace oic::eval {

/// Structured form of one policy spec token.
struct PolicySpec {
  enum class Kind { kAlwaysRun, kBangBang, kPeriodic, kBurst, kDrl };
  Kind kind = Kind::kAlwaysRun;
  std::size_t count = 0;  ///< periodic-N period or burst:<k> depth
  std::string path;       ///< drl:<path> agent file
  std::string text;       ///< the original spec, verbatim
};

/// Classify one spec per the file grammar.  Pure string parsing -- a
/// `drl:<path>` spec is accepted without opening the file.  Throws
/// PreconditionError naming the malformed part otherwise.
PolicySpec parse_policy_spec(const std::string& spec);

/// Parse and materialize one policy.  For drl specs this loads and
/// validates the agent file (dimension/scale checks).  Throws
/// PreconditionError on malformed specs or unloadable agents.
std::unique_ptr<core::SkipPolicy> make_policy(const std::string& spec);

/// make_policy for a drl:<path> spec.  With `plant_id` set the agent is
/// also checked against the nx-state plant it will drive: an agent
/// recorded as trained on another plant, or whose input is not
/// {x, r disturbance observations}, is rejected.  Throws PreconditionError
/// naming the mismatch.
std::unique_ptr<core::DrlPolicy> make_drl_policy(const PolicySpec& spec,
                                                 const std::string* plant_id = nullptr,
                                                 std::size_t nx = 0);

}  // namespace oic::eval
