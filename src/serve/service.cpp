#include "serve/service.hpp"

#include <utility>

#include "cert/io.hpp"
#include "common/error.hpp"
#include "core/drl_policy.hpp"
#include "core/monitor.hpp"
#include "eval/harness.hpp"
#include "linalg/kernels.hpp"

namespace oic::serve {

namespace {

/// Bitwise equality of two agents -- the hot-reload guard (a rewritten
/// file with identical parameters must not count as a swap).
bool same_agent(const core::DrlPolicy& a, const core::DrlPolicy& b) {
  const rl::Mlp& na = a.network();
  const rl::Mlp& nb = b.network();
  if (a.memory() != b.memory() || !cert::bit_equal(a.state_scale(), b.state_scale()) ||
      na.sizes() != nb.sizes()) {
    return false;
  }
  for (std::size_t l = 0; l < na.num_layers(); ++l) {
    if (!cert::bit_equal(na.weight(l), nb.weight(l)) ||
        !cert::bit_equal(na.bias(l), nb.bias(l))) {
      return false;
    }
  }
  return true;
}

}  // namespace

struct Service::PlantEntry {
  cert::PlantModel model;
  cert::PlantCertificate cert;
};

struct Service::Group {
  std::string plant_id;
  eval::PolicySpec spec;
  PlantEntry* plant = nullptr;

  /// Omega of every session in the group, except periodic sessions, which
  /// each own one (the duty-cycle clock is per session).
  std::unique_ptr<core::SkipPolicy> omega;
  /// `omega` when it is a DRL agent: its consultations run batched.
  core::DrlPolicy* drl = nullptr;
  /// Deepest certifiable burst, min(omega's burst depth, ladder size);
  /// recomputed on certificate hot-swap (the ladder may change depth).
  std::size_t max_burst = 0;

  // Per-tick SoA scratch, grown on demand and reused allocation-free.
  linalg::Matrix xbatch;           ///< pending states, one per row
  std::vector<double> xi_viol;     ///< batched XI violations
  std::vector<double> xp_viol;     ///< batched X' violations
  std::vector<core::DrlPolicy::Query> queries;  ///< DRL rows Omega decides
  std::vector<int> drl_z;          ///< their batched answers, row order

  struct PendingDecide {
    std::uint64_t session = 0;
    Session* state = nullptr;  ///< node-stable: unordered_map never moves it
    std::size_t out_index = 0;
    const Request* req = nullptr;
  };
  std::vector<PendingDecide> pending;

  // Per-tick side-effect buffer: run_group may execute on a tick-pool
  // worker concurrently with other groups, so counter bumps and
  // XI-violation session closures are staged here and merged into the
  // shared state in deterministic group order after the join.
  ServiceCounters tick_counters;
  std::vector<std::uint64_t> tick_closed;
};

Service::Service(const eval::ScenarioRegistry& registry, ServiceConfig config)
    : registry_(registry), config_(std::move(config)) {
  if (!config_.cert_dir.empty()) {
    store_ = std::make_unique<cert::Store>(config_.cert_dir);
    provider_ = store_->provider();
  }
  if (config_.tick_workers != 1) {
    tick_pool_ = std::make_unique<ThreadPool>(config_.tick_workers);
  }
}

Service::~Service() = default;

Service::PlantEntry* Service::resolve_plant(const std::string& plant_id,
                                            std::string& error) {
  auto it = plants_.find(plant_id);
  if (it != plants_.end()) return it->second.get();
  try {
    auto entry = std::make_unique<PlantEntry>(
        PlantEntry{registry_.make_model(plant_id), cert::PlantCertificate{}});
    entry->cert = cert::resolve(entry->model, provider_);
    PlantEntry* raw = entry.get();
    plants_.emplace(plant_id, std::move(entry));
    return raw;
  } catch (const Error& e) {
    error = e.what();
    return nullptr;
  }
}

std::size_t Service::resolve_group(const std::string& plant_id,
                                   const std::string& policy, std::string& error) {
  const std::string key = plant_id + '\n' + policy;
  auto it = group_index_.find(key);
  if (it != group_index_.end()) return it->second;

  eval::PolicySpec spec;
  try {
    spec = eval::parse_policy_spec(policy);
  } catch (const Error& e) {
    error = e.what();
    return kNoGroup;
  }
  PlantEntry* plant = resolve_plant(plant_id, error);
  if (plant == nullptr) return kNoGroup;

  auto group = std::make_unique<Group>();
  group->plant_id = plant_id;
  group->spec = spec;
  group->plant = plant;
  try {
    if (spec.kind == eval::PolicySpec::Kind::kDrl) {
      std::unique_ptr<core::DrlPolicy> drl =
          eval::make_drl_policy(spec, &plant_id, plant->model.sys.nx());
      group->drl = drl.get();
      group->omega = std::move(drl);
    } else {
      group->omega = eval::make_policy(policy);
    }
  } catch (const Error& e) {
    error = e.what();
    return kNoGroup;
  }
  if (const std::size_t depth = group->omega->burst_depth(); depth >= 1) {
    // Burst serving needs the certificate's k-step skip ladder -- the
    // same precondition the per-session IntermittentController enforces.
    if (plant->cert.ladder.empty()) {
      error = "policy '" + policy + "': plant '" + plant_id +
              "' has no certified skip ladder (burst mode needs one)";
      return kNoGroup;
    }
    group->max_burst = std::min(depth, plant->cert.ladder.size());
  }
  groups_.push_back(std::move(group));
  group_index_.emplace(key, groups_.size() - 1);
  return groups_.size() - 1;
}

void Service::reload(std::uint64_t& certs_swapped, std::uint64_t& agents_swapped) {
  if (store_) {
    for (auto& [id, entry] : plants_) {
      auto fresh = store_->load_if_fresh(entry->model);
      if (fresh && !cert::bit_equal(*fresh, entry->cert)) {
        entry->cert = std::move(*fresh);
        ++certs_swapped;
      }
    }
    // A swapped certificate may carry a shallower (or deeper) ladder:
    // re-clamp every group's burst ceiling so countdown starts never index
    // past the live ladder.  Running countdowns stay valid -- they were
    // certified against the rung that was live when they started.
    for (auto& group : groups_) {
      group->max_burst =
          std::min(group->omega->burst_depth(), group->plant->cert.ladder.size());
    }
  }
  for (auto& group : groups_) {
    if (group->drl == nullptr) continue;
    try {
      std::unique_ptr<core::DrlPolicy> fresh = eval::make_drl_policy(
          group->spec, &group->plant_id, group->plant->model.sys.nx());
      if (same_agent(*fresh, *group->drl)) continue;
      group->drl = fresh.get();
      group->omega = std::move(fresh);
      ++agents_swapped;
    } catch (const Error&) {
      // Unreadable, malformed or misfit rewrite: keep serving the loaded
      // agent; sessions keep running.
    }
  }
}

void Service::serve(const std::vector<Request>& in, std::vector<Response>& out) {
  out.assign(in.size(), Response{});
  ++tick_serial_;

  auto fail = [&](Response& res, std::string msg) {
    res.kind = Response::Kind::kError;
    res.error = std::move(msg);
    ++counters_.errors;
  };

  // Phase 1: session-table mutations and decide validation, request order.
  for (std::size_t i = 0; i < in.size(); ++i) {
    const Request& r = in[i];
    Response& res = out[i];
    res.ref = r.ref;
    res.session = r.session;
    switch (r.kind) {
      case Request::Kind::kOpen: {
        if (sessions_.count(r.session) != 0) {
          fail(res, "session " + std::to_string(r.session) + " is already open");
          break;
        }
        if (sessions_.size() >= config_.max_sessions) {
          fail(res, "session table is full (" +
                        std::to_string(config_.max_sessions) + " sessions)");
          break;
        }
        std::string error;
        const std::size_t gidx = resolve_group(r.plant, r.policy, error);
        if (gidx == kNoGroup) {
          fail(res, std::move(error));
          break;
        }
        Session session;
        session.group = gidx;
        session.whist.set_capacity(eval::kEpisodeWMemory);
        if (groups_[gidx]->spec.kind == eval::PolicySpec::Kind::kPeriodic) {
          session.policy =
              std::make_unique<core::PeriodicPolicy>(groups_[gidx]->spec.count);
        }
        sessions_.emplace(r.session, std::move(session));
        res.kind = Response::Kind::kOpened;
        break;
      }
      case Request::Kind::kClose: {
        auto it = sessions_.find(r.session);
        if (it == sessions_.end()) {
          fail(res, "unknown session " + std::to_string(r.session));
          break;
        }
        // A decide queued earlier in this batch must not run against the
        // erased session (or against a fresh one reopened under the same id
        // later in the batch): fail it and drop it from its group.
        Group& group = *groups_[it->second.group];
        for (auto pit = group.pending.begin(); pit != group.pending.end(); ++pit) {
          if (pit->session == r.session) {
            fail(out[pit->out_index],
                 "session " + std::to_string(r.session) +
                     " was closed later in the same batch before its decision ran");
            group.pending.erase(pit);
            break;  // phase-1 dup check guarantees at most one pending entry
          }
        }
        sessions_.erase(it);
        res.kind = Response::Kind::kClosed;
        break;
      }
      case Request::Kind::kReload: {
        ++counters_.reloads;
        std::uint64_t certs = 0, agents = 0;
        reload(certs, agents);
        counters_.cert_swaps += certs;
        counters_.agent_swaps += agents;
        res.kind = Response::Kind::kReloaded;
        res.certs = certs;
        res.agents = agents;
        break;
      }
      case Request::Kind::kDecide: {
        auto it = sessions_.find(r.session);
        if (it == sessions_.end()) {
          fail(res, "unknown session " + std::to_string(r.session));
          break;
        }
        Session& session = it->second;
        Group& group = *groups_[session.group];
        const control::AffineLTI& sys = group.plant->model.sys;
        if (r.x.size() != sys.nx()) {
          fail(res, "state dimension mismatch (expected " +
                        std::to_string(sys.nx()) + ", got " +
                        std::to_string(r.x.size()) + ")");
          break;
        }
        if (session.last_decide_tick == tick_serial_) {
          fail(res, "session " + std::to_string(r.session) +
                        " already has a pending decision in this batch");
          break;
        }
        if (!session.seeded) {
          if (r.has_u) {
            fail(res, "first decide of a session must not carry u");
            break;
          }
          session.seeded = true;
          session.x_prev = r.x;
        } else {
          if (!r.has_u) {
            fail(res, "decide must carry the previously actuated input u");
            break;
          }
          if (r.u.size() != sys.nu()) {
            fail(res, "input dimension mismatch (expected " +
                          std::to_string(sys.nu()) + ", got " +
                          std::to_string(r.u.size()) + ")");
            break;
          }
          core::record_disturbance(sys, session.x_prev, r.u, r.x, session.ew_scratch,
                                   session.whist);
          session.x_prev = r.x;
        }
        session.last_decide_tick = tick_serial_;
        if (session.burst_remaining > 0) {
          // Inside a certified burst: the X'_k membership established when
          // the burst started guarantees this period's skip keeps the
          // state in XI for every disturbance, so neither the monitor nor
          // the policy runs -- the decide bypasses the group batch
          // entirely, exactly the burst branch of
          // IntermittentController::decide_at (no XI precondition check).
          --session.burst_remaining;
          res.kind = Response::Kind::kDecision;
          res.z = 0;
          res.forced = false;
          ++counters_.decisions;
          ++counters_.skipped;
          ++counters_.burst_skips;
          break;
        }
        group.pending.push_back({r.session, &session, i, &r});
        break;
      }
    }
  }

  // Phase 2: one fused batch per group.  Groups are data-disjoint (own
  // SoA workspaces, disjoint response slots, disjoint session sets), so
  // independent groups shard across the tick pool; each group's side
  // effects are buffered and merged below in group creation order, which
  // makes the whole pass bit-identical for any tick worker count.
  std::vector<Group*> active;
  for (auto& group : groups_) {
    if (!group->pending.empty()) active.push_back(group.get());
  }
  try {
    if (tick_pool_ && active.size() > 1) {
      for (Group* group : active) {
        tick_pool_->submit([group, &out] { run_group(*group, out); });
      }
      tick_pool_->wait_idle();
    } else {
      for (Group* group : active) run_group(*group, out);
    }
  } catch (...) {
    // A group that threw (OOM, ...) leaves the tick unanswered -- the
    // Server fails the whole batch.  Pending rows point into `in`, so
    // they must never survive into the next tick.
    for (Group* group : active) {
      group->pending.clear();
      group->tick_closed.clear();
      group->tick_counters = ServiceCounters{};
    }
    throw;
  }
  for (Group* group : active) {
    const ServiceCounters& tc = group->tick_counters;
    counters_.decisions += tc.decisions;
    counters_.skipped += tc.skipped;
    counters_.forced += tc.forced;
    counters_.errors += tc.errors;
    counters_.invariant_errors += tc.invariant_errors;
    group->tick_counters = ServiceCounters{};
    for (std::uint64_t sid : group->tick_closed) sessions_.erase(sid);
    group->tick_closed.clear();
    group->pending.clear();
  }
}

void Service::run_group(Group& group, std::vector<Response>& out) {
  const std::size_t n = group.pending.size();
  const std::size_t nx = group.plant->model.sys.nx();

  if (group.xbatch.rows() < n || group.xbatch.cols() != nx) {
    group.xbatch = linalg::Matrix(n + n / 2 + 1, nx);
  }
  for (std::size_t r = 0; r < n; ++r) {
    const linalg::Vector& x = group.pending[r].req->x;
    double* row = group.xbatch.row_data(r);
    for (std::size_t j = 0; j < nx; ++j) row[j] = x[j];
  }
  group.xi_viol.resize(n);
  group.xp_viol.resize(n);

  // The monitor's membership tests for the whole batch: one SoA pass per
  // set, each row bit-identical to HPolytope::violation.
  const poly::HPolytope& xi = group.plant->cert.sets.xi;
  const poly::HPolytope& xp = group.plant->cert.sets.x_prime;
  linalg::batch_max_violation(xi.a(), xi.b().data().data(), group.xbatch.data(), n, nx,
                              group.xi_viol.data());
  linalg::batch_max_violation(xp.a(), xp.b().data().data(), group.xbatch.data(), n, nx,
                              group.xp_viol.data());

  // A DRL group asks Omega about every row the monitor will hand it in one
  // batched forward pass; the verdicts below read the answers in row order.
  if (group.drl != nullptr) {
    group.queries.clear();
    for (std::size_t r = 0; r < n; ++r) {
      const auto& p = group.pending[r];
      if (core::in_xi(group.xi_viol[r]) && core::in_x_prime(group.xp_viol[r])) {
        group.queries.push_back({&p.req->x, &p.state->whist});
      }
    }
    group.drl->decide_batch(group.queries, group.drl_z);
  }

  std::size_t consulted = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const auto& p = group.pending[r];
    Session& session = *p.state;
    Response& res = out[p.out_index];
    // Algorithm 1 line 2 precondition, strict mode: a state outside XI
    // means the certificate's model assumptions were violated; mirror the
    // per-session framework's abort by closing the session.
    if (!core::in_xi(group.xi_viol[r])) {
      res.kind = Response::Kind::kError;
      res.error = "session " + std::to_string(p.session) +
                  ": state left the robust invariant set XI (Algorithm 1 "
                  "precondition); session closed";
      ++group.tick_counters.errors;
      ++group.tick_counters.invariant_errors;
      group.tick_closed.push_back(p.session);
      continue;
    }
    const core::Verdict v = core::monitor_verdict(group.xp_viol[r], [&] {
      if (group.drl != nullptr) return group.drl_z[consulted++];
      core::SkipPolicy& omega = session.policy ? *session.policy : *group.omega;
      return omega.decide(p.req->x, session.whist);
    });
    // A granted skip arms the session's countdown, so the next k-1
    // decides bypass the batch in phase 1.
    if (v.z == 0) {
      session.burst_remaining =
          core::certified_burst(group.plant->cert.ladder, group.max_burst, p.req->x);
    }
    res.kind = Response::Kind::kDecision;
    res.z = v.z;
    res.forced = v.forced;
    ++group.tick_counters.decisions;
    if (v.z == 0) ++group.tick_counters.skipped;
    if (v.forced) ++group.tick_counters.forced;
  }
}

}  // namespace oic::serve
