/// \file oic_loadgen.cpp
/// Load generator for the monitor service: spins up an in-process Server,
/// replays mc::ScenarioFamily traffic against it from multiple client
/// threads (src/serve/loadgen.hpp), and reports decision latency
/// percentiles and throughput:
///
///   oic_loadgen --plants toy2d --sessions 10000 --steps 10 --clients 4
///
/// Every session is driven like a real plant-side deployment: open, one
/// decide per control period carrying the previously actuated input and
/// the measured state, close at the end.  Decisions are actuated through
/// the client's own tube-MPC copy; disturbances are sampled from the
/// plant's scenario family.
///
/// Flags (--key value and --key=value are both accepted):
///   --plant/--plants a,b  registry plants            (default: all)
///   --family ID           scenario family            (default mixed)
///   --policy SPECS        comma-separated skip-policy list assigned
///                         round-robin by session index (default bang-bang)
///   --sessions N          concurrent sessions        (default 10000)
///   --steps N             control periods/session    (default 10)
///   --clients N           client threads             (default 4)
///   --max-batch N         requests per round trip, 0 = whole partition
///                         (default 512; bounded chunks keep clients from
///                         convoying behind each other's full partitions)
///   --window N            chunks each client keeps in flight per control
///                         period, 0 = all of them (default 2; a bounded
///                         window keeps the measured round trip a decision
///                         latency instead of a whole-tick barrier)
///   --transport T         inproc | socket            (default inproc;
///                         socket wraps the server in a loopback listener
///                         so latency includes the wire)
///   --connect HOST:PORT   drive an EXTERNAL oic_serve --listen process
///                         instead of an in-process server (implies the
///                         socket transport; server counters unavailable)
///   --actuate MODE        rmpc | gain -- how clients act on z=1
///                         (default rmpc: warm tube-MPC solve; gain: the
///                         controller's ancillary u = K x, for capacity
///                         runs where client LP cost would mask the server)
///   --seed N              traffic seed               (default 20200406)
///   --tick-workers N      parallel tick group shards, 1 = serial tick,
///                         0 = hardware               (default 1)
///   --cert-dir DIR        certificate cache (cert::Store)
///   --emit PATH           capture all submitted request batches
///                         (`oic-serve v1` documents, replayable through
///                         oic_serve --in PATH)
///   --json PATH           write the JSON report
///
/// Exit status: 0 on a clean run, 1 when any session got an error
/// response (fault-free traffic must never) or on bad usage.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "common/error.hpp"
#include "common/jsonout.hpp"
#include "serve/loadgen.hpp"

namespace {

using oic::cliutil::Args;

std::string loadgen_json(const oic::serve::LoadgenConfig& cfg,
                         std::size_t tick_workers,
                         const oic::serve::LoadgenResult& res,
                         const oic::serve::ServiceCounters& c) {
  oic::jsonout::Doc doc("oic_loadgen");
  std::string& out = doc.body();
  out += "  \"config\": {\"plants\": ";
  oic::jsonout::append_string_array(out, cfg.plants);
  out += ", \"family\": ";
  oic::jsonout::append_string(out, cfg.family);
  out += ", \"policy\": ";
  oic::jsonout::append_string(out, cfg.policy);
  out += ", \"transport\": ";
  oic::jsonout::append_string(out, cfg.transport);
  out += ", \"actuation\": ";
  oic::jsonout::append_string(out, cfg.actuation);
  oic::jsonout::append_format(
      out,
      ", \"sessions\": %zu, \"steps\": %zu, \"clients\": %zu, "
      "\"max_batch\": %zu, \"pipeline_window\": %zu, \"tick_workers\": %zu, "
      "\"seed\": %llu, ",
      cfg.sessions, cfg.steps, cfg.clients, cfg.max_batch, cfg.pipeline_window,
      tick_workers, static_cast<unsigned long long>(cfg.seed));
  out += "\"cert_dir\": ";
  oic::jsonout::append_string(out, cfg.cert_dir);
  out += "},\n";
  oic::jsonout::append_format(
      out,
      "  \"loadgen\": {\"wall_s\": %.6f, \"sessions\": %zu, \"steps\": %zu, "
      "\"decisions\": %llu, \"skipped\": %llu, \"forced\": %llu, "
      "\"errors\": %llu, \"burst_sessions\": %zu, "
      "\"p50_ms\": %.6f, \"p99_ms\": %.6f, "
      "\"submit_p50_ms\": %.6f, \"submit_p99_ms\": %.6f, "
      "\"wait_p50_ms\": %.6f, \"wait_p99_ms\": %.6f, "
      "\"decisions_per_s\": %.3f, \"sessions_per_s\": %.3f},\n",
      res.wall_s, res.sessions, res.steps,
      static_cast<unsigned long long>(res.decisions),
      static_cast<unsigned long long>(res.skipped),
      static_cast<unsigned long long>(res.forced),
      static_cast<unsigned long long>(res.errors), res.burst_sessions,
      res.p50_ms, res.p99_ms, res.submit_p50_ms, res.submit_p99_ms,
      res.wait_p50_ms, res.wait_p99_ms, res.decisions_per_s,
      res.sessions_per_s);
  out += "  \"serve_tick_latency_ms\": [";
  for (std::size_t i = 0; i < res.tick_latency.size(); ++i) {
    const oic::serve::TickLatency& tl = res.tick_latency[i];
    oic::jsonout::append_format(
        out,
        "%s{\"tick\": %zu, \"samples\": %zu, \"p50\": %.6f, \"p99\": %.6f, "
        "\"max\": %.6f, \"submit_p50\": %.6f, \"submit_p99\": %.6f, "
        "\"wait_p50\": %.6f, \"wait_p99\": %.6f}",
        i ? ", " : "", tl.tick, tl.samples, tl.p50_ms, tl.p99_ms, tl.max_ms,
        tl.submit_p50_ms, tl.submit_p99_ms, tl.wait_p50_ms, tl.wait_p99_ms);
  }
  out += "],\n";
  return std::move(doc).finish(c.invariant_errors > 0);
}

/// Parse "HOST:PORT" (the --connect operand).
bool parse_hostport(const std::string& s, std::string& host, std::uint16_t& port) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == s.size()) {
    return false;
  }
  host = s.substr(0, colon);
  unsigned long value = 0;
  for (std::size_t i = colon + 1; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    value = value * 10 + static_cast<unsigned long>(s[i] - '0');
    if (value > 65535) return false;
  }
  port = static_cast<std::uint16_t>(value);
  return port != 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  if (args.flag("help")) {
    std::printf(
        "usage: oic_loadgen [--plants a,b] [--family ID] [--policy SPECS]\n"
        "                   [--sessions N] [--steps N] [--clients N]\n"
        "                   [--max-batch N] [--window N]\n"
        "                   [--transport inproc|socket]\n"
        "                   [--connect HOST:PORT] [--actuate rmpc|gain]\n"
        "                   [--seed N] [--tick-workers N]\n"
        "                   [--cert-dir DIR] [--emit PATH] [--json PATH]\n"
        "Replays scenario-family traffic against an in-process monitor server\n"
        "(or, with --connect, an external oic_serve --listen) and reports\n"
        "decision latency percentiles and throughput.\n");
    return 0;
  }

  oic::serve::LoadgenConfig cfg;
  std::string v;
  if (args.value("plant", v) || args.value("plants", v)) {
    cfg.plants = oic::cliutil::split_list(v);
  }
  (void)args.value("family", cfg.family);
  (void)args.value("policy", cfg.policy);
  (void)args.value("emit", cfg.emit_path);
  (void)args.value("transport", cfg.transport);
  (void)args.value("actuate", cfg.actuation);
  std::string connect;
  (void)args.value("connect", connect);
  if (!oic::cliutil::count_flag(args, "oic_loadgen", "sessions", cfg.sessions) ||
      !oic::cliutil::count_flag(args, "oic_loadgen", "steps", cfg.steps) ||
      !oic::cliutil::count_flag(args, "oic_loadgen", "clients", cfg.clients) ||
      !oic::cliutil::count_flag(args, "oic_loadgen", "max-batch",
                                cfg.max_batch) ||
      !oic::cliutil::count_flag(args, "oic_loadgen", "window",
                                cfg.pipeline_window)) {
    return 1;
  }
  oic::serve::ServiceConfig server_cfg;
  if (!oic::cliutil::count_flag(args, "oic_loadgen", "tick-workers",
                                server_cfg.tick_workers)) {
    return 1;
  }
  oic::cliutil::CommonOpts common;
  oic::cliutil::CommonFlagSet accept;
  accept.faults = false;  // the serve layer is fault-free (strict monitor)
  accept.workers = false;  // server parallelism is --tick-workers
  if (!oic::cliutil::parse_common(args, "oic_loadgen", common, accept)) return 1;
  if (common.seeds.size() > 1) {
    std::fprintf(stderr, "oic_loadgen: --seed expects a single traffic seed\n");
    return 1;
  }
  if (!common.seeds.empty()) cfg.seed = common.seeds.front();
  cfg.cert_dir = common.cert_dir;
  server_cfg.cert_dir = common.cert_dir;
  if (!oic::cliutil::reject_unknown(args, "oic_loadgen")) return 1;

  try {
    std::printf("=== oic_loadgen ===\n");
    std::printf("sessions=%zu steps=%zu clients=%zu policy=%s family=%s "
                "transport=%s actuate=%s seed=%llu\n",
                cfg.sessions, cfg.steps, cfg.clients, cfg.policy.c_str(),
                cfg.family.c_str(),
                connect.empty() ? cfg.transport.c_str() : "socket (external)",
                cfg.actuation.c_str(),
                static_cast<unsigned long long>(cfg.seed));

    const auto& registry = oic::eval::ScenarioRegistry::builtin();
    oic::serve::LoadgenResult res;
    oic::serve::ServiceCounters counters;
    std::uint64_t server_ticks = 0;
    std::size_t open_sessions = 0;
    if (connect.empty()) {
      oic::serve::Server server(registry, server_cfg);
      res = oic::serve::run_loadgen(server, registry, cfg);
      server.shutdown();
      counters = server.counters();
      server_ticks = server.ticks();
      open_sessions = server.open_sessions();
    } else {
      std::string host;
      std::uint16_t port = 0;
      if (!parse_hostport(connect, host, port)) {
        std::fprintf(stderr,
                     "oic_loadgen: --connect expects HOST:PORT, got '%s'\n",
                     connect.c_str());
        return 1;
      }
      cfg.transport = "socket";
      res = oic::serve::run_loadgen_connect(registry, cfg, host, port);
    }

    std::printf("\n%llu decisions (%llu skipped, %llu forced), %llu errors, "
                "%.2f s wall\n",
                static_cast<unsigned long long>(res.decisions),
                static_cast<unsigned long long>(res.skipped),
                static_cast<unsigned long long>(res.forced),
                static_cast<unsigned long long>(res.errors), res.wall_s);
    std::printf("latency    : p50 %.3f ms  |  p99 %.3f ms (submit -> await; "
                "submit p50 %.3f ms, wait p50 %.3f ms)\n",
                res.p50_ms, res.p99_ms, res.submit_p50_ms, res.wait_p50_ms);
    std::printf("throughput : %.0f decisions/s  |  %.0f sessions/s sustained "
                "(1 decision/session/period)\n",
                res.decisions_per_s, res.sessions_per_s);
    if (connect.empty()) {
      std::printf("server     : %llu ticks, %zu sessions open at shutdown\n",
                  static_cast<unsigned long long>(server_ticks), open_sessions);
    } else {
      std::printf("server     : external (%s)\n", connect.c_str());
    }
    if (!cfg.emit_path.empty()) {
      std::printf("emitted request batches to %s\n", cfg.emit_path.c_str());
    }

    if (common.write_json &&
        !oic::cliutil::write_json_file(
            "oic_loadgen", common.json_path,
            loadgen_json(cfg, server_cfg.tick_workers, res, counters))) {
      return 1;
    }
    return res.errors > 0 || counters.invariant_errors > 0 ? 1 : 0;
  } catch (const oic::Error& e) {
    std::fprintf(stderr, "oic_loadgen: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Anything escaping the oic::Error hierarchy (bad_alloc, filesystem
    // errors, ...) must still die with a diagnosable message and a
    // nonzero exit, never a raw terminate().
    std::fprintf(stderr, "oic_loadgen: unexpected error: %s\n", e.what());
    return 1;
  }
}
