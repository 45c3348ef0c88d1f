/// perfbench: the repo benchmark program.
///
///   perfbench --workload <acc-sweep|drl-campaign|serve-open> --seed N
///             --seconds S --trace <0|1> [--root DIR] [--work-dir DIR]
///
/// Prints progress on stderr and, as the last line of stdout, one JSON
/// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// metrics with --trace 0, the per-layer metrics with --trace 1.  The full
/// result (both metric sets, provenance, workload detail, diagnostics) is
/// written to <work-dir>/results/.  Metric names are fixed across
/// workloads; a layer a workload never calls reports 0 (see NOTES.md).

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct Declared {
  const char* name;
  const char* unit;
};

const Declared kEndToEnd[] = {
    {"setup_s", "s"},        {"peak_rss_mb", "MB"},  {"steps_per_s", "1/s"},
    {"step_iqm_us", "us"},   {"step_p99_us", "us"},
};

const Declared kPerLayer[] = {
    {"control.mpc_ns_per_call.consecutive", "ns"},
    {"control.mpc_ns_per_call.after_skip", "ns"},
    {"control.mpc_ns_per_call.cold", "ns"},
    {"control.mpc_ns_per_step", "ns"},
    {"control.mpc_calls_per_step", "count"},
    {"control.lti_step_ns", "ns"},
    {"core.decide_self_ns", "ns"},
    {"core.record_ns", "ns"},
    {"core.policy_ns_per_call", "ns"},
    {"core.policy_calls_per_step", "count"},
    {"core.skip_frac", "frac"},
    {"core.forced_frac", "frac"},
    {"core.degraded_frac", "frac"},
    {"rl.forward_ns_per_call", "ns"},
    {"poly.contains_ns_per_step", "ns"},
    {"fault.link_ns_per_step", "ns"},
    {"mc.episode_draw_ns", "ns"},
    {"cert.synthesize_ms", "ms"},
    {"eval.engine_build_ms", "ms"},
    {"eval.other_ns_per_step", "ns"},
    {"serve.open_ms_per_session", "ms"},
    {"serve.api.request_encode_ns", "ns"},
    {"serve.api.request_parse_ns", "ns"},
    {"serve.api.response_encode_ns", "ns"},
    {"serve.api.response_parse_ns", "ns"},
    {"serve.api.request_bytes", "B"},
    {"serve.service.tick_ns_per_decision", "ns"},
    {"serve.service.decisions_per_tick", "count"},
    {"serve.service.burst_frac", "frac"},
    {"serve.socket.roundtrip_ms.p50", "ms"},
    {"serve.socket.roundtrip_ms.p99", "ms"},
    {"serve.server.queue_ms", "ms"},
    {"serve.loadgen.lateness_ms.p99", "ms"},
    {"serve.ramp.max_decisions_per_s", "1/s"},
    {"serve.decision_p50_ms.low", "ms"},
    {"serve.decision_p50_ms.mid", "ms"},
    {"serve.decision_p50_ms.high", "ms"},
    {"serve.decision_p99_ms.low", "ms"},
    {"serve.decision_p99_ms.mid", "ms"},
    {"serve.decision_p99_ms.high", "ms"},
    {"trace.steps", "count"},
    {"trace.total_ns_per_step", "ns"},
    {"trace.unattributed_frac", "frac"},
    {"trace.overhead_ratio", "ratio"},
};

template <std::size_t N>
std::string metrics_json(const Outcome& o, const Declared (&names)[N]) {
  std::string s = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = o.metrics.find(names[i].name);
    const double v = it == o.metrics.end() ? 0.0 : it->second;
    if (i) s += ", ";
    s += json_str(names[i].name) + ": {\"value\": " + json_num(v) +
         ", \"unit\": " + json_str(names[i].unit) + "}";
  }
  return s + "}";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <acc-sweep|drl-campaign|"
               "serve-open> --seed N --seconds S --trace <0|1> [--root DIR] "
               "[--work-dir DIR] [--write-digests]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = value() != "0";
      else if (a == "--root") opt.root = value();
      else if (a == "--work-dir") opt.work_dir = value();
      else if (a == "--write-digests") opt.write_digests = true;
      else throw std::invalid_argument("unknown argument " + a);
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (opt.seconds <= 0.0) return usage("--seconds must be positive");
  if (opt.work_dir.empty()) opt.work_dir = opt.root + "/.bench_build/work";
  std::filesystem::create_directories(opt.work_dir + "/results");

  Outcome out;
  try {
    if (opt.workload == "acc-sweep") out = run_acc_sweep(opt);
    else if (opt.workload == "drl-campaign") out = run_drl_campaign(opt);
    else if (opt.workload == "serve-open") out = run_serve_open(opt);
    else return usage(("unknown workload '" + opt.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  out.set("peak_rss_mb", peak_rss_mb());
  if (out.attempted == 0) out.fail("no operation completed");

  const std::string e2e = metrics_json(out, kEndToEnd);
  const std::string layers = metrics_json(out, kPerLayer);
  std::string problems = "[";
  for (std::size_t i = 0; i < out.problems.size(); ++i) {
    problems += (i ? ", " : "") + json_str(out.problems[i]);
    std::fprintf(stderr, "perfbench: check failed: %s\n", out.problems[i].c_str());
  }
  problems += "]";
  const std::string head = "{\"correct\": " + std::string(out.correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(out.attempted) +
                           ", \"failed\": " + std::to_string(out.failed);

  const std::string path = opt.work_dir + "/results/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" + (opt.trace ? "1" : "0") +
                           ".json";
  std::ofstream(path) << head << ", \"provenance\": " << provenance_json(opt)
                      << ", \"end_to_end\": " << e2e << ", \"per_layer\": "
                      << (opt.trace ? layers : "null") << ", \"detail\": " << out.detail_json
                      << ", \"problems\": " << problems << "}\n";
  std::fprintf(stderr, "perfbench: detail %s\n", out.detail_json.c_str());
  std::printf("%s, \"metrics\": %s}\n", head.c_str(), (opt.trace ? layers : e2e).c_str());
  return 0;
}
