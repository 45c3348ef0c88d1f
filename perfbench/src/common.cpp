#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/buildinfo.hpp"
#include "common/jsonout.hpp"
#include "linalg/simd.hpp"

namespace perfbench {

double quantile(std::vector<double>& xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double interquartile_mean(std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t lo = xs.size() / 4, hi = std::max(lo + 1, xs.size() - xs.size() / 4);
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += xs[i];
  return sum / static_cast<double>(hi - lo);
}

namespace {
// Bins are (binary exponent, top 7 mantissa bits) of the value in ns: 128
// bins per octave (< 0.8% wide), indexed without a log.
constexpr int kHistMinExp = 3, kHistMaxExp = 34;  // 8 ns .. 17 s
constexpr int kHistSub = 128;

std::size_t hist_bin(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  const int e = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  const auto m = static_cast<std::size_t>((bits >> 45) & (kHistSub - 1));
  return static_cast<std::size_t>(e - kHistMinExp) * kHistSub + m;
}

double hist_lower(std::size_t b) {
  const int e = static_cast<int>(b / kHistSub) + kHistMinExp;
  return std::ldexp(1.0 + static_cast<double>(b % kHistSub) / kHistSub, e);
}
}  // namespace

Histogram::Histogram() : bins_(static_cast<std::size_t>(kHistMaxExp - kHistMinExp) * kHistSub, 0) {}

void Histogram::add(double ns) {
  const double lo = std::ldexp(1.0, kHistMinExp), hi = std::ldexp(1.0, kHistMaxExp);
  ++bins_[hist_bin(std::min(std::max(ns, lo), std::nextafter(hi, 0.0)))];
  ++n_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  n_ += other.n_;
}

double Histogram::interquartile_mean() const {
  if (n_ == 0) return 0.0;
  const double lo = 0.25 * static_cast<double>(n_), hi = 0.75 * static_cast<double>(n_);
  double below = 0.0, sum = 0.0;
  for (std::size_t i = 0; i < bins_.size() && below < hi; ++i) {
    const double c = static_cast<double>(bins_[i]);
    const double take = std::min(below + c, hi) - std::max(below, lo);
    if (take > 0.0) sum += take * 0.5 * (hist_lower(i) + hist_lower(i + 1));
    below += c;
  }
  return sum / (hi - lo);
}

std::string Histogram::deciles_us_json() const {
  std::string s = "[";
  for (int d = 1; d <= 9; ++d) s += (d > 1 ? ", " : "") + json_num(quantile(0.1 * d) / 1e3);
  return s + "]";
}

double Histogram::quantile(double q) const {
  if (n_ == 0) return 0.0;
  const double rank = q * static_cast<double>(n_ - 1);
  double below = 0.0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const double c = static_cast<double>(bins_[i]);
    if (c > 0.0 && below + c > rank) {
      const double lo = hist_lower(i), width = hist_lower(i + 1) - lo;
      return lo + width * (rank - below + 0.5) / c;
    }
    below += c;
  }
  return hist_lower(bins_.size());
}

void Outcome::fail(const std::string& what, std::uint64_t ops) {
  correct = false;
  failed += ops;
  if (problems.size() < 8) problems.push_back(what);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string json_str(const std::string& s) { return "\"" + oic::jsonout::escape(s) + "\""; }

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string digests_path(const Options& opt) { return opt.root + "/perfbench/digests.txt"; }

}  // namespace

std::string provenance_json(const Options& opt) {
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_model\": " + json_str(cpu_model());
  out += ", \"isa\": " + json_str(oic::linalg::simd::active_isa_name());
  out += ", \"compiler\": " + json_str(oic::compiler_id());
  out += ", \"build_type\": " + json_str(oic::build_type());
  out += ", \"git_sha\": " + json_str(oic::git_sha());
  out += ", \"seed\": " + std::to_string(opt.seed);
  out += ", \"seconds\": " + json_num(opt.seconds);
  out += ", \"workload\": " + json_str(opt.workload);
  out += ", \"trace\": " + std::string(opt.trace ? "true" : "false");
  return out + "}";
}

std::string read_digest(const Options& opt, const std::string& key) {
  std::ifstream in(digests_path(opt));
  std::string k, v;
  while (in >> k >> v) {
    if (k == key) return v;
  }
  return "";
}

void write_digest(const Options& opt, const std::string& key, const std::string& value) {
  std::vector<std::pair<std::string, std::string>> rows;
  {
    std::ifstream in(digests_path(opt));
    std::string k, v;
    while (in >> k >> v) {
      if (k != key) rows.emplace_back(k, v);
    }
  }
  rows.emplace_back(key, value);
  std::sort(rows.begin(), rows.end());
  std::ofstream out(digests_path(opt));
  for (const auto& [k, v] : rows) out << k << ' ' << v << '\n';
}

std::string hex(const Digest& d) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(d.value()));
  return buf;
}

}  // namespace perfbench
