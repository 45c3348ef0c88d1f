#pragma once
/// \file common.hpp
/// Shared plumbing of the benchmark program: clocks, order statistics, the
/// metric record every workload returns, and run provenance.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/hash.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; the
/// vector is sorted in place.  Returns 0 for an empty sample.
double quantile(std::vector<double>& xs, double q);

/// Median of an unsorted sample (sorted in place).
inline double median_of(std::vector<double>& xs) { return quantile(xs, 0.5); }

/// Interquartile mean: the mean of the middle half of a sample (sorted in
/// place; 0 when empty).  Unlike the median it does not jump when half the
/// samples sit in one mode and half in another, as skip and solve steps do.
double interquartile_mean(std::vector<double>& xs);

/// Fixed-memory duration histogram: 128 bins per octave (< 0.8% wide) from
/// 8 ns to 17 s.  Step timings go here instead of a growing sample vector, so
/// the process's peak RSS does not depend on how fast the run was.
class Histogram {
 public:
  Histogram();
  void add(double ns);
  void merge(const Histogram& other);
  std::uint64_t count() const { return n_; }
  /// q-quantile, interpolated by rank inside its bin (0 when empty).
  double quantile(double q) const;
  /// Mean of the samples ranked between the quartiles (bin midpoints).
  double interquartile_mean() const;
  /// JSON array of the deciles p10..p90, in microseconds (run detail).
  std::string deciles_us_json() const;

 private:
  std::vector<std::uint64_t> bins_;
  std::uint64_t n_ = 0;
};

/// What one workload run hands back to main().
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< operations attempted
  std::uint64_t failed = 0;     ///< operations that failed a check
  std::map<std::string, double> metrics;  ///< reported values by metric name
  std::vector<std::string> problems;      ///< first failure diagnostics
  std::string detail_json = "{}";         ///< workload-specific detail object

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Record a failed check (keeps the first few diagnostics).
  void fail(const std::string& what, std::uint64_t ops = 1);
};

/// Command-line options shared by all workloads.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";          ///< checkout root (reads agent/digests)
  std::string work_dir;            ///< scratch for results and certificates
  bool write_digests = false;      ///< regenerate perfbench/digests.txt
  int fail_phase = -1;             ///< serve-open test hook: throw before this phase
};

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Provenance object: nproc, CPU model, active ISA, compiler, build type,
/// git SHA and seed.
std::string provenance_json(const Options& opt);

/// Escape a string for a JSON string literal (quotes included).
std::string json_str(const std::string& s);

/// Shortest round-trip decimal form of a double ("null" if not finite).
std::string json_num(double v);

/// Canary digests: fixed-seed workload outputs recorded in
/// perfbench/digests.txt.  read returns "" when the key is absent.
std::string read_digest(const Options& opt, const std::string& key);
void write_digest(const Options& opt, const std::string& key, const std::string& value);

/// Output digests are FNV-1a accumulators, printed as 16 hex digits.
using Digest = oic::Fnv1a;
std::string hex(const Digest& d);

}  // namespace perfbench
