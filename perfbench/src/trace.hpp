#pragma once
/// \file trace.hpp
/// In-memory span recorder for the traced run.
///
/// A span is (name, start, end, parent, group).  Spans nest strictly: the
/// recorder keeps a stack of open spans and a new span's parent is the
/// innermost open one.  All spans of one episode or one request batch share
/// a group id.  Nothing is written while the run is timed; spans stay in
/// memory and are reduced when the run ends.
///
/// A layer's self time is its span minus its children.  Summed over every
/// span, self times add up exactly to the root spans' total once the spans
/// nest, so that sum is no check.  The reconciliation that can fail is the
/// share of the total that no layer span covers (check_reconciliation).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t group = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  /// Name id for a span label (stable for the tracer's lifetime).
  std::uint32_t intern(const std::string& name);
  const std::string& name(std::uint32_t id) const { return names_[id]; }

  /// Group id stamped on spans opened from now on.
  void set_group(std::uint64_t group) { group_ = group; }

  /// Open a span now; returns its index.
  std::uint32_t open(std::uint32_t name);
  /// Close the innermost open span, which must be `span`.
  void close(std::uint32_t span);

  /// Append a finished span with explicit times (hand-built traces and
  /// spans timed elsewhere).  `parent` is an index or kNoParent.
  std::uint32_t add(std::uint32_t name, std::uint32_t parent, std::int64_t start_ns,
                    std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    stack_.clear();
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::string> names_;
  std::uint64_t group_ = 0;
};

/// RAII span; a null tracer makes it a no-op (the untraced path).
class Scope {
 public:
  Scope(Tracer* tracer, std::uint32_t name)
      : tracer_(tracer), span_(tracer ? tracer->open(name) : 0) {}
  ~Scope() {
    if (tracer_) tracer_->close(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t span_;
};

/// Reduction of a trace: self time and span count per name.
struct LayerTimes {
  std::map<std::string, double> self_ns;     ///< sum of self times by name
  std::map<std::string, std::uint64_t> count;  ///< spans by name
  double total_ns = 0.0;    ///< sum of root-span durations
  bool nesting_ok = true;   ///< every child lies inside its parent

  double self(const std::string& name) const {
    const auto it = self_ns.find(name);
    return it == self_ns.end() ? 0.0 : it->second;
  }
  std::uint64_t spans(const std::string& name) const {
    const auto it = count.find(name);
    return it == count.end() ? 0 : it->second;
  }
};

LayerTimes layer_times(const Tracer& tracer);

/// Largest share of the traced total that may stay unattributed.
inline constexpr double kMaxUnattributed = 0.1;

/// The traced run's reconciliation: the spans must nest, and the self time
/// of the root spans named `root` (time inside an episode or request batch
/// that no layer span covers) may be at most kMaxUnattributed of the traced
/// total.  Reports that share as trace.unattributed_frac; fails `out`
/// otherwise.
void check_reconciliation(const LayerTimes& lt, const std::string& root, Outcome& out);

}  // namespace perfbench
