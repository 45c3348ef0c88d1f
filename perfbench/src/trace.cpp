#include "trace.hpp"

#include <stdexcept>

namespace perfbench {

std::uint32_t Tracer::intern(const std::string& name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::open(std::uint32_t name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? kNoParent : stack_.back();
  s.group = group_;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const auto idx = static_cast<std::uint32_t>(spans_.size() - 1);
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(std::uint32_t span) {
  if (stack_.empty() || stack_.back() != span) {
    throw std::logic_error("Tracer::close: spans must close innermost first");
  }
  spans_[span].end_ns = now_ns();
  stack_.pop_back();
}

std::uint32_t Tracer::add(std::uint32_t name, std::uint32_t parent, std::int64_t start_ns,
                          std::int64_t end_ns) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.group = group_;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

LayerTimes layer_times(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  std::vector<double> child_ns(spans.size(), 0.0);
  LayerTimes out;
  for (const Span& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    if (dur < 0.0) out.nesting_ok = false;
    if (s.parent == kNoParent) {
      out.total_ns += dur;
      continue;
    }
    const Span& p = spans[s.parent];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.group != p.group) {
      out.nesting_ok = false;
    }
    child_ns[s.parent] += dur;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self = static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
    if (self < 0.0) out.nesting_ok = false;  // overlapping children
    const std::string& name = tracer.name(s.name);
    out.self_ns[name] += self;
    ++out.count[name];
  }
  return out;
}

void check_reconciliation(const LayerTimes& lt, const std::string& root, Outcome& out) {
  const double share = lt.total_ns > 0.0 ? lt.self(root) / lt.total_ns : 1.0;
  out.set("trace.unattributed_frac", share);
  if (!lt.nesting_ok) out.fail("traced spans do not nest");
  if (share > kMaxUnattributed) {
    out.fail("unattributed time " + json_num(share) + " of the traced total exceeds " +
             json_num(kMaxUnattributed));
  }
}

}  // namespace perfbench
