// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent) in seconds since the process started.
// Spans are recorded from the benchmark's own code around the calls into
// each layer, kept in memory, and written out once when the run ends. A
// disabled recorder records nothing, so the measured (untraced) run pays two
// branch-not-taken checks per phase.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Span {
  std::string name;
  double start_s = 0;
  double end_s = -1;  // < start_s while the span is open
  int parent = -1;    // index into the recorder's span list; -1 = top level
  double duration() const { return end_s - start_s; }
};

class Spans {
 public:
  Spans(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  /// RAII guard: the span closes when the guard goes out of scope. Guards
  /// nest; a span's parent is the innermost span open when it started.
  class Scope {
   public:
    Scope(Spans* owner, int index) : owner_(owner), index_(index) {}
    ~Scope() {
      if (owner_ != nullptr) owner_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* owner_;
    int index_;
  };

  [[nodiscard]] Scope open(std::string name) {
    if (!enabled_) return Scope(nullptr, -1);
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::move(name), now(), -1, current_});
    current_ = index;
    return Scope(this, index);
  }

  const std::vector<Span>& spans() const { return spans_; }
  double now() const { return seconds_between(origin_, Clock::now()); }

  /// Summed duration of every closed span with this name.
  double total(const std::string& name) const {
    double sum = 0;
    for (const Span& span : spans_)
      if (span.name == name && span.end_s >= span.start_s)
        sum += span.duration();
    return sum;
  }

  /// Summed duration of the closed top-level spans.
  double top_level_total() const {
    double sum = 0;
    for (const Span& span : spans_)
      if (span.parent < 0 && span.end_s >= span.start_s)
        sum += span.duration();
    return sum;
  }

 private:
  void close(int index) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_s = now();
    current_ = span.parent;
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

}  // namespace perfbench
