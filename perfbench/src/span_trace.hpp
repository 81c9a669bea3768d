// In-memory span recorder for the traced run. Spans are opened and closed
// by the benchmark's own code around its calls into the program: a pass,
// Scheduler::run, reducer construction and destruction, the lookup phases
// and get_value. Nothing inside the program is instrumented.
//
// Only serial code records spans: the main thread between runs and the root
// strand inside a run (never a parallel branch). The root strand may move
// between worker threads, but it runs one step at a time, and Scheduler::run
// orders it against the main thread, so plain fields suffice.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0: the span is its pass's root
  std::uint32_t pass = 0;
  const char* name = "";
  std::uint64_t t0 = 0, t1 = 0;
  std::uint64_t count = 0;  // operations in the batch the span covers
};

class Tracer {
 public:
  static Tracer& instance() {
    static Tracer tracer;
    return tracer;
  }

  /// Off (the untimed default), nothing is recorded and a Span costs one
  /// branch.
  void enable(bool on) { enabled_ = on; }

  /// Open pass `pass` with its root span. Spans nested deeper than the
  /// pass's direct children are recorded only when `inner` is set, so the
  /// traced run can interleave passes with and without in-run spans.
  void begin_pass(std::uint32_t pass, bool inner) {
    if (!enabled_) return;
    pass_ = pass;
    inner_ = inner;
    pass_span_ = open("pass", 0);
  }
  void end_pass() {
    if (!enabled_ || pass_ == 0) return;
    close(pass_span_);
    pass_ = 0;
  }

  std::uint32_t open(const char* name, std::uint64_t count) {
    if (!enabled_ || pass_ == 0) return 0;
    if (stack_.size() >= 2 && !inner_) return 0;
    SpanRecord s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.pass = pass_;
    s.name = name;
    s.count = count;
    s.t0 = now_ns();
    spans_.push_back(s);
    stack_.push_back(s.id);
    return s.id;
  }

  void close(std::uint32_t id) {
    if (id == 0) return;
    spans_[id - 1].t1 = now_ns();
    stack_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  bool inner_ = false;
  std::uint32_t pass_ = 0;
  std::uint32_t pass_span_ = 0;
  std::vector<std::uint32_t> stack_;
  std::vector<SpanRecord> spans_;
};

/// Scoped span; a no-op while the tracer is off.
class Span {
 public:
  Span(Tracer& tr, const char* name, std::uint64_t count)
      : tr_(tr), id_(tr.open(name, count)) {}
  ~Span() { tr_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tr_;
  std::uint32_t id_;
};

}  // namespace perfbench
