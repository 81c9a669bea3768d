// Public fork-join API. fork2join(a, b) runs `a` immediately and exposes
// "`b`, then the join" as a stealable continuation — exactly the
// continuation-stealing discipline of cilk_spawn/cilk_sync, expressed with
// closures instead of compiler support. Any spawn/sync pattern desugars into
// nested fork2join calls, and each worker executes in precise serial order
// between steals, which is what the reducer protocol relies on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "chaos/chaos.hpp"
#include "obs/profiler.hpp"
#include "runtime/frame.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/worker.hpp"

namespace cilkm {

namespace detail {

/// The strand transitions of one fork2join activation at spawn rank r,
/// each written once and shared by the serial tail, the un-stolen fast path
/// and the stolen slow path. Every call takes the StrandContext afresh
/// (rt::strand()), because the strand may have migrated since the last one.
/// With the profiler off only the pedigree moves. The helpers are forced
/// inline: outlined, they pin this struct to the stack and add calls to
/// the un-stolen fast path.
struct ForkTransitions {
  const rt::PedigreeNode* parent;  // the spawning strand's pedigree
  std::uint64_t rank;
  bool prof;                   // one read of obs::profiler_enabled()
  obs::ProfileState prefix{};  // the spawning strand's totals at the spawn
  obs::ProfileState child{};   // the child's totals at its return

  /// Close the spawning strand, then run the child at prefix+[r] from leaf
  /// rank 0 with fresh accumulators.
  [[gnu::always_inline]] void enter_child(rt::StrandContext& sc,
                                          const rt::PedigreeNode* node) {
    if (prof) {
      obs::strand_end(sc.prof);
      prefix = sc.prof;
      sc.prof = {};
      obs::strand_begin(sc.prof);
    }
    sc.ped = {node, 0};
  }

  /// Close the child and take its totals.
  [[gnu::always_inline]] void leave_child(rt::StrandContext& sc) {
    if (prof) {
      obs::strand_end(sc.prof);
      child = sc.prof;
    }
  }

  /// Run the continuation at rank r+1 with fresh accumulators.
  [[gnu::always_inline]] void enter_continuation(
      rt::StrandContext& sc) const {
    sc.ped = {parent, rank + 1};
    if (prof) {
      sc.prof = {};
      obs::strand_begin(sc.prof);
    }
  }

  /// The join, given the continuation's totals: work adds, span and burden
  /// take the max over the two branches, and the strand past the join runs
  /// at rank r+2 (the sync bump).
  [[gnu::always_inline]] void join(rt::StrandContext& sc,
                                   const obs::ProfileState& cont) const {
    if (prof) {
      const obs::ProfileState b = cont;  // may alias sc.prof
      sc.prof.work = prefix.work + child.work + b.work;
      sc.prof.span = prefix.span + std::max(child.span, b.span);
      sc.prof.burden = prefix.burden + std::max(child.burden, b.burden);
      obs::strand_begin(sc.prof);
    }
    sc.ped = {parent, rank + 2};
  }

  /// The join after a continuation that ran inline on this strand.
  [[gnu::always_inline]] void join_inline(rt::StrandContext& sc) const {
    if (prof) obs::strand_end(sc.prof);
    join(sc, sc.prof);
  }
};

}  // namespace detail

/// Run a() then b(), allowing b's side (with everything after it up to the
/// join) to be stolen. Serial semantics: exactly a(); b();.
///
/// Pedigree discipline (runtime/pedigree.hpp): at spawn rank r, `a` runs as
/// the child with pedigree prefix+[r] (its own leaf rank restarts at 0),
/// `b` runs as the continuation at rank r+1, and the strand past the join
/// runs at r+2 — the same transitions in the serial elision and under every
/// steal schedule, so pedigree-hashed draws are schedule-independent.
///
/// NOTE: the call may return on a different worker thread than it started on
/// (the continuation migrates at a joining steal); do not cache
/// thread-identity-dependent state across this call.
///
/// Work/span profiling (obs/profiler.hpp): under --profile every strand
/// boundary here closes the running strand, opens the branch's fresh
/// subcomputation accumulators, and combines work additively / span and
/// burden by max at the join — the serial elision, the un-stolen fast path,
/// and the stolen slow path all apply the identical combine rule, so the
/// reported span is the DAG's span under every schedule. Off, the only cost
/// is one relaxed load and predicted branches.
template <typename A, typename B>
void fork2join(A&& a, B&& b) {
  rt::Worker* w = rt::Worker::current();
  rt::StrandContext& sc = rt::strand();
  detail::ForkTransitions spawn{sc.ped.parent, sc.ped.rank,
                               obs::profiler_enabled()};
  rt::PedigreeNode child_node{spawn.rank, spawn.parent};
  if (w != nullptr && !w->serial_spawns()) {
    rt::SpawnFrameT<std::remove_reference_t<B>> frame(&b);
    // The pedigree snapshot must be complete before the push: a thief may
    // promote the frame (and read these fields) immediately.
    frame.ped_parent = spawn.parent;
    frame.ped_rank = spawn.rank;
    if (spawn.prof) {
      // Like the pedigree: the profiler slots must be valid before the push.
      // The thief overwrites prof_work/span/burden, but prof_burden_left only
      // ever accumulates victim-side protocol costs.
      frame.prof_work = 0;
      frame.prof_span = 0;
      frame.prof_burden = 0;
      frame.prof_burden_left = 0;
    }
    // An injected push fault or a genuinely full deque both land on the
    // serial tail below: the child runs in place, exactly as in the serial
    // elision, and the process survives what used to be a capacity abort.
    if (!chaos::should_fail(chaos::Site::kDequePush) &&
        w->deque().push(&frame)) {
      spawn.enter_child(sc, &child_node);
      std::exception_ptr a_eptr;
      try {
        a();
      } catch (...) {
        a_eptr = std::current_exception();
      }
      // a() may have migrated at an inner join: re-fetch the worker and
      // the strand context.
      rt::StrandContext& after_a = rt::strand();
      spawn.leave_child(after_a);
      if (rt::Worker::current()->deque().take_if(&frame) == &frame) {
        // Fast path: not stolen. Mirrors serial execution; no view
        // operations.
        spawn.enter_continuation(after_a);
        if (a_eptr) std::rethrow_exception(a_eptr);
        b();
        spawn.join_inline(rt::strand());
        return;
      }
      // Slow path: the continuation was (or is being) stolen. b runs (or
      // ran) on the thief at rank r+1 (the thief seats it from the frame).
      rt::Worker::join_slow(&frame);
      // Both branches have arrived: the thief published b's totals in the
      // frame (before its release arrival, so they are visible here), and
      // every victim-side protocol cost landed in prof_burden_left.
      obs::ProfileState b_totals{};
      if (spawn.prof) {
        spawn.child.burden += frame.prof_burden_left;
        b_totals = {frame.prof_work, frame.prof_span, frame.prof_burden, 0};
      }
      spawn.join(rt::strand(), b_totals);
      if (a_eptr) std::rethrow_exception(a_eptr);
      // Rethrow-and-clear: this frame's storage is recycled through the
      // tagged allocator, and a stale exception_ptr must never survive into
      // the next activation that lands on the same bytes.
      if (frame.eptr) {
        std::rethrow_exception(std::exchange(frame.eptr, nullptr));
      }
      return;
    }
    ++w->stats()[StatCounter::kSerialDegrades];
  }
  // Serial execution in place, through the identical transitions. Three
  // callers share this tail: the serial elision (no scheduler), a degraded
  // (fiber-less) frame whose worker forces nested spawns serial, and a
  // spawn whose push was refused (deque full or injected chaos fault).
  spawn.enter_child(sc, &child_node);
  a();
  rt::StrandContext& after_a = rt::strand();
  spawn.leave_child(after_a);
  spawn.enter_continuation(after_a);
  b();
  spawn.join_inline(rt::strand());
}

/// Run all invocables, allowing them to execute in parallel; serial order is
/// left-to-right (so order-sensitive reducers behave as in serial code).
template <typename F1, typename F2, typename... Rest>
void parallel_invoke(F1&& f1, F2&& f2, Rest&&... rest) {
  if constexpr (sizeof...(Rest) == 0) {
    fork2join(std::forward<F1>(f1), std::forward<F2>(f2));
  } else {
    fork2join(std::forward<F1>(f1), [&] {
      parallel_invoke(std::forward<F2>(f2), std::forward<Rest>(rest)...);
    });
  }
}

/// Parallel loop over [lo, hi): recursive binary splitting down to `grain`
/// iterations, preserving ascending serial order within and across leaves.
template <typename Body>
void parallel_for(std::int64_t lo, std::int64_t hi, std::int64_t grain,
                  Body&& body) {
  if (hi - lo <= grain) {
    for (std::int64_t i = lo; i < hi; ++i) body(i);
    return;
  }
  const std::int64_t mid = lo + (hi - lo) / 2;
  fork2join([&] { parallel_for(lo, mid, grain, body); },
            [&] { parallel_for(mid, hi, grain, body); });
}

/// Parallel loop with automatic grain selection: aims for ~8 leaf chunks per
/// worker, the usual divide-and-conquer rule of thumb.
template <typename Body>
void parallel_for(std::int64_t lo, std::int64_t hi, Body&& body) {
  std::int64_t workers = 1;
  if (rt::Worker* w = rt::Worker::current()) {
    workers = static_cast<std::int64_t>(w->scheduler()->num_workers());
  }
  const std::int64_t grain = std::max<std::int64_t>(1, (hi - lo) / (8 * workers));
  parallel_for(lo, hi, grain, std::forward<Body>(body));
}

/// A dynamic set of tasks executed in parallel at sync(), with serial order
/// preserved left-to-right (so order-sensitive reducers behave exactly as if
/// the tasks ran in spawn order). Unlike cilk_spawn, children do not begin
/// until sync() — use fork2join directly when the spawning strand should
/// overlap with its children.
class SpawnGroup {
 public:
  template <typename F>
  void spawn(F&& task) {
    tasks_.emplace_back(std::forward<F>(task));
  }

  bool empty() const noexcept { return tasks_.empty(); }
  std::size_t size() const noexcept { return tasks_.size(); }

  /// Run all spawned tasks (parallel, order-preserving) and clear the group.
  void sync() {
    if (!tasks_.empty()) invoke_range(0, tasks_.size());
    tasks_.clear();
  }

  ~SpawnGroup() { sync(); }

 private:
  void invoke_range(std::size_t lo, std::size_t hi) {
    if (hi - lo == 1) {
      tasks_[lo]();
      return;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    fork2join([&] { invoke_range(lo, mid); }, [&] { invoke_range(mid, hi); });
  }

  std::vector<std::function<void()>> tasks_;
};

/// Convenience re-exports.
using rt::Scheduler;
using rt::SchedulerOptions;
inline void run(unsigned num_workers, std::function<void()> root) {
  rt::run(num_workers, std::move(root));
}

}  // namespace cilkm
