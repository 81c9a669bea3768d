// A worker thread: its deque, its scheduling contexts, and one ViewStoreSet
// holding its private reducer-view state for every mechanism. The
// view-transferal / hypermerge engine itself lives in the views layer
// (views/view_store.hpp); the worker only decides WHEN to deposit, install,
// or merge — the join protocol of paper Sections 3 and 7.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "runtime/deque.hpp"
#include "runtime/frame.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "views/view_store.hpp"

namespace cilkm::rt {

class Scheduler;

/// 1024-byte alignment (cf. the OpenCilk __cilkrts_worker layout): adjacent
/// Worker objects never share a cache line OR an adjacent-line prefetch
/// pair, so hardware prefetchers on one worker's hot line cannot induce
/// false sharing with its neighbour. Workers are heap-allocated (C++17
/// aligned operator new honours this).
class alignas(1024) Worker {
 public:
  Worker(Scheduler* sched, unsigned id);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// The worker the calling OS thread belongs to, or nullptr outside runs.
  static Worker* current() noexcept;

  // ---- identity / scheduling ----
  unsigned id() const noexcept { return id_; }
  Scheduler* scheduler() const noexcept { return sched_; }
  WorkerStats& stats() noexcept { return stats_; }
  Deque& deque() noexcept { return deque_; }

  /// True while this worker runs a degraded (fiber-less) frame on its
  /// scheduler stack, join protocol included: fork2join then executes
  /// children serially in place — nothing is pushed, so the frame cannot
  /// park and the OS-thread stack unwinds synchronously (see run_degraded).
  bool serial_spawns() const noexcept { return serial_mode_; }

  /// Monotonic scheduling-progress tick (launches, degraded runs, join
  /// resumptions), read across threads by the run watchdog: a window in
  /// which no worker's tick advances and the run has not quiesced is a
  /// stalled epoch.
  std::uint64_t progress() const noexcept {
    return progress_.load(std::memory_order_relaxed);
  }

  /// Main loop for one run: bootstraps the root (worker 0), then promotes
  /// own-deque frames and steals until the run's done flag rises, parking on
  /// the scheduler's idle gate (after a spin→yield backoff) while no work
  /// exists anywhere.
  void scheduler_loop();

  /// Slow join path for fork2join when the deferred branch was stolen.
  /// May return on a *different* worker (the continuation migrates).
  static void join_slow(SpawnFrame* frame);

  // ---- reducer-view state (all mechanisms) ----
  views::ViewStoreSet& views() noexcept { return views_; }
  const views::ViewStoreSet& views() const noexcept { return views_; }

  /// Base of the emulated TLMM region (installed into TLS by the scheduler).
  std::byte* region_base() noexcept { return views_.spa().base(); }

  /// True iff this worker holds no live view in any store.
  bool ambient_empty() const noexcept { return views_.empty(); }

 private:
  friend class Scheduler;
  friend void fiber_main(void* arg);

  void launch(SpawnFrame* frame_or_null_root);

  /// Graceful-degradation path when no fiber stack could be acquired (real
  /// mmap exhaustion after StackPool's backoff, or an injected chaos
  /// fault): run the frame (or root) on the scheduler's own OS-thread stack
  /// through the same run_root / run_stolen as fiber_main, with
  /// serial_spawns() forcing nested fork2joins serial so nothing below can
  /// push, park, or migrate.
  void run_degraded(SpawnFrame* frame_or_null_root);

  /// The root task, then the run's completion: collapse the views, raise
  /// the done flag, wake every parked worker. Static because the root may
  /// migrate: every worker access after it goes through current().
  static void run_root();

  /// The thief side of the join, for a promoted frame: seat the strand
  /// context from the frame, run the continuation b, publish its profile
  /// totals, then either take the joining steal (the victim already
  /// parked) or deposit and announce the arrival, completing the join if
  /// this side arrived last. Returns the parked continuation to resume, or
  /// nullptr when this side arrived first and the victim resumes. Static
  /// for the same reason as run_root.
  static Context* run_stolen(SpawnFrame* frame);

  /// The last arriver's step: reinstall the victim's (left) views and merge
  /// the thief's deposit on the right, charging the profiler's `burden`.
  void complete_join(SpawnFrame* frame, std::uint64_t& burden);

  /// Switch from the scheduler context into a parked continuation.
  void resume_parked(SpawnFrame* frame);

  void drain_pending();

  /// One steal round: a deduplicated tour over the other workers — in
  /// proximity order under locality stealing (Scheduler::build_victim_round)
  /// — with pause backoff between attempts. Every attempt (hit or miss)
  /// bumps kStealAttempts; a hit is classified into kLocalSteals or
  /// kRemoteSteals by the victim's proximity tier.
  SpawnFrame* try_steal_round();

  /// Two-phase park on the scheduler's idle gate: register, re-check (done
  /// flag, any stealable work), then block. Returns after a wake-up or the
  /// backstop; the caller re-runs the full loop either way. `episode_parks`
  /// is 1 on the first park of an idle episode (counted in kParks) and grows
  /// with each consecutive re-park, escalating the backstop.
  void park_idle(unsigned episode_parks);

  // The join protocol's view merges, each traced here exactly once (the
  // views layer knows nothing about workers or tracing) and timed by
  // protocol_step (worker.cpp): `in` is merged on the left or right of the
  // ambient views, and the time is charged to the profiler's `burden`.
  void merge_left(ViewSetDeposit* in, std::uint64_t& burden);
  void merge_right(ViewSetDeposit* in, std::uint64_t& burden);

  // Hot/cold member layout (see README "Steal path"). First line: identity
  // and the fiber-switch state touched on every launch/park/resume.
  unsigned id_;
  Scheduler* sched_;
  Context sched_ctx_;
  void* sched_tsan_ = nullptr;  // TSan state of the scheduler-loop stack
  Fiber* current_fiber_ = nullptr;
  Fiber* pending_recycle_ = nullptr;
  LocalFiberCache fiber_cache_;  // lock-free front of the node-sharded pool
  SpawnFrame* pending_park_ = nullptr;
  SpawnFrame* launch_frame_ = nullptr;
  bool serial_mode_ = false;  // degraded frame in flight (see serial_spawns)

  /// Written (relaxed) only by this worker, read by the watchdog thread.
  std::atomic<std::uint64_t> progress_{0};

  /// Burden seed for the next launch (profiling only): the steal latency
  /// that delivered the frame about to be launched, or 0 for a self-pop.
  /// run_stolen charges it to the stolen branch's burdened span.
  std::uint64_t launch_burden_ns_ = 0;

  // Steal-side state, on its own line(s): touched only while idle-stealing,
  // so steal rounds don't bounce the fiber-switch line above.
  alignas(kCacheLineSize) Xoshiro256 rng_;
  std::vector<unsigned> round_;  // scratch victim sequence, reused per round
  unsigned steal_batch_limit_;   // per-theft frame cap (from SchedulerOptions)
  SpawnFrame* steal_buf_[Deque::kMaxStealBatch];  // steal_batch scratch

  // Stats on their own line: bumped from both the owner path (self-pops,
  // view work) and the steal path, but never by other threads.
  alignas(kCacheLineSize) WorkerStats stats_;

  views::ViewStoreSet views_{&stats_};

  Deque deque_;  // large (512 KiB); Worker objects are heap-allocated

  static_assert(alignof(Deque) == kCacheLineSize,
                "deque hot lines rely on cache-line alignment");
};

static_assert(alignof(Worker) == 1024,
              "Worker must be 1024-byte aligned against prefetcher-induced "
              "false sharing (cf. the __cilkrts_worker exemplar)");

/// Install the worker-aware assert_fail context hook (worker id + the
/// failing strand's pedigree). Idempotent; Scheduler's constructor calls it
/// so every runtime-linked binary gets diagnosable aborts.
void install_assert_context() noexcept;

/// TLS pointer to the calling thread's worker. constinit and initial-exec:
/// every read is one fresh %fs-relative load with no TLS-wrapper call, so
/// a strand that migrated at a join reads its new thread's worker (a
/// __tls_get_addr address may be reused across the migrating call).
extern constinit thread_local Worker* tls_worker
    __attribute__((tls_model("initial-exec")));

inline Worker* Worker::current() noexcept { return tls_worker; }

}  // namespace cilkm::rt
