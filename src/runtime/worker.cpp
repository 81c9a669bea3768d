#include "runtime/worker.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

#include "chaos/chaos.hpp"
#include "obs/profiler.hpp"
#include "runtime/sanitizer.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"
#include "topo/topology.hpp"
#include "util/assert.hpp"
#include "util/timing.hpp"

namespace cilkm::rt {

constinit thread_local Worker* tls_worker
    __attribute__((tls_model("initial-exec"))) = nullptr;

Worker::Worker(Scheduler* sched, unsigned id) : id_(id), sched_(sched) {
  // 0 = "half": take ceil(avail/2) up to the deque's transaction cap.
  const unsigned batch = sched->options().steal_batch;
  steal_batch_limit_ =
      batch == 0 ? Deque::kMaxStealBatch : std::min(batch, Deque::kMaxStealBatch);
}

Worker::~Worker() {
  // Hand cached fibers back to the node shards; the pool (and its trim
  // policy) outlives any one worker.
  StackPool::instance().flush(fiber_cache_);
}

// ---------------------------------------------------------------------------
// Scheduling: fibers, parking, stealing. All view bookkeeping is delegated
// to views_ (the ViewStoreSet); this file only sequences the join protocol.
// ---------------------------------------------------------------------------

namespace {

/// One step of the join protocol, timed for the profiler: the view
/// operations here allocate (monoid combines, table growth) outside any
/// SpawnFrame::eptr catch, so injected allocator faults are suppressed for
/// the step; its chaos delay site still fires. With the profiler on, the
/// step's time is charged to `burden`; off, the profiler costs one relaxed
/// load and a branch. The suppression scope never spans a context switch:
/// the count belongs to the OS thread.
template <typename Op>
void protocol_step(chaos::Site delay, std::uint64_t& burden, Op&& op) {
  chaos::SuppressFaults suppress;
  chaos::maybe_delay(delay);
  if (!obs::profiler_enabled()) {
    op();
    return;
  }
  const std::uint64_t t0 = now_ns();
  op();
  burden += now_ns() - t0;
}

}  // namespace

void Worker::merge_left(ViewSetDeposit* in, std::uint64_t& burden) {
  protocol_step(chaos::Site::kMergeDelay, burden, [&] {
    Tracer::instance().record(id_, TraceEvent::kMerge, in);
    views_.merge_deposit_left(in);
  });
}

void Worker::merge_right(ViewSetDeposit* in, std::uint64_t& burden) {
  protocol_step(chaos::Site::kMergeDelay, burden, [&] {
    Tracer::instance().record(id_, TraceEvent::kMerge, in);
    views_.merge_deposit_right(in);
  });
}

void Worker::complete_join(SpawnFrame* frame, std::uint64_t& burden) {
  protocol_step(chaos::Site::kInstallDelay, burden,
                [&] { views_.install_deposit(&frame->left_views); });
  merge_right(&frame->right_views, burden);
}

void Worker::resume_parked(SpawnFrame* frame) {
  current_fiber_ = frame->parked_fiber;
  tsan::switch_to(frame->parked_fiber->tsan_fiber);
  cilkm_ctx_switch(&sched_ctx_, &frame->parked);
}

void Worker::drain_pending() {
  if (pending_recycle_ != nullptr) {
    StackPool::instance().release(pending_recycle_, &fiber_cache_);
    pending_recycle_ = nullptr;
  }
}

void Worker::run_root() {
  // Every run() starts from the root pedigree, so pedigrees (and DPRNG
  // streams) are reproducible per run, not per pool lifetime.
  const bool prof = obs::profiler_enabled();
  StrandContext& sc = strand();
  sc.ped = {};
  if (prof) {
    // The root strand opens the run's outermost subcomputation; its final
    // combined state IS the run's work/span/burden.
    sc.prof = {};
    obs::strand_begin(sc.prof);
  }
  Scheduler* sched = Worker::current()->sched_;
  try {
    sched->root_fn_();
  } catch (...) {
    sched->root_eptr_ = std::current_exception();
  }
  Worker* w = Worker::current();  // the root may have migrated
  if (prof) {
    StrandContext& done = strand();
    obs::strand_end(done.prof);
    obs::Profiler::instance().record_run(done.prof);
  }
  w->views_.collapse_into_leftmosts();
  Tracer::instance().record(w->id_, TraceEvent::kRootDone, nullptr);
  sched->done_.store(true, std::memory_order_release);
  // Idle workers may be parked on the lot; they must all observe the done
  // flag to quiesce the run.
  w->stats_[StatCounter::kWakes] += sched->parking_.wake_all();
}

Context* Worker::run_stolen(SpawnFrame* frame) {
  // A promoted frame resumes the continuation strand: rank ped_rank + 1
  // under the spawn-time prefix, exactly where the victim's fast path would
  // have resumed it. Seating the strand context here covers thieves and
  // self-pops, fibered and degraded launches alike.
  const bool prof = obs::profiler_enabled();
  StrandContext& sc = strand();
  sc.ped = {frame->ped_parent, frame->ped_rank + 1};
  if (prof) {
    // The stolen branch is a fresh subcomputation; seed its burden with the
    // steal latency that delivered this frame (0 for a self-pop), so the
    // scheduling cost of getting here is charged to this path.
    sc.prof = {};
    sc.prof.burden = Worker::current()->launch_burden_ns_;
    obs::strand_begin(sc.prof);
  }
  try {
    frame->invoke_b(frame);
  } catch (...) {
    frame->eptr = std::current_exception();
  }
  Worker* w = Worker::current();  // b may have migrated
  if (prof) {
    // Publish b's totals in the frame BEFORE any arrival announcement: the
    // release fetch_add below (or the victim's acquire load of arrivals)
    // makes them visible to whoever resumes the continuation. Burden that
    // the steps below add after an arrival is read by the continuation
    // this thread resumes, so it is ordered before that read too.
    StrandContext& done = strand();
    obs::strand_end(done.prof);
    frame->prof_work = done.prof.work;
    frame->prof_span = done.prof.span;
    frame->prof_burden = done.prof.burden;
  }
  if (frame->arrivals.load(std::memory_order_acquire) == 1) {
    // The victim has already parked (its arrival is announced only after
    // its deposit and context save are complete). Merge its serially
    // earlier views on the left of ours and perform the joining steal —
    // resume the parked continuation on this worker, no deposit needed.
    w->merge_left(&frame->left_views, frame->prof_burden);
  } else {
    // Deposit our views on the right, THEN announce the arrival: the other
    // side must never observe a half-built deposit.
    Tracer::instance().record(w->id_, TraceEvent::kDepositRight, frame);
    protocol_step(chaos::Site::kDepositDelay, frame->prof_burden,
                  [&] { w->views_.deposit_ambient(&frame->right_views); });
    if (frame->arrivals.fetch_add(1, std::memory_order_acq_rel) == 0) {
      return nullptr;  // first arriver: the victim resumes the continuation
    }
    // The victim parked in the meantime and we arrived last: both deposits
    // exist and our ambient is empty.
    w->complete_join(frame, frame->prof_burden);
  }
  ++w->stats_[StatCounter::kJoiningSteals];
  Tracer::instance().record(w->id_, TraceEvent::kResumeByThief, frame);
  return &frame->parked;
}

/// Trampoline for every fiber: runs either the root task or a promoted
/// frame's continuation, then switches to whatever runs next. Never returns.
void fiber_main(void* arg) {
  auto* self = static_cast<Fiber*>(arg);
  Worker* w = Worker::current();
  w->drain_pending();
  SpawnFrame* frame = std::exchange(w->launch_frame_, nullptr);
  Context* resume = nullptr;
  if (frame == nullptr) {
    Worker::run_root();
  } else {
    resume = Worker::run_stolen(frame);
  }
  Worker* w2 = Worker::current();  // the strand may have migrated
  w2->pending_recycle_ = w2->current_fiber_;
  if (resume != nullptr) {
    w2->current_fiber_ = frame->parked_fiber;
    tsan::switch_to(frame->parked_fiber->tsan_fiber);
    cilkm_ctx_switch(&self->ctx, resume);
  } else {
    // Root done, or first arriver: back to this worker's scheduler loop.
    w2->current_fiber_ = nullptr;
    tsan::switch_to(w2->sched_tsan_);
    cilkm_ctx_switch(&self->ctx, &w2->sched_ctx_);
  }
  __builtin_unreachable();
}

void Worker::launch(SpawnFrame* frame_or_null_root) {
  progress_.fetch_add(1, std::memory_order_relaxed);
  Tracer::instance().record(id_, TraceEvent::kLaunch, frame_or_null_root);
  Fiber* fiber = nullptr;
  // The fiber consult is keyed on the frame's pedigree SNAPSHOT, not this
  // thread's pedigree slot: on the scheduler context the slot may reference
  // chain nodes on stacks that are already recycled, and the snapshot is
  // what makes the decision schedule-independent (the frame's identity,
  // not who launches it).
  const PedigreeState frame_ped =
      frame_or_null_root != nullptr
          ? PedigreeState{frame_or_null_root->ped_parent,
                          frame_or_null_root->ped_rank}
          : PedigreeState{};
  if (!chaos::should_fail(chaos::Site::kFiberAcquire, frame_ped)) {
    // The fiber-header allocation goes through the internal allocator;
    // suppress injected refill faults for it (a throw here would escape
    // into the scheduler loop). Real exhaustion returns nullptr instead.
    chaos::SuppressFaults suppress;
    fiber = StackPool::instance().acquire(&fiber_cache_);
  }
  if (fiber == nullptr) {
    // Out of fiber stacks (or an injected fault said so): run the frame on
    // this OS thread's own stack instead of aborting.
    ++stats_[StatCounter::kFiberFallbacks];
    run_degraded(frame_or_null_root);
    return;
  }
  ++stats_[StatCounter::kFibersAllocated];
  launch_frame_ = frame_or_null_root;
  current_fiber_ = fiber;
  tsan::switch_to(fiber->tsan_fiber);
  cilkm_ctx_start(&sched_ctx_, fiber->stack_top, &fiber_main, fiber);
  // Control returns here when the fiber parks or finishes.
}

void Worker::run_degraded(SpawnFrame* frame) {
  serial_mode_ = true;
  if (frame == nullptr) {
    run_root();  // the entire run executes serially on this thread
    serial_mode_ = false;
    return;
  }
  const bool resume = run_stolen(frame) != nullptr;
  serial_mode_ = false;
  // Resuming switches into the parked continuation exactly as the
  // scheduler loop's kResumeSelf path does; control returns here when some
  // fiber on this thread next yields to the scheduler context, and the
  // loop's drain_pending picks up whatever that fiber left. A first
  // arriver just returns to the loop.
  if (resume) resume_parked(frame);
}

void Worker::join_slow(SpawnFrame* frame) {
  Worker* w = Worker::current();
  // Victim-side protocol costs land in prof_burden_left, which the caller
  // (fork2join's slow path) reads on whichever thread resumes it: directly
  // below, or after the park via the arrival announcement (scheduler loop,
  // release fetch_add) that orders these stores before a thief's resume.
  if (frame->arrivals.load(std::memory_order_acquire) == 1) {
    // The thief has already deposited and left: merge its views on the
    // right of ours and carry on without parking.
    w->merge_right(&frame->right_views, frame->prof_burden_left);
    return;
  }
  // Park: transfer our views (serially earlier than the thief's) into the
  // frame, suspend this fiber, and let the scheduler announce our arrival
  // once the context is fully saved.
  Tracer::instance().record(w->id(), TraceEvent::kDepositLeft, frame);
  protocol_step(chaos::Site::kDepositDelay, frame->prof_burden_left,
                [&] { w->views_.deposit_ambient(&frame->left_views); });
  Tracer::instance().record(w->id(), TraceEvent::kPark, frame);
  frame->parked_fiber = w->current_fiber_;
  w->pending_park_ = frame;
  tsan::switch_to(w->sched_tsan_);
  cilkm_ctx_switch(&frame->parked, &w->sched_ctx_);
  // Resumed by the last arriver — possibly on a different worker.
  Worker::current()->drain_pending();
}

SpawnFrame* Worker::try_steal_round() {
  const unsigned n = sched_->num_workers();
  if (n <= 1) return nullptr;
  // One deduplicated tour: every other worker probed at most once, nearest
  // proximity tiers first (shuffled within tiers; see build_victim_round).
  // Capped so wide oversubscribed pools still re-check the done flag
  // promptly.
  sched_->build_victim_round(id_, &round_);
  const auto attempts =
      std::min<std::size_t>(round_.size(), Scheduler::kMaxStealProbes);
  for (std::size_t a = 0; a < attempts; ++a) {
    const unsigned victim_id = round_[a];
    ++stats_[StatCounter::kStealAttempts];
    // Timestamp per attempt, not per round: the per-tier latency sample
    // must cover only the successful theft, or failed probes of other
    // (possibly nearer) victims and round construction would be charged
    // to the winning victim's tier and skew tier-vs-tier comparisons.
    const std::uint64_t attempt_start = now_ns();
    const unsigned got = sched_->workers_[victim_id]->deque_.steal_batch(
        steal_buf_, steal_batch_limit_);
    if (got > 0) {
      // Tier 0/1 (same core or package) is a cache-near theft; tier 2
      // crossed a package or NUMA boundary.
      const std::uint8_t tier = sched_->victim_tier(id_, victim_id);
      const bool local = tier < static_cast<std::uint8_t>(
                                    topo::Topology::Proximity::kRemote);
      ++stats_[local ? StatCounter::kLocalSteals : StatCounter::kRemoteSteals];
      stats_[StatCounter::kStolenFrames] += got;
      const std::uint64_t steal_lat = now_ns() - attempt_start;
      stats_.record_steal(tier, steal_lat);
      launch_burden_ns_ = steal_lat;  // burden seed if this frame launches
      // Injected delay between claiming the frames and publishing /
      // launching them — the window a preempted thief would leave the
      // protocol in. Keyed on the promoted frame's pedigree snapshot (this
      // thread's pedigree slot is scheduler-context here).
      chaos::maybe_delay(chaos::Site::kStealDelay,
                         PedigreeState{steal_buf_[0]->ped_parent,
                                       steal_buf_[0]->ped_rank});
      if (got > 1) {
        // Steal-half tail: our deque is empty (we only steal when it is),
        // so a bulk push of the younger frames oldest-first preserves the
        // depth order thieves and our own pops rely on. The push is
        // wake-suppressed; instead ONE ParkingLot call wakes up to got-1
        // nearest sleepers to fan the new work out without got-1 serial
        // wake chains.
        deque_.push_bulk(steal_buf_ + 1, got - 1);
        const std::uint32_t woken =
            sched_->parking_.wake(got - 1, sched_->victim_tier_[id_].data());
        stats_[StatCounter::kWakes] += woken;
        if (woken > 1) stats_[StatCounter::kBatchWakes] += woken - 1;
      }
      return steal_buf_[0];  // promote the oldest stolen frame
    }
    cpu_relax();
  }
  return nullptr;
}

void Worker::park_idle(unsigned episode_parks) {
  ParkingLot& lot = sched_->parking_;
  const std::uint32_t ticket = lot.prepare_park(id_);
  // Registered as a sleeper — re-check everything a producer could have
  // published before it saw us: the done flag and every deque. Publications
  // after this point are guaranteed to observe the registration and wake.
  if (sched_->done_.load(std::memory_order_acquire) ||
      sched_->work_available()) {
    // A producer may have targeted us already; cancel forwards its wake
    // credit to the next sleeper, and those forwards count as wake-ups we
    // delivered.
    stats_[StatCounter::kWakes] += lot.cancel_park(id_);
    return;
  }
  // kParks counts idle EPISODES, not poll cycles: re-parking after a
  // backstop expiry (episode_parks > 1) is the same episode.
  if (episode_parks == 1) ++stats_[StatCounter::kParks];
  // The backstop bounds the damage of any missed wake-up; in correct
  // operation only a wake ends the wait. It escalates exponentially
  // (2ms → 64ms) across one episode so long-idle workers converge to a
  // handful of spurious wake-ups per second instead of a 500 Hz poll.
  const auto backstop =
      std::chrono::milliseconds(2L << std::min(episode_parks - 1, 5u));
  lot.park(id_, ticket, backstop);
}

void Worker::scheduler_loop() {
  // Record this thread's own TSan identity so fibers can switch back to the
  // scheduler stack. The pool thread persists across runs, so this is
  // idempotent after the first run.
  sched_tsan_ = tsan::current_fiber();
  const bool is_bootstrap = (id_ == 0);
  if (is_bootstrap) launch(nullptr);  // run the root task

  // Exponential idle backoff: pause-spin rounds, then yields, then parking.
  constexpr unsigned kSpinRounds = 48;
  constexpr unsigned kYieldRounds = 8;
  unsigned idle_rounds = 0;

  while (true) {
    drain_pending();
    if (pending_park_ != nullptr) {
      SpawnFrame* frame = pending_park_;
      pending_park_ = nullptr;
      if (frame->arrivals.fetch_add(1, std::memory_order_acq_rel) == 1) {
        // The thief finished in the meantime: both deposits exist. Take our
        // own views back, merge the thief's on the right, and resume the
        // continuation ourselves (on this thread, so the burden stores are
        // ordered before its read).
        complete_join(frame, frame->prof_burden_left);
        progress_.fetch_add(1, std::memory_order_relaxed);
        Tracer::instance().record(id_, TraceEvent::kResumeSelf, frame);
        resume_parked(frame);
        // The resumed continuation ran (and may have spawned): restart the
        // idle backoff from the spin phase rather than parking immediately.
        idle_rounds = 0;
        continue;
      }
      // We arrived first; the thief will resume the continuation.
    }
    if (sched_->done_.load(std::memory_order_acquire)) break;

    CILKM_DCHECK(ambient_empty(), "stealing with non-empty ambient views");
    SpawnFrame* frame = deque_.take_any();
    if (frame != nullptr) {
      // Promoting a frame from our own deque is not a theft: count and
      // trace it separately so the steal rate reported for the paper's
      // figures (and total_steals()) measures genuine cross-worker traffic.
      ++stats_[StatCounter::kSelfPops];
      launch_burden_ns_ = 0;  // no steal latency to burden a self-pop with
      Tracer::instance().record(id_, TraceEvent::kSelfPop, frame);
    } else {
      frame = try_steal_round();
      if (frame != nullptr) {
        ++stats_[StatCounter::kSteals];
        Tracer::instance().record(id_, TraceEvent::kSteal, frame);
      }
    }
    if (frame != nullptr) {
      idle_rounds = 0;
      frame->stolen.store(true, std::memory_order_relaxed);
      launch(frame);
      continue;
    }
    // Nothing runnable anywhere we looked: back off, then park.
    ++idle_rounds;
    if (idle_rounds <= kSpinRounds) {
      for (unsigned i = 0; i < 1u << std::min(idle_rounds / 8, 5u); ++i) {
        cpu_relax();
      }
    } else if (idle_rounds <= kSpinRounds + kYieldRounds) {
      std::this_thread::yield();
    } else {
      park_idle(idle_rounds - kSpinRounds - kYieldRounds);
    }
  }
}

namespace {

/// assert_fail context: which worker died, executing which strand. Uses
/// only async-signal-tolerant pieces (fprintf, a bounded stack array) since
/// the process is already aborting.
void print_assert_context(std::FILE* out) {
  Worker* w = Worker::current();
  if (w == nullptr) {
    std::fprintf(out, "  on an external thread (no worker)\n");
    return;
  }
  std::fprintf(out, "  on worker %u", w->id());
  constexpr unsigned kMaxDepth = 128;
  std::uint64_t ranks[kMaxDepth];
  unsigned depth = 0;
  const PedigreeState& ped = strand().ped;
  const PedigreeNode* n = ped.parent;
  for (; n != nullptr && depth < kMaxDepth; n = n->parent) {
    ranks[depth++] = n->rank;
  }
  std::fprintf(out, ", pedigree (root->leaf):");
  if (n != nullptr) std::fprintf(out, " ...");  // deeper than the buffer
  for (unsigned i = depth; i-- > 0;) {
    std::fprintf(out, " %llu", static_cast<unsigned long long>(ranks[i]));
  }
  std::fprintf(out, " %llu\n", static_cast<unsigned long long>(ped.rank));
}

}  // namespace

void install_assert_context() noexcept {
  ::cilkm::detail::assert_context_fn = &print_assert_context;
}

}  // namespace cilkm::rt
