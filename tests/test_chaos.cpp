// Deterministic fault injection (src/chaos/) and the graceful-degradation
// paths it exercises: refused deque pushes run the child serially in place,
// fiber-stack exhaustion falls back to the scheduler's own stack, injected
// allocator OOM propagates as std::bad_alloc through the SpawnFrame::eptr
// join protocol to Scheduler::run — and none of them abort the process or
// poison the pool. The pedigree-keyed decisions make the injected fault set
// a pure function of (seed, site, strand), which the cross-schedule digest
// test pins across worker counts and steal-batch settings.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "chaos/chaos.hpp"
#include "mem/internal_alloc.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "runtime/deque.hpp"
#include "runtime/frame.hpp"
#include "util/dprng.hpp"
#include "views/flat_registry.hpp"

namespace {

namespace chaos = cilkm::chaos;
using cilkm::StatCounter;

/// Disarm on scope exit even when an assertion fails mid-test: armed chaos
/// leaking into the next TEST would make its failures non-local.
struct ChaosGuard {
  explicit ChaosGuard(const chaos::Config& cfg) { chaos::arm(cfg); }
  ~ChaosGuard() { chaos::disarm(); }
};

/// Binary fork tree: 2^depth leaves, each adding 1 into the reducer.
template <typename Red>
std::uint64_t count_tree(Red& red, unsigned depth) {
  if (depth == 0) {
    red.view() += 1;
    return 1;
  }
  std::uint64_t l = 0, r = 0;
  cilkm::fork2join([&] { l = count_tree(red, depth - 1); },
                   [&] { r = count_tree(red, depth - 1); });
  return l + r;
}

// ---------------------------------------------------------------- site masks

TEST(ChaosSites, ParseSites) {
  std::uint32_t mask = 0;
  EXPECT_TRUE(chaos::parse_sites("alloc", &mask));
  EXPECT_EQ(mask, chaos::site_bit(chaos::Site::kAllocRefill));
  EXPECT_TRUE(chaos::parse_sites("push,fiber", &mask));
  EXPECT_EQ(mask, chaos::site_bit(chaos::Site::kDequePush) |
                      chaos::site_bit(chaos::Site::kFiberAcquire));
  EXPECT_TRUE(chaos::parse_sites("faults", &mask));
  EXPECT_EQ(mask, chaos::kFaultSites);
  EXPECT_TRUE(chaos::parse_sites("delays", &mask));
  EXPECT_EQ(mask, chaos::kDelaySites);
  EXPECT_TRUE(chaos::parse_sites("all", &mask));
  EXPECT_EQ(mask, chaos::kAllSites);
  EXPECT_TRUE(chaos::parse_sites("merge,deposit,install,steal", &mask));
  EXPECT_EQ(mask, chaos::kDelaySites);

  const std::uint32_t before = mask;
  EXPECT_FALSE(chaos::parse_sites("bogus", &mask));
  EXPECT_FALSE(chaos::parse_sites("push,bogus", &mask));
  EXPECT_FALSE(chaos::parse_sites("", &mask));
  EXPECT_EQ(mask, before);  // untouched on failure
}

TEST(ChaosSites, DisarmedConsultsAreFree) {
  chaos::disarm();
  EXPECT_FALSE(chaos::enabled());
  // Outside a worker (and disarmed), nothing fires and nothing counts.
  chaos::reset_stats();
  EXPECT_FALSE(chaos::should_fail(chaos::Site::kDequePush));
  chaos::maybe_delay(chaos::Site::kMergeDelay);
  EXPECT_EQ(chaos::site_stats(chaos::Site::kDequePush).consults, 0u);
  EXPECT_EQ(chaos::site_stats(chaos::Site::kMergeDelay).consults, 0u);
}

// --------------------------------------------------------- deque saturation

TEST(ChaosDegradation, DequePushReportsFullInsteadOfAborting) {
  // Deque is ~512 KiB of atomics; keep it off the test's stack.
  auto deque = std::make_unique<cilkm::rt::Deque>();
  cilkm::rt::SpawnFrame frame;
  for (std::size_t i = 0; i < cilkm::rt::Deque::kCapacity; ++i) {
    ASSERT_TRUE(deque->push(&frame));
  }
  // At capacity the push is refused, not fatal — fork2join runs the child
  // serially in place on this path.
  EXPECT_FALSE(deque->push(&frame));
  EXPECT_FALSE(deque->push(&frame));
  // Popping one frame makes room again.
  EXPECT_NE(deque->take_any(), nullptr);
  EXPECT_TRUE(deque->push(&frame));
}

TEST(ChaosDegradation, RefusedPushesDegradeToSerialAndRecover) {
  cilkm::Scheduler sched(2);
  chaos::Config cfg;
  cfg.p = 1.0;  // every push refused
  cfg.sites = chaos::site_bit(chaos::Site::kDequePush);
  cfg.seed = 0x1111;
  std::uint64_t sum = 0;
  {
    ChaosGuard guard(cfg);
    cilkm::reducer<cilkm::op_add<std::uint64_t>, cilkm::mm_policy> red;
    sched.run([&] { count_tree(red, 10); });
    sum = red.get_value();
  }
  EXPECT_EQ(sum, 1024u);
  // Nothing was ever pushed, so nothing could be stolen; every spawn took
  // the serial tail.
  const cilkm::WorkerStats stats = sched.aggregate_stats();
  EXPECT_EQ(stats[StatCounter::kSteals], 0u);
  EXPECT_GE(stats[StatCounter::kSerialDegrades], 1023u);
  EXPECT_GT(chaos::site_stats(chaos::Site::kDequePush).injected, 0u);

  // Disarmed, the same pool schedules normally again.
  cilkm::reducer<cilkm::op_add<std::uint64_t>, cilkm::mm_policy> red;
  sched.run([&] { count_tree(red, 10); });
  EXPECT_EQ(red.get_value(), 1024u);
}

// ------------------------------------------------------- fiber exhaustion

TEST(ChaosDegradation, FiberFaultsFallBackToTheSchedulerStack) {
  cilkm::Scheduler sched(4);
  // p = 1: every launch (including the root's) degrades to a stackless
  // serial run on the worker's own OS-thread stack.
  {
    chaos::Config cfg;
    cfg.p = 1.0;
    cfg.sites = chaos::site_bit(chaos::Site::kFiberAcquire);
    cfg.seed = 0x2222;
    ChaosGuard guard(cfg);
    cilkm::reducer<cilkm::op_add<std::uint64_t>, cilkm::hypermap_policy> red;
    sched.run([&] { count_tree(red, 10); });
    EXPECT_EQ(red.get_value(), 1024u);
    EXPECT_GE(sched.aggregate_stats()[StatCounter::kFiberFallbacks], 1u);
  }
  sched.reset_stats();
  // p = 0.5: a mix of fibered launches and degraded frames mid-run, with
  // real steals interleaving both kinds. The reduction must still be exact.
  {
    chaos::Config cfg;
    cfg.p = 0.5;
    cfg.sites = chaos::site_bit(chaos::Site::kFiberAcquire);
    cfg.seed = 0x2223;
    ChaosGuard guard(cfg);
    for (int round = 0; round < 5; ++round) {
      cilkm::reducer<cilkm::op_add<std::uint64_t>, cilkm::mm_policy> red;
      sched.run([&] { count_tree(red, 11); });
      EXPECT_EQ(red.get_value(), 2048u);
    }
  }
  // Clean run afterwards on the same pool.
  cilkm::reducer<cilkm::op_add<std::uint64_t>, cilkm::flat_policy> red;
  sched.run([&] { count_tree(red, 10); });
  EXPECT_EQ(red.get_value(), 1024u);
}

/// Irregular fork tree whose shape is chosen by DPRNG draws: every node
/// draws, every leaf logs (draw, tail) by path and yields to provoke steals.
/// A pedigree slip in any frame changes a draw, and with it the tree.
using DrawLog = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

void draw_tree(cilkm::Dprng& rng, unsigned depth, std::uint64_t path,
               DrawLog* log) {
  const std::uint64_t r = rng.next();
  if (depth == 0 || r % 3 == 0) {
    (*log)[static_cast<std::size_t>(path)] = {r, rng.next()};
    std::this_thread::yield();
    return;
  }
  cilkm::fork2join([&] { draw_tree(rng, depth - 1, 2 * path + 1, log); },
                   [&] { draw_tree(rng, depth - 1, 2 * path + 2, log); });
}

DrawLog tree_draws(std::uint64_t seed, unsigned depth) {
  cilkm::Dprng rng(seed);
  DrawLog log(std::size_t{1} << (depth + 1), {0, 0});
  draw_tree(rng, depth, 0, &log);
  return log;
}

chaos::Config fiber_faults(double p) {
  chaos::Config cfg;
  cfg.p = p;
  cfg.sites = chaos::site_bit(chaos::Site::kFiberAcquire);
  cfg.seed = 0x2223;
  return cfg;
}

TEST(ChaosDegradation, DegradedFramesKeepPedigreeStreams) {
  // The serial elision runs on this (non-worker) thread: never injected.
  constexpr std::uint64_t kSeed = 0xd1ced1ce;
  DrawLog expect;
  {
    cilkm::rt::PedigreeScope scope;
    expect = tree_draws(kSeed, 9);
  }
  cilkm::Scheduler sched(4);
  for (const double p : {1.0, 0.5}) {
    ChaosGuard guard(fiber_faults(p));
    sched.reset_stats();
    for (int round = 0; round < 3; ++round) {
      DrawLog got;
      sched.run([&] { got = tree_draws(kSeed, 9); });
      EXPECT_EQ(got, expect) << "p=" << p << " round " << round;
    }
    // p = 1 degrades the root, so the whole run is one degraded frame;
    // p = 0.5 mixes fibered and degraded frames under real steals.
    const cilkm::WorkerStats stats = sched.aggregate_stats();
    EXPECT_GE(stats[StatCounter::kFiberFallbacks], 1u) << "p=" << p;
    if (p < 1.0) EXPECT_GE(stats[StatCounter::kFibersAllocated], 1u);
  }
}

/// Disable and clear the process-wide profiler on scope exit.
struct ProfilerGuard {
  ProfilerGuard() {
    cilkm::obs::Profiler::instance().reset();
    cilkm::obs::Profiler::instance().enable();
  }
  ~ProfilerGuard() {
    cilkm::obs::Profiler::instance().disable();
    cilkm::obs::Profiler::instance().reset();
  }
};

TEST(ChaosDegradation, DegradedFramesKeepProfileBounds) {
  cilkm::Scheduler sched(4);
  for (const double p : {1.0, 0.5}) {
    ChaosGuard guard(fiber_faults(p));
    ProfilerGuard profiling;
    sched.run([&] { tree_draws(0xd1ced1ce, 9); });
    const cilkm::obs::RunProfile prof =
        cilkm::obs::Profiler::instance().totals();
    ASSERT_EQ(prof.runs, 1u) << "p=" << p;
    EXPECT_GT(prof.span_ns, 0u) << "p=" << p;
    EXPECT_LE(prof.span_ns, prof.work_ns) << "p=" << p;
    EXPECT_GE(prof.burdened_span_ns, prof.span_ns) << "p=" << p;
  }
}

// -------------------------------------------------------- allocator OOM

TEST(ChaosDegradation, InjectedAllocOomPropagatesAsBadAlloc) {
  auto& alloc = cilkm::mem::InternalAlloc::instance();
  cilkm::Scheduler sched(1);
  sched.run([] {});  // warm the pool before arming
  chaos::Config cfg;
  cfg.p = 1.0;  // the first unsuppressed refill on a worker throws
  cfg.sites = chaos::site_bit(chaos::Site::kAllocRefill);
  cfg.seed = 0x3333;
  std::vector<void*> blocks;
  blocks.reserve(100000);
  {
    ChaosGuard guard(cfg);
    // Allocation pressure inside the run forces a magazine refill on the
    // worker thread; the injected bad_alloc unwinds through the root's
    // eptr slot and rethrows here — the process does NOT abort.
    EXPECT_THROW(
        sched.run([&] {
          for (int i = 0; i < 100000; ++i) {
            blocks.push_back(
                alloc.allocate(64, cilkm::mem::AllocTag::kGeneral));
          }
        }),
        std::bad_alloc);
    EXPECT_GT(chaos::site_stats(chaos::Site::kAllocRefill).injected, 0u);
  }
  for (void* p : blocks) {
    alloc.deallocate(p, 64, cilkm::mem::AllocTag::kGeneral, nullptr);
  }
  // The throwing run left the pool quiesced and reusable.
  cilkm::reducer<cilkm::op_add<std::uint64_t>, cilkm::mm_policy> red;
  sched.run([&] { count_tree(red, 8); });
  EXPECT_EQ(red.get_value(), 256u);
}

// ------------------------------------------------ flat-id exhaustion

TEST(FlatRegistryGraceful, IdExhaustionThrowsAndRecovers) {
  auto& allocator = cilkm::views::FlatIdAllocator::instance();
  const std::size_t live_before = allocator.live();
  std::vector<std::uint32_t> ids;
  ids.reserve(cilkm::views::kMaxFlatIds);
  // Exhaust the id space. Some ids may already be live elsewhere in this
  // process; allocate until the ceiling answers.
  try {
    for (std::uint64_t i = 0; i <= cilkm::views::kMaxFlatIds; ++i) {
      ids.push_back(allocator.allocate());
    }
    FAIL() << "id space never reported exhaustion";
  } catch (const std::bad_alloc&) {
  }
  // The failed allocation changed nothing: still exhausted, still throwing,
  // and live() reflects exactly the successful allocations.
  EXPECT_THROW(allocator.allocate(), std::bad_alloc);
  EXPECT_EQ(allocator.live(), live_before + ids.size());
  for (const std::uint32_t id : ids) allocator.free(id);
  EXPECT_EQ(allocator.live(), live_before);
  // Freed ids recycle normally after the exhaustion episode.
  const std::uint32_t id = allocator.allocate();
  EXPECT_LT(id, cilkm::views::kMaxFlatIds);
  allocator.free(id);
}

// ---------------------------------------------- deterministic fault sets

/// One run under push-site injection, returning the site's statistics.
/// Push consults happen once per spawn on the worker path, so both the
/// consult count and the injected (strand) set are schedule-independent.
chaos::SiteStats push_fault_run(unsigned workers, unsigned steal_batch) {
  cilkm::SchedulerOptions so;
  so.steal_batch = steal_batch;
  cilkm::Scheduler sched(workers, so);
  chaos::Config cfg;
  cfg.p = 0.05;
  cfg.seed = 0xfeedfacef00dULL;
  cfg.sites = chaos::site_bit(chaos::Site::kDequePush);
  ChaosGuard guard(cfg);
  cilkm::reducer<cilkm::op_add<std::uint64_t>, cilkm::mm_policy> red;
  sched.run([&] { count_tree(red, 11); });
  EXPECT_EQ(red.get_value(), 2048u);
  return chaos::site_stats(chaos::Site::kDequePush);
}

TEST(ChaosDeterminism, SameSeedSameFaultSetAcrossSchedules) {
  const chaos::SiteStats base = push_fault_run(1, 0);
  ASSERT_GT(base.consults, 0u);
  ASSERT_GT(base.injected, 0u);  // p=0.05 over 2047 spawns
  for (const unsigned p : {1u, 2u, 4u}) {
    for (const unsigned batch : {0u, 1u}) {
      const chaos::SiteStats got = push_fault_run(p, batch);
      // (injected, digest) equality == identical injected fault set: the
      // digest is an order-independent sum over the decision hashes of the
      // strands that fired, so no schedule can fake it.
      EXPECT_EQ(got.consults, base.consults) << "P=" << p << " batch=" << batch;
      EXPECT_EQ(got.injected, base.injected) << "P=" << p << " batch=" << batch;
      EXPECT_EQ(got.digest, base.digest) << "P=" << p << " batch=" << batch;
    }
  }
}

TEST(ChaosDeterminism, MetricsExposePerSiteRows) {
  (void)push_fault_run(2, 0);  // leaves nonzero stats behind (then disarms)
  const chaos::SiteStats st = chaos::site_stats(chaos::Site::kDequePush);
  ASSERT_GT(st.consults, 0u);
  const cilkm::obs::MetricsSnapshot snap = cilkm::obs::capture(nullptr);
  bool saw_consults = false, saw_injected = false;
  for (const cilkm::obs::Metric& m : snap.flatten()) {
    if (m.name == "chaos.push.consults") {
      saw_consults = true;
      EXPECT_EQ(m.value, static_cast<double>(st.consults));
    }
    if (m.name == "chaos.push.injected") {
      saw_injected = true;
      EXPECT_EQ(m.value, static_cast<double>(st.injected));
    }
  }
  EXPECT_TRUE(saw_consults);
  EXPECT_TRUE(saw_injected);
}

// ------------------------------------------- exception stress (satellite)

/// Count the throwing leaves of the deterministic tree: leaf (depth-first
/// index keyed) pedigree draws decide the throw, so the same leaves throw
/// under every policy, worker count, and steal schedule.
template <typename Policy>
void exception_stress(unsigned workers, unsigned steal_batch) {
  cilkm::SchedulerOptions so;
  so.steal_batch = steal_batch;
  cilkm::Scheduler sched(workers, so);
  // Injected protocol delays widen the THE/join race windows so steals and
  // parked joins actually interleave with the unwinds.
  chaos::Config cfg;
  cfg.p = 0.2;
  cfg.sites = chaos::kDelaySites;
  cfg.seed = 0x7007;
  cfg.delay_ns = 500;
  ChaosGuard guard(cfg);

  constexpr unsigned kDepth = 8;
  for (int round = 0; round < 3; ++round) {
    cilkm::reducer<cilkm::op_add<std::uint64_t>, Policy> red;
    auto tree = [&](auto&& self, unsigned depth) -> void {
      if (depth == 0) {
        // Pedigree-keyed draw: deterministic per strand, so at p=1/5 over
        // 256 leaves the run throws under EVERY schedule (or none — and a
        // no-throw seed would fail the EXPECT_THROW loudly).
        cilkm::Dprng rng(0xabcdabcd);
        if (rng.next() % 5 == 0) throw std::runtime_error("chaos-leaf");
        red.view() += 1;
        return;
      }
      cilkm::fork2join([&] { self(self, depth - 1); },
                       [&] { self(self, depth - 1); });
    };
    EXPECT_THROW(sched.run([&] { tree(tree, kDepth); }), std::runtime_error);
    // The join protocol completed before the rethrow: the pool is quiesced
    // and the very next run on it is healthy and exact.
    std::atomic<std::uint64_t> sum{0};
    sched.run([&] {
      cilkm::parallel_for(0, 200, 8, [&](std::int64_t i) {
        sum.fetch_add(static_cast<std::uint64_t>(i));
      });
    });
    EXPECT_EQ(sum.load(), 199u * 200 / 2);
  }
}

TEST(ChaosExceptionStress, DeepThrowsUnderForcedStealsMm) {
  for (const unsigned p : {1u, 2u, 4u}) {
    for (const unsigned batch : {0u, 1u}) {
      exception_stress<cilkm::mm_policy>(p, batch);
    }
  }
}

TEST(ChaosExceptionStress, DeepThrowsUnderForcedStealsHypermap) {
  for (const unsigned p : {2u, 4u}) {
    exception_stress<cilkm::hypermap_policy>(p, /*steal_batch=*/0);
  }
}

TEST(ChaosExceptionStress, DeepThrowsUnderForcedStealsFlat) {
  for (const unsigned p : {2u, 4u}) {
    exception_stress<cilkm::flat_policy>(p, /*steal_batch=*/1);
  }
}

// ----------------------------------------------------------- watchdog

TEST(ChaosWatchdog, HealthyRunsDoNotTripTheWatchdog) {
  cilkm::SchedulerOptions so;
  so.watchdog_ms = 200;
  cilkm::Scheduler sched(2, so);
  for (int round = 0; round < 3; ++round) {
    cilkm::reducer<cilkm::op_add<std::uint64_t>, cilkm::mm_policy> red;
    sched.run([&] { count_tree(red, 10); });
    EXPECT_EQ(red.get_value(), 1024u);
  }
}

}  // namespace
