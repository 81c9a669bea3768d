// The observability layer: work/span profiler semantics (a fork-free root
// has parallelism exactly 1; fib's measured parallelism grows with input;
// span <= work and burdened span >= span always), the metrics registry's
// aggregation and flattened naming, and the Chrome-trace exporter's output
// shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_export.hpp"
#include "runtime/api.hpp"
#include "runtime/trace.hpp"

namespace {

using cilkm::obs::MetricsSnapshot;
using cilkm::obs::Profiler;
using cilkm::obs::RunProfile;
using cilkm::rt::Tracer;

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::instance().reset();
    Profiler::instance().enable();
  }
  void TearDown() override {
    Profiler::instance().disable();
    Profiler::instance().reset();
  }
};

/// ~`iters` of un-elidable serial work.
std::uint64_t spin_work(std::uint64_t iters) {
  volatile std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < iters; ++i) acc = acc + i;
  return acc;
}

std::uint64_t fib_spawn(unsigned n) {
  if (n < 2) return n;
  std::uint64_t a = 0, b = 0;
  cilkm::fork2join([&] { a = fib_spawn(n - 1); },
                   [&] { b = fib_spawn(n - 2); });
  return a + b;
}

TEST_F(ProfilerTest, ForkFreeRootHasParallelismExactlyOne) {
  // A root strand that never spawns is one strand: work and span accumulate
  // identically, so T1/T-inf is 1 by construction — the P=1 sanity anchor.
  cilkm::run(1, [] { spin_work(2'000'000); });
  const RunProfile prof = Profiler::instance().totals();
  ASSERT_EQ(prof.runs, 1u);
  ASSERT_GT(prof.work_ns, 0u);
  EXPECT_EQ(prof.work_ns, prof.span_ns);
  EXPECT_NEAR(prof.parallelism(), 1.0, 1e-9);
  EXPECT_NEAR(prof.burdened_parallelism(), 1.0, 1e-9);
}

TEST_F(ProfilerTest, FibParallelismGrowsWithInputSize) {
  // fib's DAG parallelism is ~fib(n)/n, so the measured T1/T-inf must climb
  // steeply with n — and the measurement is schedule-independent, so P=1
  // (every frame self-popped, none stolen) must show it too.
  cilkm::run(1, [] { fib_spawn(10); });
  const RunProfile small = Profiler::instance().totals();
  Profiler::instance().reset();
  cilkm::run(1, [] { fib_spawn(20); });
  const RunProfile large = Profiler::instance().totals();

  ASSERT_EQ(small.runs, 1u);
  ASSERT_EQ(large.runs, 1u);
  EXPECT_GT(large.parallelism(), 2.0);
  EXPECT_GT(large.parallelism(), small.parallelism() * 1.5)
      << "fib(10) parallelism " << small.parallelism() << ", fib(20) "
      << large.parallelism();
}

TEST_F(ProfilerTest, SpanBoundsHoldUnderParallelRuns) {
  for (const unsigned p : {1u, 4u}) {
    Profiler::instance().reset();
    cilkm::run(p, [] {
      cilkm::parallel_for(0, 2000, 16, [](std::int64_t) { spin_work(200); });
    });
    const RunProfile prof = Profiler::instance().totals();
    ASSERT_EQ(prof.runs, 1u);
    EXPECT_GT(prof.span_ns, 0u);
    EXPECT_LE(prof.span_ns, prof.work_ns) << "P=" << p;
    EXPECT_GE(prof.burdened_span_ns, prof.span_ns) << "P=" << p;
    EXPECT_GE(prof.parallelism(), prof.burdened_parallelism()) << "P=" << p;
  }
}

TEST_F(ProfilerTest, ForcedStealChargesBurden) {
  // The classic forced-steal shape: a() spins until b ran on a thief. The
  // steal latency and join protocol costs must land in the burdened span,
  // never in the plain span.
  std::atomic<bool> right_ran{false};
  cilkm::run(2, [&] {
    cilkm::fork2join(
        [&] {
          while (!right_ran.load()) std::this_thread::yield();
        },
        [&] { right_ran.store(true); });
  });
  const RunProfile prof = Profiler::instance().totals();
  ASSERT_EQ(prof.runs, 1u);
  EXPECT_LE(prof.span_ns, prof.work_ns);
  EXPECT_GE(prof.burdened_span_ns, prof.span_ns);
}

TEST_F(ProfilerTest, TotalsSumAcrossRunsAndResetClears) {
  cilkm::run(1, [] { spin_work(100'000); });
  cilkm::run(1, [] { spin_work(100'000); });
  EXPECT_EQ(Profiler::instance().totals().runs, 2u);
  Profiler::instance().reset();
  EXPECT_EQ(Profiler::instance().totals().runs, 0u);
  EXPECT_EQ(Profiler::instance().totals().work_ns, 0u);
}

TEST_F(ProfilerTest, DisabledProfilerRecordsNothing) {
  Profiler::instance().disable();
  cilkm::run(2, [] { fib_spawn(12); });
  EXPECT_EQ(Profiler::instance().totals().runs, 0u);
}

TEST(SerialElision, ProfilesOutsideTheScheduler) {
  // fork2join outside any scheduler (the serial elision) must keep the same
  // accounting: spawning strands still split, so parallelism > 1.
  Profiler::instance().reset();
  Profiler::instance().enable();
  auto& ps = cilkm::rt::strand().prof;
  ps = {};
  cilkm::obs::strand_begin(ps);
  fib_spawn(15);
  auto& ps2 = cilkm::rt::strand().prof;
  cilkm::obs::strand_end(ps2);
  EXPECT_LT(ps2.span, ps2.work);
  Profiler::instance().disable();
}

TEST(MetricsRegistry, CaptureAggregatesPerWorkerStats) {
  cilkm::rt::Scheduler sched(2);
  sched.run([] {
    cilkm::parallel_for(0, 2000, 8, [](std::int64_t) { spin_work(100); });
  });
  const MetricsSnapshot snap = cilkm::obs::capture(&sched);
  EXPECT_EQ(snap.workers, 2u);
  ASSERT_EQ(snap.per_worker.size(), 2u);
  for (unsigned c = 0; c < static_cast<unsigned>(cilkm::StatCounter::kCount);
       ++c) {
    const auto counter = static_cast<cilkm::StatCounter>(c);
    EXPECT_EQ(snap.aggregate[counter],
              snap.per_worker[0][counter] + snap.per_worker[1][counter])
        << cilkm::to_string(counter);
  }
  // The pool did real work: at least the root launch allocated a fiber.
  EXPECT_GT(snap.aggregate[cilkm::StatCounter::kFibersAllocated], 0u);
}

TEST(MetricsRegistry, FlattenUsesStableNames) {
  const MetricsSnapshot snap = cilkm::obs::capture(nullptr);
  EXPECT_EQ(snap.workers, 0u);
  std::vector<std::string> names;
  for (const auto& m : snap.flatten()) names.push_back(m.name);
  for (const char* expected :
       {"workers", "steals", "stolen_frames", "hypermerge_ns",
        "view_transfer_ns", "steal_ns_t0", "steal_count_t2",
        "steal_hist_t0_b0", "steal_hist_t2_b7", "mem.views.live_bytes",
        "mem.frames.peak_blocks", "mem.general.refills",
        "trace_dropped_records"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing metric " << expected;
  }
}

TEST(TraceExport, ChromeTraceHasExpectedShape) {
  auto& tracer = Tracer::instance();
  tracer.reset();
  tracer.enable();
  std::atomic<bool> right_ran{false};
  cilkm::run(2, [&] {
    cilkm::fork2join(
        [&] {
          while (!right_ran.load()) std::this_thread::yield();
        },
        [&] { right_ran.store(true); });
  });
  tracer.disable();

  std::ostringstream out;
  cilkm::obs::write_chrome_trace(tracer.snapshot(),
                                 cilkm::obs::capture(nullptr), out);
  const std::string json = out.str();
  tracer.reset();

  for (const char* expected :
       {"\"schema\":\"cilkm-trace-v1\"", "\"displayTimeUnit\":\"ms\"",
        "\"otherData\":{", "\"ring_wrapped\":0", "\"traceEvents\":[",
        "\"ph\":\"M\"", "\"ph\":\"X\"", "\"ph\":\"i\"", "\"ph\":\"C\"",
        "\"name\":\"process_name\"", "\"name\":\"worker 0\"",
        "\"name\":\"root_done\"", "\"name\":\"steal\"", "\"name\":\"sched\"",
        "\"steals\":", "\"frame\":\"0x"}) {
    EXPECT_NE(json.find(expected), std::string::npos)
        << "missing " << expected;
  }
  // Balanced brackets at the gross level: one object, one event list.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline after the brace
}

TEST(TraceExport, EmptyTraceStillValidJsonShape) {
  std::ostringstream out;
  cilkm::obs::write_chrome_trace({}, cilkm::obs::capture(nullptr), out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
}

}  // namespace
