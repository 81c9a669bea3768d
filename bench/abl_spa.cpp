// Ablation benchmarks for the SPA design choices (README "Benchmarks"):
//
//  A. The SPA log-overflow rule (paper Section 6): once more than 120 views
//     are inserted, the runtime stops logging and sequences the whole
//     248-slot view array. We sweep valid-view counts and compare
//     log-driven vs full-walk sequencing, locating the crossover that
//     justifies the paper's 2:1 view:log sizing.
//
//  B. View transferal strategies (paper Section 7): the chosen *copying*
//     strategy (copy up to 248 pointers) vs the cost floor of the *mapping*
//     strategy (at least one syscall round trip per remap, measured with an
//     actual mmap/munmap pair as the cheapest kernel-crossing proxy).
//
//  C. Hypermap growth: insertion cost including expansions, as a function
//     of the number of reducers — the "view insertion dominates" effect of
//     Figure 7.
//
//   ./abl_spa [--reps R]
#include <sys/mman.h>

#include <cstdio>

#include "harness.hpp"
#include "hypermap/hypermap.hpp"
#include "spa/spa_map.hpp"

// Minimal keep-alive to stop the optimiser deleting the ablation loops.
void benchmark_keep(void* p);

namespace {

using namespace cilkm::spa;

double sweep_time(SpaPage& page, int reps, std::uint64_t* sink) {
  const auto t0 = cilkm::now_ns();
  for (int r = 0; r < reps; ++r) {
    std::uint64_t local = 0;
    page.for_each_valid([&](std::uint32_t idx, ViewSlot&) { local += idx; });
    *sink += local;
  }
  const auto t1 = cilkm::now_ns();
  return static_cast<double>(t1 - t0) / reps;
}

void ablation_log_overflow(int reps, bench::JsonReport& report) {
  std::printf("# Ablation A: SPA sequencing, log-driven vs full-array walk "
              "(ns per sweep of one page)\n");
  std::printf("%-8s %14s %14s %10s\n", "views", "log-driven", "full-walk",
              "ratio");
  static int dummy;
  std::uint64_t sink = 0;
  for (const std::uint32_t valid : {4u, 16u, 60u, 120u, 180u, 248u}) {
    SpaPage logged;
    logged.clear();
    const std::uint32_t stride = kViewsPerPage / valid;
    for (std::uint32_t i = 0; i < valid; ++i) {
      const std::uint32_t idx = (i * stride) % kViewsPerPage;
      if (logged.views[idx].empty()) {
        logged.views[idx] = {&dummy, nullptr};
        if (valid <= kLogCapacity) {
          logged.note_insert(idx);  // log-tracked
        } else {
          ++logged.num_valid;  // install without logging...
        }
      }
    }
    if (valid > kLogCapacity) logged.num_logs = kLogsOverflowed;

    SpaPage walked = logged;
    walked.num_logs = kLogsOverflowed;  // force the full-array walk

    const double t_log = sweep_time(logged, reps, &sink);
    const double t_walk = sweep_time(walked, reps, &sink);
    std::printf("%-8u %14.1f %14.1f %9.2fx%s\n", valid, t_log, t_walk,
                t_walk / t_log,
                valid > kLogCapacity ? "   (log overflowed: both full walks)"
                                     : "");
    // Past the log capacity both columns are full walks; flag it so
    // cross-PR tracking doesn't chart walk timings as log-driven ones.
    const double overflowed = valid > kLogCapacity ? 1.0 : 0.0;
    report.add("seq:log", valid,
               {{"ns_per_sweep", t_log}, {"log_overflowed", overflowed}});
    report.add("seq:walk", valid,
               {{"ns_per_sweep", t_walk}, {"log_overflowed", overflowed}});
  }
  if (sink == 0) std::abort();
  std::printf("# full walk costs ~flat 248 probes; the log wins below the "
              "120-entry cap, beyond it the walk is amortised (2:1 rule)\n\n");
}

void ablation_transferal(int reps, bench::JsonReport& report) {
  std::printf("# Ablation B: view transferal, copying strategy vs syscall "
              "floor of the mapping strategy (ns per page)\n");
  std::printf("%-8s %14s %18s\n", "views", "copy (ns)", "mmap+munmap (ns)");
  static int dummy;
  for (const std::uint32_t valid : {4u, 32u, 120u, 248u}) {
    SpaPage src;
    src.clear();
    for (std::uint32_t i = 0; i < valid; ++i) {
      src.views[i] = {&dummy, nullptr};
      src.note_insert(i);
    }
    SpaPage dst;
    dst.clear();
    // Copying strategy: sequence the source, copy pointer pairs, zero them
    // (then restore for the next rep).
    const auto t0 = cilkm::now_ns();
    for (int r = 0; r < reps; ++r) {
      SpaPage work = src;
      work.for_each_valid([&](std::uint32_t idx, ViewSlot& slot) {
        dst.views[idx] = slot;
        slot = ViewSlot{nullptr, nullptr};
      });
      benchmark_keep(&dst);
    }
    const auto t1 = cilkm::now_ns();
    // Mapping strategy floor: one map + one unmap round trip.
    const auto t2 = cilkm::now_ns();
    for (int r = 0; r < reps; ++r) {
      void* p = ::mmap(nullptr, kPageBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      benchmark_keep(p);
      ::munmap(p, kPageBytes);
    }
    const auto t3 = cilkm::now_ns();
    const double copy_ns = static_cast<double>(t1 - t0) / reps;
    const double map_ns = static_cast<double>(t3 - t2) / reps;
    std::printf("%-8u %14.1f %18.1f\n", valid, copy_ns, map_ns);
    report.add("transferal:copy", valid, {{"ns_per_page", copy_ns}});
    report.add("transferal:mmap", valid, {{"ns_per_page", map_ns}});
  }
  std::printf("# the paper picks copying: few reducers -> copying a handful "
              "of pointers beats kernel crossings\n\n");
}

void ablation_hypermap_growth(int reps, bench::JsonReport& report) {
  std::printf("# Ablation C: hypermap insertion cost including expansions "
              "(ns per insert, table grown from empty)\n");
  std::printf("%-8s %14s %12s\n", "inserts", "ns/insert", "final-cap");
  static int key_block[4096];
  for (const int n : {4, 16, 64, 256, 1024, 4096}) {
    double total = 0;
    std::size_t cap = 0;
    for (int r = 0; r < reps; ++r) {
      cilkm::hypermap::HyperMap map;
      const auto t0 = cilkm::now_ns();
      for (int i = 0; i < n; ++i) map.insert(&key_block[i], &key_block[i], nullptr);
      const auto t1 = cilkm::now_ns();
      total += static_cast<double>(t1 - t0) / n;
      cap = map.capacity();
    }
    std::printf("%-8d %14.1f %12zu\n", n, total / reps, cap);
    report.add("hypermap_growth", n,
               {{"ns_per_insert", total / reps},
                {"final_capacity", static_cast<double>(cap)}});
  }
  std::printf("# insertion cost includes rehash-on-expand: the overhead "
              "Figure 7 sees grow with n in Cilk Plus\n");
}

}  // namespace

// Minimal keep-alive to stop the optimiser deleting the ablation loops.
void benchmark_keep(void* p) { asm volatile("" : : "g"(p) : "memory"); }

int main(int argc, char** argv) {
  const int reps = static_cast<int>(bench::flag_int(argc, argv, "--reps", 2000));
  bench::JsonReport report("abl_spa");
  ablation_log_overflow(reps, report);
  ablation_transferal(reps / 10 + 1, report);
  ablation_hypermap_growth(reps / 100 + 1, report);
  return 0;
}
