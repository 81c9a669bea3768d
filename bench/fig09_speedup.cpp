// Figure 9: speedup of add-n on Cilk-M (memory-mapped reducers) for
// P ∈ {1, 2, 4, 8, 16} workers and n ∈ {4, 16, 64, 256, 1024}, relative to
// the single-worker execution.
//
// NOTE: on a host with a single physical core, worker counts beyond 1 are
// oversubscribed OS threads and wall-clock speedup cannot exceed ~1x. The
// figure's claim — that reduce overhead does not *degrade* scalability
// (speedup stays flat-or-better as n grows) — is still observable in the
// relative numbers per column.
//
//   ./fig09_speedup [--lookups N] [--reps R]
#include <cstdio>

#include "harness.hpp"

int main(int argc, char** argv) {
  const auto lookups = static_cast<std::uint64_t>(
      bench::flag_int(argc, argv, "--lookups", 1 << 23));
  const int reps = static_cast<int>(bench::flag_int(argc, argv, "--reps", 3));
  constexpr unsigned kNs[] = {4, 16, 64, 256, 1024};
  constexpr unsigned kProcs[] = {1, 2, 4, 8, 16};

  double base[5] = {};
  bench::JsonReport report("fig09_speedup");

  std::printf("# Figure 9: speedup of add-n over the 1-worker execution "
              "(Cilk-M, %llu lookups)\n",
              static_cast<unsigned long long>(lookups));
  std::printf("%-8s", "P");
  for (const unsigned n : kNs) std::printf(" add-%-8u", n);
  std::printf("\n");

  for (const unsigned p : kProcs) {
    cilkm::Scheduler sched(p);
    std::printf("%-8u", p);
    for (std::size_t ni = 0; ni < std::size(kNs); ++ni) {
      const double mean =
          bench::repeat(sched, reps, [&] {
            bench::MicroBench<cilkm::mm_policy>::add_n(kNs[ni], lookups,
                                                       /*grain=*/1024);
          }).mean_s;
      if (p == 1) base[ni] = mean;
      std::printf(" %12.2f", base[ni] / mean);
      report.add("add-" + std::to_string(kNs[ni]), p,
                 {{"time_s", mean}, {"speedup", base[ni] / mean}});
    }
    std::printf("\n");
  }
  std::printf("# paper (16 real cores): near-linear speedup for all n, "
              "superlinear for add-1024\n");
  return 0;
}
