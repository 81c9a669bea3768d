// Figure 10: PBFS on the eight-graph input suite. (a) Cilk-M execution time
// normalized to Cilk Plus on 1 and 16 workers; (b) the graph-characteristics
// table (|V|, |E|, diameter D, number of bag-reducer lookups).
//
// The paper's graphs (florida matrix collection + wikipedia crawl) are
// replaced by synthetic stand-ins with matching |V|, |E| and diameter class,
// scaled down by --shrink (default 64) so the suite regenerates in minutes
// on one core (README "Benchmarks").
//
//   ./fig10_pbfs [--shrink S] [--reps R]
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "pbfs/pbfs.hpp"

namespace {

using namespace cilkm::pbfs;

struct Row {
  std::string name;
  Vertex v;
  std::uint64_t e;
  Vertex diameter;
  std::uint64_t lookups;
  double ratio_p1;
  double ratio_p16;
};

template <typename Policy>
double time_pbfs(cilkm::Scheduler& sched, const Graph& g, int reps,
                 BfsResult* out) {
  // Ratio figure (mm normalized to hypermap): time the reps inside one
  // run() so the per-run dispatch constant stays out of the samples.
  double mean = 0;
  sched.run([&] {
    mean = bench::repeat(reps, [&] { *out = pbfs<Policy>(g, 0); }).mean_s;
  });
  return mean;
}

}  // namespace

int main(int argc, char** argv) {
  const auto shrink =
      static_cast<unsigned>(bench::flag_int(argc, argv, "--shrink", 64));
  const int reps = static_cast<int>(bench::flag_int(argc, argv, "--reps", 3));

  std::vector<Row> rows;
  for (const auto& spec : paper_graph_suite(shrink)) {
    const Graph g = generate(spec);
    const auto serial = serial_bfs(g, 0);

    Row row;
    row.name = spec.name;
    row.v = g.num_vertices();
    row.e = g.num_edges() / 2;  // undirected count, as the paper reports
    row.diameter = serial.num_layers - 1;

    BfsResult mm, hyper;
    {
      cilkm::Scheduler sched(1);
      const double t_mm = time_pbfs<cilkm::mm_policy>(sched, g, reps, &mm);
      const double t_hy =
          time_pbfs<cilkm::hypermap_policy>(sched, g, reps, &hyper);
      row.ratio_p1 = t_mm / t_hy;
    }
    {
      cilkm::Scheduler sched(16);
      const double t_mm = time_pbfs<cilkm::mm_policy>(sched, g, reps, &mm);
      const double t_hy =
          time_pbfs<cilkm::hypermap_policy>(sched, g, reps, &hyper);
      row.ratio_p16 = t_mm / t_hy;
    }
    row.lookups = mm.reducer_lookups;
    if (mm.dist != serial.dist || hyper.dist != serial.dist) {
      std::fprintf(stderr, "BFS MISMATCH on %s\n", row.name.c_str());
      return 1;
    }
    rows.push_back(row);
  }

  std::printf("# Figure 10(b): graph characteristics (shrink=%u)\n", shrink);
  std::printf("%-12s %10s %12s %6s %10s\n", "name", "|V|", "|E|", "D",
              "lookups");
  for (const auto& r : rows) {
    std::printf("%-12s %10u %12llu %6u %10llu\n", r.name.c_str(), r.v,
                static_cast<unsigned long long>(r.e), r.diameter,
                static_cast<unsigned long long>(r.lookups));
  }

  std::printf("\n# Figure 10(a): Cilk-M execution time normalized to "
              "Cilk Plus (lower-than-1 = Cilk-M faster)\n");
  std::printf("%-12s %14s %14s\n", "name", "P=1", "P=16");
  bench::JsonReport report("fig10_pbfs");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::printf("%-12s %14.3f %14.3f\n", r.name.c_str(), r.ratio_p1,
                r.ratio_p16);
    report.add(r.name, static_cast<double>(i),
               {{"vertices", static_cast<double>(r.v)},
                {"edges", static_cast<double>(r.e)},
                {"diameter", static_cast<double>(r.diameter)},
                {"lookups", static_cast<double>(r.lookups)},
                {"ratio_p1", r.ratio_p1},
                {"ratio_p16", r.ratio_p16}});
  }
  std::printf("# paper: ~1.0 (Cilk-M slightly slower) serial; 0.7-0.9 "
              "(Cilk-M faster) on 16 procs\n");
  return 0;
}
