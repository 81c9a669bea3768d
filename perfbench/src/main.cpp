// perfbench: the repository's end-to-end benchmark. One process runs one
// workload (spawn, lookup or reduce) through cilkm's public API under both
// view stores (mm_policy, hypermap_policy) at P=1 and P=nproc, checks every
// pass against the benchmark's own reference, and prints one JSON line.
//
//   perfbench --workload spawn|lookup|reduce --seconds S [--seed N]
//             [--trace 0|1] [--trace-out FILE] [--commit HASH]
//   perfbench --self-test
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that records spans and counter snapshots per pass, writes them to
// --trace-out, and reports the per-layer metrics. README.md lists both.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "runtime/api.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

#ifndef NDEBUG
#error "perfbench measures Release builds only (NDEBUG must be defined)"
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "perfbench refuses sanitizer builds"
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#error "perfbench refuses sanitizer builds"
#endif
#endif

#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

using cilkm::Scheduler;
using cilkm::hypermap_policy;
using cilkm::mm_policy;

/// The recorded default seed; README.md names the confirmation seed.
constexpr std::uint64_t kDefaultSeed = 1;
/// Set-ups per untraced run; setup_s is their typical_time().
constexpr int kSetups = 15;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  int seconds = 0;  // required with --workload
  bool trace = false;
  std::string trace_out = "perfbench-trace.json";
  std::string commit = "unknown";
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload spawn|lookup|reduce --seconds S "
               "[--seed N] [--trace 0|1] [--trace-out FILE] "
               "[--commit HASH]\n"
               "       perfbench --self-test\n",
               why);
  std::exit(2);
}

std::uint64_t parse_uint(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      o.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = parse_uint("--seed", v);
    } else if (a == "--seconds") {
      const std::uint64_t s = parse_uint("--seconds", v);
      if (s < 1 || s > 120) usage("--seconds must be in [1, 120]");
      o.seconds = static_cast<int>(s);
    } else if (a == "--trace") {
      const std::uint64_t t = parse_uint("--trace", v);
      if (t > 1) usage("--trace must be 0 or 1");
      o.trace = t == 1;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else if (a == "--commit") {
      o.commit = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (!o.self_test && o.workload.empty()) usage("--workload is required");
  if (!o.self_test && o.seconds == 0) usage("--seconds is required");
  return o;
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// The time reported for a kind of pass, and for set-up: the first
/// quartile of its samples in the run. On a shared host a share of the
/// samples, often near half, is slowed by other guests, so the median sits
/// on the knee between fast and slowed samples and swings from run to run;
/// the first quartile stays among the fast ones, and a change that slows
/// every sample moves it as much as the median. README.md gives the
/// measurements.
double typical_time(const std::vector<double>& samples) { return percentile(samples, 0.25); }

// ---------------------------------------------------------------------------
// Counter snapshots (traced run only)

/// Every WorkerStats counter, the summed steal latency, and per allocator
/// tag the allocation and refill counts.
struct Counters {
  static constexpr std::size_t kStats =
      static_cast<std::size_t>(cilkm::StatCounter::kCount);
  static constexpr std::size_t kMemFields = 2 * cilkm::mem::kNumTags;
  static constexpr std::size_t kSize = kStats + 2 + kMemFields;
  std::array<std::int64_t, kSize> v{};

  static std::string name(std::size_t i) {
    if (i < kStats) {
      return std::string(cilkm::to_string(static_cast<cilkm::StatCounter>(i)));
    }
    if (i == kStats) return "steal_lat_ns";
    if (i == kStats + 1) return "steal_lat_count";
    const std::size_t m = i - kStats - 2;
    return std::string("mem.") +
           cilkm::mem::to_string(static_cast<cilkm::mem::AllocTag>(m / 2)) +
           (m % 2 ? ".refills" : ".allocs");
  }
  static bool is_mem(std::size_t i) { return i >= kStats + 2; }

  std::int64_t get(cilkm::StatCounter c) const {
    return v[static_cast<std::size_t>(c)];
  }
  std::int64_t refills() const {
    std::int64_t sum = 0;
    for (std::size_t t = 0; t < cilkm::mem::kNumTags; ++t) {
      sum += v[kStats + 2 + 2 * t + 1];
    }
    return sum;
  }

  Counters operator-(const Counters& o) const {
    Counters d;
    for (std::size_t i = 0; i < kSize; ++i) d.v[i] = v[i] - o.v[i];
    return d;
  }
};

/// Snapshot through obs::capture(). Without a scheduler only the
/// process-wide allocator fields are filled.
Counters snapshot(Scheduler* sched, cilkm::obs::MetricsSnapshot* full = nullptr) {
  cilkm::obs::MetricsSnapshot snap = cilkm::obs::capture(sched);
  Counters c;
  for (std::size_t i = 0; i < Counters::kStats; ++i) {
    c.v[i] = static_cast<std::int64_t>(snap.aggregate.counters[i]);
  }
  for (std::size_t t = 0; t < cilkm::WorkerStats::kStealTiers; ++t) {
    c.v[Counters::kStats] += static_cast<std::int64_t>(snap.aggregate.steal_lat_ns[t]);
    c.v[Counters::kStats + 1] +=
        static_cast<std::int64_t>(snap.aggregate.steal_lat_count[t]);
  }
  for (std::size_t t = 0; t < cilkm::mem::kNumTags; ++t) {
    c.v[Counters::kStats + 2 + 2 * t] = static_cast<std::int64_t>(snap.mem_tags[t].allocs);
    c.v[Counters::kStats + 2 + 2 * t + 1] =
        static_cast<std::int64_t>(snap.mem_tags[t].refills);
  }
  if (full != nullptr) *full = std::move(snap);
  return c;
}

// ---------------------------------------------------------------------------
// Passes

enum class Kind { kWarm, kTimed, kTraced, kControl, kSerial, kDispatch, kProfile };

const char* to_string(Kind k) {
  switch (k) {
    case Kind::kWarm: return "warm";
    case Kind::kTimed: return "timed";
    case Kind::kTraced: return "traced";
    case Kind::kControl: return "control";
    case Kind::kSerial: return "serial";
    case Kind::kDispatch: return "dispatch";
    case Kind::kProfile: return "profile";
  }
  return "?";
}

struct PassLog {
  std::uint32_t id = 0;
  Kind kind = Kind::kTimed;
  const char* policy = "";
  unsigned procs = 0;  // 0: no scheduler (plain serial)
  std::uint64_t wall_ns = 0;
  bool ok = true;
  Counters delta;  // traced run only
  std::uint64_t work_ns = 0, span_ns = 0;  // profile passes only
};

/// Everything one process measures: the passes it ran, their checks, and
/// (traced) their counter deltas.
class Ledger {
 public:
  explicit Ledger(bool traced) : traced_(traced) {}

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<PassLog>& passes() const { return passes_; }

  /// Run one pass: `body(run)` performs the pass, calling `run(root)` once
  /// for its timed region; `check()` is then applied to its output. A failed
  /// check or an escaping exception counts as a failed pass and never stops
  /// the run.
  template <typename Body, typename Check>
  PassLog& execute(Kind kind, const char* policy, Scheduler* sched, bool inner,
                   Body&& body, Check&& check) {
    PassLog log;
    log.id = static_cast<std::uint32_t>(passes_.size() + 1);
    log.kind = kind;
    log.policy = policy;
    log.procs = sched ? sched->num_workers() : 0;
    Counters before;
    if (traced_) before = snapshot(sched);
    Tracer& tr = Tracer::instance();
    tr.begin_pass(log.id, inner);
    std::string err;
    try {
      body([&](auto&& root) {
        Span s(tr, "runtime.run", 0);
        const std::uint64_t t0 = now_ns();
        if (sched != nullptr) {
          sched->run(std::function<void()>(root));
        } else {
          root();
        }
        log.wall_ns = now_ns() - t0;
      });
      err = check();
    } catch (const std::exception& e) {
      err = std::string("exception: ") + e.what();
    }
    tr.end_pass();
    if (traced_) log.delta = snapshot(sched) - before;
    ++attempted_;
    if (!err.empty()) {
      log.ok = false;
      ++failed_;
      if (failed_ <= 5) {
        std::fprintf(stderr, "perfbench: pass %u (%s %s P=%u) failed: %s\n",
                     log.id, to_string(kind), policy, log.procs, err.c_str());
      }
    }
    passes_.push_back(log);
    return passes_.back();
  }

  std::vector<double> walls(Kind kind, const char* policy, unsigned procs) const {
    std::vector<double> out;
    for (const PassLog& p : passes_) {
      if (p.kind == kind && std::strcmp(p.policy, policy) == 0 && p.procs == procs) {
        out.push_back(static_cast<double>(p.wall_ns) * 1e-9);
      }
    }
    return out;
  }

 private:
  bool traced_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::vector<PassLog> passes_;
};

// ---------------------------------------------------------------------------
// One workload's bench

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

template <typename W>
class Bench {
  template <typename Policy>
  using RPass = typename W::template Pass<ReducerKit<Policy>, Parallel>;
  using ControlPass = typename W::template Pass<PlainKit, Parallel>;
  using SerialPass = typename W::template Pass<PlainKit, Serial>;

 public:
  Bench(const Options& opt, unsigned procs)
      : opt_(opt), procs_(procs), in_(W::make(opt.seed)), ledger_(opt.trace) {}

  /// Construct both pools and the pass state, then run one untimed pass
  /// per (policy, P): thread creation, warm_up, first-touch faults and the
  /// first views all land here.
  void set_up() {
    p1_ = std::make_unique<Scheduler>(1);
    pn_ = std::make_unique<Scheduler>(procs_);
    p1_->warm_up();
    pn_->warm_up();
    mm_ = std::make_unique<RPass<mm_policy>>(in_);
    hm_ = std::make_unique<RPass<hypermap_policy>>(in_);
    for (Scheduler* s : {p1_.get(), pn_.get()}) {
      pass(Kind::kWarm, "mm", *mm_, s, false);
      pass(Kind::kWarm, "hypermap", *hm_, s, false);
    }
  }

  /// Destroy what set_up() built: the pass state, then the pools (joining
  /// their workers).
  void tear_down() {
    mm_.reset();
    hm_.reset();
    p1_.reset();
    pn_.reset();
  }

  template <typename P>
  PassLog& pass(Kind kind, const char* policy, P& state, Scheduler* sched, bool inner) {
    typename W::Output out;
    return ledger_.execute(
        kind, policy, sched, inner, [&](auto&& run) { state(run, out); },
        [&] { return W::check(in_, out); });
  }

  /// Time `k` plain serial passes; print their typical_time() as the reference line.
  void reference_line(int k) {
    SerialPass serial(in_);
    for (int i = 0; i < k; ++i) pass(Kind::kSerial, "plain", serial, nullptr, true);
    const double t = typical_time(ledger_.walls(Kind::kSerial, "plain", 0));
    std::printf("reference: %s plain serial pass %.6f s (fork2joins %llu, "
                "lookups %llu per pass)\n",
                opt_.workload.c_str(), t,
                static_cast<unsigned long long>(in_.fork2joins),
                static_cast<unsigned long long>(in_.lookups));
  }

  std::vector<Metric> run_untraced() {
    std::vector<double> setups;
    for (int s = 0; s < kSetups; ++s) {
      tear_down();  // not part of a set-up
      const std::uint64_t t0 = now_ns();
      set_up();
      setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    const int rounds = measure([&](int round) {
      for (Scheduler* s : {p1_.get(), pn_.get()}) both(round, Kind::kTimed, s, false);
    });
    reference_line(9);
    std::vector<Metric> m;
    m.push_back({"setup_s", typical_time(setups), "s"});
    for (const char* pol : {"mm", "hypermap"}) {
      const auto t1 = ledger_.walls(Kind::kTimed, pol, 1);
      const auto tp = ledger_.walls(Kind::kTimed, pol, procs_);
      const std::string p = pol;
      m.push_back({p + ".t1_s", typical_time(t1), "s"});
      m.push_back({p + ".tp_s", typical_time(tp), "s"});
    }
    m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    std::printf("passes: %d rounds; %zu P=%u passes per policy\n", rounds,
                ledger_.walls(Kind::kTimed, "mm", procs_).size(), procs_);
    return m;
  }

  std::vector<Metric> run_traced() {
    Tracer::instance().enable(true);
    // The pools are new, so their worker counters start at zero; the
    // allocator's are process-wide and read before anything runs.
    const Counters start = snapshot(nullptr);
    set_up();
    ControlPass control(in_);
    SerialPass serial(in_);
    const int rounds = measure([&](int round) {
      both(round, Kind::kTimed, p1_.get(), false);
      both(round, Kind::kTimed, pn_.get(), false);
      both(round, Kind::kTraced, pn_.get(), true);
      pass(Kind::kControl, "plain", control, p1_.get(), true);
      pass(Kind::kSerial, "plain", serial, nullptr, true);
    });
    std::printf("passes: %d rounds; %d timed + traced P=%u passes per policy\n",
                rounds, 2 * rounds, procs_);
    // Empty runs on the warm pool: the dispatch constant.
    for (int i = 0; i < 200; ++i) {
      ledger_.execute(Kind::kDispatch, "none", pn_.get(), true,
                      [&](auto&& run) { run([] {}); }, [] { return std::string(); });
    }
    // Work and span from the obs profiler, on passes of their own.
    auto& prof = cilkm::obs::Profiler::instance();
    prof.enable();
    for (int i = 0; i < 5; ++i) {
      for (const char* pol : {"mm", "hypermap"}) {
        prof.reset();
        PassLog& log = std::strcmp(pol, "mm") == 0
                           ? pass(Kind::kProfile, pol, *mm_, pn_.get(), true)
                           : pass(Kind::kProfile, pol, *hm_, pn_.get(), true);
        log.work_ns = prof.totals().work_ns;
        log.span_ns = prof.totals().span_ns;
      }
    }
    prof.disable();
    cilkm::obs::MetricsSnapshot final_snap;
    Counters end1 = snapshot(p1_.get());
    Counters endn = snapshot(pn_.get(), &final_snap);
    write_trace(end1, endn, endn - start, rounds);
    return layer_metrics(final_snap);
  }

  const Ledger& ledger() const { return ledger_; }

 private:
  /// Alternate which policy goes first, round by round.
  void both(int round, Kind kind, Scheduler* s, bool inner) {
    if (round % 2 == 0) {
      pass(kind, "mm", *mm_, s, inner);
      pass(kind, "hypermap", *hm_, s, inner);
    } else {
      pass(kind, "hypermap", *hm_, s, inner);
      pass(kind, "mm", *mm_, s, inner);
    }
  }

  /// Whole rounds until --seconds have passed.
  template <typename Round>
  int measure(Round&& round) {
    const std::uint64_t start = now_ns();
    const std::uint64_t want = static_cast<std::uint64_t>(opt_.seconds) * 1000000000ULL;
    int rounds = 0;
    while (now_ns() - start < want) round(rounds++);
    return rounds;
  }

  static double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  }

  std::vector<Metric> layer_metrics(const cilkm::obs::MetricsSnapshot& snap) {
    using SC = cilkm::StatCounter;
    std::vector<Metric> m;
    // Counter deltas per P=nproc pass (timed and traced, both policies).
    Counters sum;
    double n = 0;
    for (const PassLog& p : ledger_.passes()) {
      if (p.procs != procs_ || (p.kind != Kind::kTimed && p.kind != Kind::kTraced)) continue;
      for (std::size_t i = 0; i < Counters::kSize; ++i) sum.v[i] += p.delta.v[i];
      n += 1;
    }
    auto per_pass = [&](SC c) { return n > 0 ? static_cast<double>(sum.get(c)) / n : 0.0; };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double serial_t = typical_time(ledger_.walls(Kind::kSerial, "plain", 0));
    const double control_t = typical_time(ledger_.walls(Kind::kControl, "plain", 1));
    m.push_back({"runtime.spawn_ns",
                 (control_t - serial_t) * 1e9 / static_cast<double>(in_.fork2joins), "ns"});
    m.push_back({"runtime.dispatch_us",
                 typical_time(ledger_.walls(Kind::kDispatch, "none", procs_)) * 1e6, "us"});
    m.push_back({"runtime.steals", per_pass(SC::kSteals), "count"});
    m.push_back({"runtime.stolen_frames", per_pass(SC::kStolenFrames), "count"});
    m.push_back({"runtime.steal_attempts", per_pass(SC::kStealAttempts), "count"});
    m.push_back({"runtime.steal_hit_rate",
                 ratio(static_cast<double>(sum.get(SC::kSteals)),
                       static_cast<double>(sum.get(SC::kStealAttempts))), "ratio"});
    m.push_back({"runtime.steal_latency_ns",
                 ratio(static_cast<double>(sum.v[Counters::kStats]),
                       static_cast<double>(sum.v[Counters::kStats + 1])), "ns"});
    m.push_back({"runtime.self_pops", per_pass(SC::kSelfPops), "count"});
    m.push_back({"runtime.fibers_allocated", per_pass(SC::kFibersAllocated), "count"});
    m.push_back({"runtime.parks", per_pass(SC::kParks), "count"});
    m.push_back({"runtime.wakes", per_pass(SC::kWakes), "count"});
    m.push_back({"runtime.unwoken_parks", per_pass(SC::kParks) - per_pass(SC::kWakes), "count"});
    // The tail: every timed and traced P=nproc pass of the policy (tracing
    // adds a few spans per pass; obs.trace_overhead bounds the difference).
    for (const char* pol : {"mm", "hypermap"}) {
      std::vector<double> tp = ledger_.walls(Kind::kTimed, pol, procs_);
      const std::vector<double> traced = ledger_.walls(Kind::kTraced, pol, procs_);
      tp.insert(tp.end(), traced.begin(), traced.end());
      m.push_back({std::string(pol) + ".tp_p90_s", percentile(tp, 0.9), "s"});
    }
    double work = 0, span = 0, idle = 0, np = 0;
    for (const PassLog& p : ledger_.passes()) {
      if (p.kind != Kind::kProfile) continue;
      work += static_cast<double>(p.work_ns) * 1e-9;
      span += static_cast<double>(p.span_ns) * 1e-9;
      idle += static_cast<double>(procs_) * static_cast<double>(p.wall_ns) * 1e-9 -
              static_cast<double>(p.work_ns) * 1e-9;
      np += 1;
    }
    m.push_back({"runtime.work_s", ratio(work, np), "s"});
    m.push_back({"runtime.span_s", ratio(span, np), "s"});
    m.push_back({"runtime.idle_s", ratio(idle, np), "s"});
    m.push_back({"views.views_created", per_pass(SC::kViewsCreated), "count"});
    m.push_back({"views.views_transferred", per_pass(SC::kViewsTransferred), "count"});
    m.push_back({"views.hypermerges", per_pass(SC::kHypermerges), "count"});
    const auto created = static_cast<double>(sum.get(SC::kViewsCreated));
    m.push_back({"views.create_ns", ratio(static_cast<double>(sum.get(SC::kViewCreateNs)), created), "ns"});
    m.push_back({"views.insert_ns", ratio(static_cast<double>(sum.get(SC::kViewInsertNs)), created), "ns"});
    m.push_back({"views.transfer_ns",
                 ratio(static_cast<double>(sum.get(SC::kViewTransferNs)),
                       static_cast<double>(sum.get(SC::kViewsTransferred))), "ns"});
    m.push_back({"views.merge_ns",
                 ratio(static_cast<double>(sum.get(SC::kHypermergeNs)),
                       static_cast<double>(sum.get(SC::kHypermerges))), "ns"});
    for (const char* pol : {"mm", "hypermap"}) {
      const std::string layer = std::strcmp(pol, "mm") == 0 ? "spa" : "hypermap";
      const double t1 = typical_time(ledger_.walls(Kind::kTimed, pol, 1));
      m.push_back({layer + ".lookup_ns",
                   (t1 - control_t) * 1e9 / static_cast<double>(in_.lookups), "ns"});
      // Only workloads that construct, first-touch and destroy reducers in
      // their passes have these spans (lookup builds its banks at set-up).
      for (const auto& [metric, span] : {std::pair{".first_lookup_ns", "lookup.first_touch"},
                                          std::pair{".reducer_ctor_ns", "reducers.ctor"},
                                          std::pair{".reducer_dtor_ns", "reducers.dtor"}}) {
        const double ns = span_mean_ns(span, pol);
        if (ns >= 0) m.push_back({layer + metric, ns, "ns"});
      }
    }
    using Tag = cilkm::mem::AllocTag;
    for (Tag t : {Tag::kViews, Tag::kSpaPages, Tag::kHypermapNodes, Tag::kFrames}) {
      m.push_back({std::string("mem.") + cilkm::mem::to_string(t) + ".peak_bytes",
                   static_cast<double>(snap.mem_tags[static_cast<std::size_t>(t)].peak_bytes),
                   "bytes"});
    }
    m.push_back({"mem.refills", n > 0 ? static_cast<double>(sum.refills()) / n : 0.0, "count"});
    double traced = 0, untraced = 0;
    for (const char* pol : {"mm", "hypermap"}) {
      traced += typical_time(ledger_.walls(Kind::kTraced, pol, procs_));
      untraced += typical_time(ledger_.walls(Kind::kTimed, pol, procs_));
    }
    m.push_back({"obs.trace_overhead", ratio(traced, untraced), "ratio"});
    return m;
  }

  /// Mean cost per operation over every span named `name` in `policy`'s
  /// passes; each such span covers a batch of `count` operations. -1 when
  /// the workload has no such span.
  double span_mean_ns(const char* name, const char* policy) const {
    const auto& passes = ledger_.passes();
    double ns = 0, ops = 0;
    for (const SpanRecord& s : Tracer::instance().spans()) {
      if (std::strcmp(s.name, name) != 0) continue;
      if (std::strcmp(passes[s.pass - 1].policy, policy) != 0) continue;
      ns += static_cast<double>(s.t1 - s.t0);
      ops += static_cast<double>(s.count);
    }
    return ops > 0 ? ns / ops : -1.0;
  }

  void write_trace(const Counters& total1, const Counters& totaln,
                   const Counters& total_mem, int rounds) {
    std::FILE* f = std::fopen(opt_.trace_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt_.trace_out.c_str());
      std::exit(1);
    }
    auto counters = [&](const Counters& c, bool mem, bool workers) {
      std::fputc('{', f);
      bool first = true;
      for (std::size_t i = 0; i < Counters::kSize; ++i) {
        if (Counters::is_mem(i) ? !mem : !workers) continue;
        std::fprintf(f, "%s\"%s\":%lld", first ? "" : ",", Counters::name(i).c_str(),
                     static_cast<long long>(c.v[i]));
        first = false;
      }
      std::fputc('}', f);
    };
    std::fprintf(f, "{\"schema\":\"perfbench-trace-v1\",\"workload\":\"%s\",\"seed\":%llu,"
                 "\"procs\":%u,\"rounds\":%d,\n\"passes\":[\n",
                 opt_.workload.c_str(), static_cast<unsigned long long>(opt_.seed), procs_,
                 rounds);
    const auto& passes = ledger_.passes();
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const PassLog& p = passes[i];
      std::fprintf(f, "{\"id\":%u,\"kind\":\"%s\",\"policy\":\"%s\",\"procs\":%u,"
                   "\"wall_ns\":%llu,\"ok\":%s,\"counters\":",
                   p.id, to_string(p.kind), p.policy, p.procs,
                   static_cast<unsigned long long>(p.wall_ns), p.ok ? "true" : "false");
      counters(p.delta, true, p.procs != 0);
      std::fprintf(f, "}%s\n", i + 1 < passes.size() ? "," : "");
    }
    std::fprintf(f, "],\n\"spans\":[\n");
    const auto& spans = Tracer::instance().spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(f, "{\"id\":%u,\"parent\":%u,\"pass\":%u,\"name\":\"%s\",\"t0\":%llu,"
                   "\"t1\":%llu,\"count\":%llu}%s\n",
                   s.id, s.parent, s.pass, s.name, static_cast<unsigned long long>(s.t0),
                   static_cast<unsigned long long>(s.t1),
                   static_cast<unsigned long long>(s.count), i + 1 < spans.size() ? "," : "");
    }
    // Run totals: worker counters per pool size, allocator counters
    // process-wide. On a one-CPU host both pools have one worker.
    std::fprintf(f, "],\n\"totals\":{\"workers_p1\":");
    if (procs_ == 1) {
      Counters both = total1;
      for (std::size_t i = 0; i < Counters::kSize; ++i) both.v[i] += totaln.v[i];
      counters(both, false, true);
    } else {
      counters(total1, false, true);
      std::fprintf(f, ",\"workers_p%u\":", procs_);
      counters(totaln, false, true);
    }
    std::fprintf(f, ",\"mem\":");
    counters(total_mem, true, false);
    std::fprintf(f, "}}\n");
    std::fclose(f);
  }

  const Options& opt_;
  unsigned procs_;
  typename W::Input in_;
  Ledger ledger_;
  std::unique_ptr<Scheduler> p1_, pn_;
  std::unique_ptr<RPass<mm_policy>> mm_;
  std::unique_ptr<RPass<hypermap_policy>> hm_;
};

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              ledger.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

template <typename W>
int run_workload(const Options& opt) {
  const unsigned procs = nproc();
  std::printf("commit: %s\ncompiler: %s\nflags: %s\nnproc: %u\ncpu: %s\n"
              "workload: %s\nseed: %llu\n",
              opt.commit.c_str(), __VERSION__, PERFBENCH_FLAGS, procs,
              cpu_model().c_str(), opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed));
  Bench<W> bench(opt, procs);
  const std::vector<Metric> metrics = opt.trace ? bench.run_traced() : bench.run_untraced();
  print_result(bench.ledger(), metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test: every checker accepts a correct pass and reports every
// corruption of it as failed.

template <typename W>
bool self_test_one(const char* name, std::uint64_t seed, Scheduler& sched) {
  const typename W::Input in = W::make(seed);
  bool ok = true;
  auto expect = [&](const char* what, bool good) {
    std::printf("self-test %s %s: %s\n", name, what, good ? "ok" : "FAILED");
    ok = ok && good;
  };
  auto run_on = [&](auto& state, Scheduler* s) {
    typename W::Output out;
    state(
        [&](auto&& root) {
          if (s) s->run(std::function<void()>(root)); else root();
        },
        out);
    return out;
  };
  typename W::template Pass<ReducerKit<mm_policy>, Parallel> mm(in);
  typename W::template Pass<ReducerKit<hypermap_policy>, Parallel> hm(in);
  typename W::template Pass<PlainKit, Serial> serial(in);
  const typename W::Output good = run_on(mm, &sched);
  expect("mm pass passes its check", W::check(in, good).empty());
  expect("hypermap pass passes its check", W::check(in, run_on(hm, &sched)).empty());
  expect("plain serial pass passes its check", W::check(in, run_on(serial, nullptr)).empty());
  for (int k = 0; k < W::kCorruptions; ++k) {
    typename W::Output bad = good;
    W::corrupt(bad, k);
    const std::string err = W::check(in, bad);
    const std::string what = "corruption " + std::to_string(k) + " is reported (" + err + ")";
    expect(what.c_str(), !err.empty());
  }
  return ok;
}

int self_test() {
  Scheduler sched(2);
  bool ok = self_test_one<Spawn>("spawn", kDefaultSeed, sched);
  ok = self_test_one<Lookup>("lookup", kDefaultSeed, sched) && ok;
  ok = self_test_one<Reduce>("reduce", kDefaultSeed, sched) && ok;
  std::printf("self-test: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  if (opt.self_test) return self_test();
  if (opt.workload == "spawn") return run_workload<Spawn>(opt);
  if (opt.workload == "lookup") return run_workload<Lookup>(opt);
  if (opt.workload == "reduce") return run_workload<Reduce>(opt);
  usage(("unknown workload " + opt.workload).c_str());
}
