// The three perfbench workloads. Each one is a struct with
//
//   Input              everything the pass needs, generated from the seed
//   make(seed)         builds the Input and, with plain serial code that
//                      shares nothing with cilkm, the reference the checker
//                      compares against
//   Output             what one pass hands back
//   check(in, out)     "" when the output matches the reference, otherwise a
//                      one-line description of the first mismatch
//   corrupt(out, k)    damages an output in the k-th way (the self-test
//                      shows that check() reports every one of them)
//   Pass<Kit, Fork>    one pass, generic over the cell type (a real reducer
//                      or a plain variable) and the fork shape (cilkm
//                      fork2join or a plain call)
//
// Instantiating Pass three ways gives the three things the benchmark times:
// ReducerKit<Policy> x Parallel is the workload itself, PlainKit x Parallel
// at P=1 is the control (the same spawn tree updating plain memory), and
// PlainKit x Serial is the plain serial program without any scheduler.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "span_trace.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Seeded inputs

/// splitmix64: the benchmark's own generator, so the inputs do not depend
/// on any random-number code inside the program under test.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------------------
// Cells and fork shapes

/// A plain variable with the reducer's view()/get_value() surface. Only
/// ever used at P=1 or without a scheduler, so it needs no synchronisation.
template <typename M>
struct PlainCell {
  using value_type = typename M::value_type;
  value_type v = M{}.identity();
  value_type& view() { return v; }
  value_type& get_value() { return v; }
  void set_value(value_type x) { v = std::move(x); }
};

template <typename Policy>
struct ReducerKit {
  template <typename M>
  using Cell = cilkm::reducer<M, Policy>;
};

struct PlainKit {
  template <typename M>
  using Cell = PlainCell<M>;
};

struct Parallel {
  template <typename A, typename B>
  static void fork(A&& a, B&& b) {
    cilkm::fork2join(std::forward<A>(a), std::forward<B>(b));
  }
  template <typename Body>
  static void loop(std::int64_t lo, std::int64_t hi, std::int64_t grain,
                   Body&& body) {
    cilkm::parallel_for(lo, hi, grain, std::forward<Body>(body));
  }
};

struct Serial {
  template <typename A, typename B>
  static void fork(A&& a, B&& b) {
    a();
    b();
  }
  template <typename Body>
  static void loop(std::int64_t lo, std::int64_t hi, std::int64_t,
                   Body&& body) {
    for (std::int64_t i = lo; i < hi; ++i) body(i);
  }
};

/// fork2join calls cilkm::parallel_for(0, n, grain, ...) makes.
inline std::uint64_t loop_forks(std::int64_t n, std::int64_t grain) {
  if (n <= grain) return 0;
  const std::int64_t left = n / 2;
  return 1 + loop_forks(left, grain) + loop_forks(n - left, grain);
}

using Add = cilkm::op_add<std::int64_t>;
using Min = cilkm::op_min<std::int64_t>;
using Max = cilkm::op_max<std::int64_t>;
using Append = cilkm::list_append<std::int64_t>;

inline std::string mismatch(const char* what, std::size_t at,
                            std::int64_t got, std::int64_t want) {
  return std::string(what) + "[" + std::to_string(at) +
         "] = " + std::to_string(got) + ", want " + std::to_string(want);
}

// ---------------------------------------------------------------------------
// spawn: a fib-shaped fork2join tree with no serial cutoff. The recursion
// returns the generalised Fibonacci number G(n) (G(0) = g0, G(1) = g1), and
// every leaf adds `weight` to one add-reducer, so the reducer ends at
// weight * F(n+1). Both are checked against iterative Fibonacci.

struct Spawn {
  static constexpr int kDepth = 25;

  struct Input {
    int n = kDepth;
    std::int64_t g0 = 0, g1 = 0, weight = 0;
    std::int64_t want_value = 0, want_leaves = 0;
    std::uint64_t fork2joins = 0;  // per pass
    std::uint64_t lookups = 0;     // reducer view() calls per pass
  };

  struct Output {
    std::int64_t value = 0;
    std::int64_t leaves = 0;
  };

  static Input make(std::uint64_t seed) {
    SeedStream rng(seed);
    Input in;
    in.g0 = rng.range(1, 97);
    in.g1 = rng.range(1, 89);
    in.weight = rng.range(1, 7);
    // Iterative Fibonacci: F(k) and G(k) for k up to n + 1.
    std::int64_t f0 = 0, f1 = 1, a = in.g0, b = in.g1;
    for (int k = 0; k < in.n; ++k) {
      const std::int64_t f2 = f0 + f1, c = a + b;
      f0 = f1;
      f1 = f2;
      a = b;
      b = c;
    }
    // Now f0 = F(n), f1 = F(n+1), a = G(n).
    in.want_value = a;
    in.want_leaves = in.weight * f1;
    in.fork2joins = static_cast<std::uint64_t>(f1 - 1);
    in.lookups = static_cast<std::uint64_t>(f1) + 1;  // leaves + first touch
    return in;
  }

  static std::string check(const Input& in, const Output& out) {
    if (out.value != in.want_value) {
      return mismatch("spawn.value", 0, out.value, in.want_value);
    }
    if (out.leaves != in.want_leaves) {
      return mismatch("spawn.leaves", 0, out.leaves, in.want_leaves);
    }
    return {};
  }

  static constexpr int kCorruptions = 2;
  static void corrupt(Output& out, int k) {
    if (k == 0) out.value += 1;
    if (k == 1) out.leaves -= 1;
  }

  template <typename Kit, typename Fork>
  class Pass {
   public:
    explicit Pass(const Input& in) : in_(in) {}

    // The pass's one reducer is built, touched first and destroyed inside
    // spans of one call each: the workload has no larger batch.
    template <typename Run>
    void operator()(Run&& run, Output& out) {
      using Count = typename Kit::template Cell<Add>;
      Tracer& tr = Tracer::instance();
      std::optional<Count> leaves;
      {
        Span s(tr, "reducers.ctor", 1);
        leaves.emplace();
      }
      run([&] {
        {
          Span s(tr, "lookup.first_touch", 1);
          leaves->view() += 0;
        }
        out.value = tree(in_.n, *leaves);
      });
      {
        Span s(tr, "reducers.get_value", 1);
        out.leaves = leaves->get_value();
      }
      Span s(tr, "reducers.dtor", 1);
      leaves.reset();
    }

   private:
    template <typename Count>
    std::int64_t tree(int n, Count& leaves) const {
      if (n < 2) {
        leaves.view() += in_.weight;
        return n == 0 ? in_.g0 : in_.g1;
      }
      std::int64_t a = 0, b = 0;
      Fork::fork([&] { a = tree(n - 1, leaves); },
                 [&] { b = tree(n - 2, leaves); });
      return a + b;
    }

    const Input& in_;
  };
};

// ---------------------------------------------------------------------------
// lookup: the paper's add-n / min-n / max-n loops. Coarse-grained parallel
// loops update a bank of reducers, bank[i mod n]; the bank is first small
// (one SPA page) and then large (several SPA pages, a grown hypermap
// table). add-n adds c*i + d and is checked against the closed form of the
// arithmetic series; min-n and max-n take x[i mod X] and are checked against
// a plain serial scan. X is small enough (128 KiB) to stay in cache, so the
// loops measure lookups rather than memory bandwidth.

struct Lookup {
  static constexpr std::int64_t kIters = std::int64_t{1} << 20;
  static constexpr std::int64_t kGrain = kIters / 64;
  static constexpr std::int64_t kBanks[2] = {4, 1024};
  static constexpr std::int64_t kValues = std::int64_t{1} << 14;  // X

  struct Input {
    std::int64_t c = 0, d = 0;
    std::vector<std::int64_t> x;
    std::vector<std::int64_t> want_add[2], want_min[2], want_max[2];
    std::uint64_t fork2joins = 0;
    std::uint64_t lookups = 0;
  };

  struct Output {
    std::vector<std::int64_t> add[2], min[2], max[2];
  };

  static Input make(std::uint64_t seed) {
    SeedStream rng(seed);
    Input in;
    in.c = rng.range(1, 1000);
    in.d = rng.range(-1000, 1000);
    in.x.resize(kValues);
    for (auto& v : in.x) v = rng.range(-(std::int64_t{1} << 40), std::int64_t{1} << 40);
    for (int b = 0; b < 2; ++b) {
      const std::int64_t n = kBanks[b];
      const std::int64_t m = kIters / n;  // iterations per residue class
      in.want_add[b].resize(n);
      in.want_min[b].assign(n, Min{}.identity());
      in.want_max[b].assign(n, Max{}.identity());
      for (std::int64_t j = 0; j < n; ++j) {
        // sum_{k<m} c*(j + n*k) + d
        in.want_add[b][j] = in.c * (m * j + n * (m * (m - 1) / 2)) + in.d * m;
      }
      for (std::int64_t i = 0; i < kIters; ++i) {
        const std::int64_t v = in.x[i % kValues];
        std::int64_t& lo = in.want_min[b][i % n];
        std::int64_t& hi = in.want_max[b][i % n];
        if (v < lo) lo = v;
        if (v > hi) hi = v;
      }
    }
    in.fork2joins = 6 * loop_forks(kIters, kGrain);
    in.lookups = 6 * static_cast<std::uint64_t>(kIters);
    return in;
  }

  static std::string check(const Input& in, const Output& out) {
    const char* names[3] = {"lookup.add", "lookup.min", "lookup.max"};
    for (int b = 0; b < 2; ++b) {
      const std::vector<std::int64_t>* got[3] = {&out.add[b], &out.min[b],
                                                 &out.max[b]};
      const std::vector<std::int64_t>* want[3] = {
          &in.want_add[b], &in.want_min[b], &in.want_max[b]};
      for (int k = 0; k < 3; ++k) {
        if (got[k]->size() != want[k]->size()) {
          return std::string(names[k]) + ": wrong bank size";
        }
        for (std::size_t j = 0; j < want[k]->size(); ++j) {
          if ((*got[k])[j] != (*want[k])[j]) {
            return mismatch(names[k], j, (*got[k])[j], (*want[k])[j]);
          }
        }
      }
    }
    return {};
  }

  static constexpr int kCorruptions = 3;
  static void corrupt(Output& out, int k) {
    if (k == 0) out.add[0][1] += 1;
    if (k == 1) out.min[1][700] += 1;
    if (k == 2) out.max[1][3] -= 1;
  }

  template <typename Kit, typename Fork>
  class Pass {
    using AddCell = typename Kit::template Cell<Add>;
    using MinCell = typename Kit::template Cell<Min>;
    using MaxCell = typename Kit::template Cell<Max>;

   public:
    // The banks persist across passes, as the paper's loops reuse theirs.
    explicit Pass(const Input& in) : in_(in) {
      for (int b = 0; b < 2; ++b) {
        add_[b] = std::make_unique<AddCell[]>(kBanks[b]);
        min_[b] = std::make_unique<MinCell[]>(kBanks[b]);
        max_[b] = std::make_unique<MaxCell[]>(kBanks[b]);
      }
    }

    template <typename Run>
    void operator()(Run&& run, Output& out) {
      Tracer& tr = Tracer::instance();
      {
        Span reset(tr, "reducers.set_value", 3 * (kBanks[0] + kBanks[1]));
        for (int b = 0; b < 2; ++b) {
          for (std::int64_t j = 0; j < kBanks[b]; ++j) {
            add_[b][j].set_value(Add{}.identity());
            min_[b][j].set_value(Min{}.identity());
            max_[b][j].set_value(Max{}.identity());
          }
        }
      }
      run([&] {
        const std::int64_t c = in_.c, d = in_.d;
        const std::int64_t* x = in_.x.data();
        const std::int64_t xmask = kValues - 1;
        for (int b = 0; b < 2; ++b) {
          const std::int64_t mask = kBanks[b] - 1;
          AddCell* add = add_[b].get();
          MinCell* mn = min_[b].get();
          MaxCell* mx = max_[b].get();
          {
            Span s(Tracer::instance(), "lookup.add_n", kIters);
            Fork::loop(0, kIters, kGrain,
                       [&](std::int64_t i) { add[i & mask].view() += c * i + d; });
          }
          {
            Span s(Tracer::instance(), "lookup.min_n", kIters);
            Fork::loop(0, kIters, kGrain, [&](std::int64_t i) {
              std::int64_t& v = mn[i & mask].view();
              if (x[i & xmask] < v) v = x[i & xmask];
            });
          }
          {
            Span s(Tracer::instance(), "lookup.max_n", kIters);
            Fork::loop(0, kIters, kGrain, [&](std::int64_t i) {
              std::int64_t& v = mx[i & mask].view();
              if (x[i & xmask] > v) v = x[i & xmask];
            });
          }
        }
      });
      Span get(tr, "reducers.get_value", 3 * (kBanks[0] + kBanks[1]));
      for (int b = 0; b < 2; ++b) {
        out.add[b].resize(kBanks[b]);
        out.min[b].resize(kBanks[b]);
        out.max[b].resize(kBanks[b]);
        for (std::int64_t j = 0; j < kBanks[b]; ++j) {
          out.add[b][j] = add_[b][j].get_value();
          out.min[b][j] = min_[b][j].get_value();
          out.max[b][j] = max_[b][j].get_value();
        }
      }
    }

   private:
    const Input& in_;
    std::unique_ptr<AddCell[]> add_[2];
    std::unique_ptr<MinCell[]> min_[2];
    std::unique_ptr<MaxCell[]> max_[2];
  };
};

// ---------------------------------------------------------------------------
// reduce: many short fine-grained rounds. Each round constructs a bank of
// add-reducers and one list-append reducer inside the run, touches every
// reducer once serially (creating the root's views), touches them again
// (hits), runs a fine-grained parallel loop that scatters seeded values
// into the bank and appends every kListEvery-th value to the list, copies
// the values out and destroys the reducers. Round r adds val[i] + r, so
// every round's sums differ; they are checked against a serial tally, and
// the list element by element against a serial loop.

struct Reduce {
  static constexpr std::int64_t kBank = 1024;
  static constexpr std::int64_t kIters = 4096;
  static constexpr std::int64_t kGrain = 4;
  static constexpr int kRounds = 16;
  static constexpr std::int64_t kListEvery = 32;

  struct Input {
    std::vector<std::uint32_t> idx;  // iters
    std::vector<std::int64_t> val;   // iters
    std::vector<std::int64_t> init;  // bank
    // Serial tally: round r's sum for reducer j is
    // init[j] + base[j] + r * hits[j].
    std::vector<std::int64_t> base, hits;
    std::vector<std::int64_t> list0;  // round 0's list; round r adds r
    std::uint64_t fork2joins = 0;
    std::uint64_t lookups = 0;
  };

  struct Output {
    std::vector<std::int64_t> sums;                // rounds x bank
    std::vector<std::vector<std::int64_t>> lists;  // rounds
  };

  static Input make(std::uint64_t seed) {
    SeedStream rng(seed ^ 0x5eed5eedULL);
    Input in;
    in.idx.resize(kIters);
    in.val.resize(kIters);
    in.init.resize(kBank);
    for (auto& j : in.idx) j = static_cast<std::uint32_t>(rng.next() % kBank);
    for (auto& v : in.val) v = rng.range(-1000000, 1000000);
    for (auto& v : in.init) v = rng.range(-1000000, 1000000);
    in.base.assign(kBank, 0);
    in.hits.assign(kBank, 0);
    for (std::int64_t i = 0; i < kIters; ++i) {
      in.base[in.idx[i]] += in.val[i];
      in.hits[in.idx[i]] += 1;
      if (i % kListEvery == 0) in.list0.push_back(in.val[i]);
    }
    in.fork2joins = kRounds * loop_forks(kIters, kGrain);
    // Per round: first touch, hit, loop, list appends, get_value.
    in.lookups = kRounds * static_cast<std::uint64_t>(3 * kBank + kIters +
                                                      static_cast<std::int64_t>(in.list0.size()));
    return in;
  }

  static std::string check(const Input& in, const Output& out) {
    if (out.sums.size() != static_cast<std::size_t>(kRounds * kBank) ||
        out.lists.size() != static_cast<std::size_t>(kRounds)) {
      return "reduce: wrong output shape";
    }
    for (int r = 0; r < kRounds; ++r) {
      for (std::int64_t j = 0; j < kBank; ++j) {
        const std::int64_t want = in.init[j] + in.base[j] + r * in.hits[j];
        const std::int64_t got = out.sums[r * kBank + j];
        if (got != want) return mismatch("reduce.sum", r * kBank + j, got, want);
      }
      const std::vector<std::int64_t>& list = out.lists[r];
      if (list.size() != in.list0.size()) {
        return mismatch("reduce.list_size", r, static_cast<std::int64_t>(list.size()),
                        static_cast<std::int64_t>(in.list0.size()));
      }
      for (std::size_t k = 0; k < list.size(); ++k) {
        if (list[k] != in.list0[k] + r) {
          return mismatch("reduce.list", k, list[k], in.list0[k] + r);
        }
      }
    }
    return {};
  }

  static constexpr int kCorruptions = 3;
  static void corrupt(Output& out, int k) {
    if (k == 0) out.sums[3] ^= 1;
    if (k == 1) std::swap(out.lists[1][0], out.lists[1][1]);
    if (k == 2) out.lists.back().pop_back();
  }

  template <typename Kit, typename Fork>
  class Pass {
    using AddCell = typename Kit::template Cell<Add>;
    using ListCell = typename Kit::template Cell<Append>;

   public:
    explicit Pass(const Input& in) : in_(in) {}

    template <typename Run>
    void operator()(Run&& run, Output& out) {
      out.sums.assign(static_cast<std::size_t>(kRounds * kBank), 0);
      out.lists.resize(static_cast<std::size_t>(kRounds));
      run([&] {
        for (int r = 0; r < kRounds; ++r) round(r, out);
      });
    }

   private:
    void round(int r, Output& out) {
      Tracer& tr = Tracer::instance();
      const std::int64_t bank = kBank;
      std::unique_ptr<AddCell[]> sums;
      std::optional<ListCell> list;
      {
        Span s(tr, "reducers.ctor", bank + 1);
        sums = std::make_unique<AddCell[]>(bank);
        list.emplace();
      }
      {
        Span s(tr, "lookup.first_touch", bank);
        for (std::int64_t j = 0; j < bank; ++j) sums[j].view() += in_.init[j];
      }
      {
        Span s(tr, "lookup.hit", bank);
        for (std::int64_t j = 0; j < bank; ++j) sums[j].view() += 0;
      }
      {
        Span s(tr, "reduce.loop", kIters);
        const std::uint32_t* idx = in_.idx.data();
        const std::int64_t* val = in_.val.data();
        AddCell* cells = sums.get();
        ListCell& l = *list;
        Fork::loop(0, kIters, kGrain, [&](std::int64_t i) {
          const std::int64_t v = val[i] + r;
          cells[idx[i]].view() += v;
          if (i % kListEvery == 0) l.view().push_back(v);
        });
      }
      {
        Span s(tr, "reducers.get_value", bank + 1);
        std::int64_t* dst = out.sums.data() + r * bank;
        for (std::int64_t j = 0; j < bank; ++j) dst[j] = sums[j].get_value();
        const std::list<std::int64_t>& got = list->get_value();
        out.lists[r].assign(got.begin(), got.end());
      }
      {
        Span s(tr, "reducers.dtor", bank + 1);
        sums.reset();
        list.reset();
      }
    }

    const Input& in_;
  };
};

}  // namespace perfbench
