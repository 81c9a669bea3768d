// The tagged, NUMA-sharded internal allocator (src/mem/): size-class
// round-trips, per-tag accounting, magazine refill/flush batching,
// cross-worker frees, the teardown leak check, node-shard selection against
// canned sysfs topologies, the consumers rewired through it (SpawnFrame,
// HyperMap tables, fiber headers), the StackPool's per-node trim — and a
// DPRNG-driven property test that random view merge/collapse orders keep
// the allocator's books balanced under all three view-store policies.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "hypermap/hypermap.hpp"
#include "mem/internal_alloc.hpp"
#include "mem/node_map.hpp"
#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "runtime/frame.hpp"
#include "runtime/stack_pool.hpp"
#include "test_support.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;
using cilkm::mem::AllocTag;
using cilkm::mem::InternalAlloc;
using cilkm::mem::NodeMap;
using cilkm::topo::Topology;

// Minimal canned-sysfs helper (same layout as test_topology.cpp's):
// 2 packages x 2 cores x 2 SMT, node0 = cpus 0-3, node1 = cpus 4-7.
class SysfsTree {
 public:
  SysfsTree() {
    static std::atomic<unsigned> counter{0};
    root_ = fs::temp_directory_path() /
            ("cilkm_alloc_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    fs::create_directories(root_ / "cpu");
  }
  ~SysfsTree() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  SysfsTree(const SysfsTree&) = delete;
  SysfsTree& operator=(const SysfsTree&) = delete;

  std::string path() const { return root_.string(); }

  void make_two_node_machine() {
    write(root_ / "cpu" / "online", "0-7");
    for (unsigned cpu = 0; cpu < 8; ++cpu) {
      const fs::path topo =
          root_ / "cpu" / ("cpu" + std::to_string(cpu)) / "topology";
      fs::create_directories(topo);
      write(topo / "physical_package_id", std::to_string(cpu / 4));
      write(topo / "core_id", std::to_string((cpu % 4) / 2));
    }
    add_node(0, "0-3");
    add_node(1, "4-7");
  }
  void add_node(unsigned node, const std::string& cpulist) {
    const fs::path dir = root_ / "node" / ("node" + std::to_string(node));
    fs::create_directories(dir);
    write(dir / "cpulist", cpulist);
  }

 private:
  static void write(const fs::path& file, const std::string& content) {
    std::ofstream out(file);
    out << content << "\n";
  }
  fs::path root_;
};

// ---------------------------------------------------------------------------
// Size classes
// ---------------------------------------------------------------------------

TEST(InternalAlloc, SizeClassBoundaries) {
  EXPECT_EQ(InternalAlloc::size_class(1), 0);
  EXPECT_EQ(InternalAlloc::size_class(16), 0);
  EXPECT_EQ(InternalAlloc::size_class(17), 1);
  EXPECT_EQ(InternalAlloc::size_class(256), 4);
  EXPECT_EQ(InternalAlloc::size_class(257), 5);
  EXPECT_EQ(InternalAlloc::size_class(4096), 8);
  EXPECT_EQ(InternalAlloc::size_class(4097), -1);  // operator-new fall-through
}

TEST(InternalAlloc, EveryClassRoundTrips) {
  InternalAlloc alloc;  // standalone: magazine-less, shard-direct
  for (const std::size_t size : InternalAlloc::kClassSizes) {
    std::set<void*> seen;
    std::vector<void*> ptrs;
    for (int i = 0; i < 50; ++i) {
      void* p = alloc.allocate(size, AllocTag::kGeneral);
      ASSERT_NE(p, nullptr);
      EXPECT_TRUE(seen.insert(p).second) << "duplicate block, class " << size;
      std::memset(p, 0xab, size);
      ptrs.push_back(p);
    }
    for (void* p : ptrs) alloc.deallocate(p, size, AllocTag::kGeneral);
  }
  EXPECT_TRUE(alloc.leak_report().clean);
}

// ---------------------------------------------------------------------------
// Tag accounting
// ---------------------------------------------------------------------------

TEST(InternalAlloc, TagAccountingTracksLiveAndPeak) {
  InternalAlloc alloc;
  std::vector<void*> ptrs;
  for (int i = 0; i < 10; ++i) {
    ptrs.push_back(alloc.allocate(48, AllocTag::kViews));
  }
  auto stats = alloc.tag_stats(AllocTag::kViews);
  EXPECT_EQ(stats.live_blocks, 10u);
  EXPECT_EQ(stats.live_bytes, 10u * 64);  // 48 rounds up to the 64 B class
  EXPECT_EQ(stats.allocs, 10u);
  // Other tags untouched.
  EXPECT_EQ(alloc.tag_stats(AllocTag::kFrames).live_blocks, 0u);

  for (void* p : ptrs) alloc.deallocate(p, 48, AllocTag::kViews);
  stats = alloc.tag_stats(AllocTag::kViews);
  EXPECT_EQ(stats.live_blocks, 0u);
  EXPECT_EQ(stats.live_bytes, 0u);
  // Peaks persist after the frees.
  EXPECT_EQ(stats.peak_blocks, 10u);
  EXPECT_EQ(stats.peak_bytes, 10u * 64);
}

TEST(InternalAlloc, OversizeFallThroughStaysTagCounted) {
  InternalAlloc alloc;
  void* p = alloc.allocate(8192, AllocTag::kGeneral);
  ASSERT_NE(p, nullptr);
  std::memset(p, 1, 8192);
  auto stats = alloc.tag_stats(AllocTag::kGeneral);
  EXPECT_EQ(stats.live_blocks, 1u);
  EXPECT_EQ(stats.live_bytes, 8192u);  // exact, not class-rounded
  alloc.deallocate(p, 8192, AllocTag::kGeneral);
  EXPECT_TRUE(alloc.leak_report().clean);
}

// ---------------------------------------------------------------------------
// Magazine refill / flush batching
// ---------------------------------------------------------------------------

TEST(InternalAlloc, RefillMovesBatchesAndFlushReturnsThem) {
  const Topology topo = Topology::flat(4);  // one shard: deterministic home
  InternalAlloc alloc(&topo);
  const int cls = InternalAlloc::size_class(64);

  // Magazine A's first allocation finds the shard empty and carves a whole
  // chunk into the magazine; flushing returns every block to the shard.
  InternalAlloc::Magazine a;
  void* p = alloc.allocate(64, AllocTag::kViews, &a);
  EXPECT_EQ(alloc.tag_stats(AllocTag::kViews).refills, 1u);
  alloc.deallocate(p, 64, AllocTag::kViews, &a);
  alloc.flush(a);
  const std::size_t shard_after_flush =
      alloc.shard_cached(0, AllocTag::kViews, cls);
  EXPECT_EQ(shard_after_flush, InternalAlloc::kChunkBytes / 64);
  EXPECT_GE(alloc.tag_stats(AllocTag::kViews).flushes, 1u);

  // Magazine B refills from the now-populated shard in kBatch units.
  InternalAlloc::Magazine b;
  void* q = alloc.allocate(64, AllocTag::kViews, &b);
  EXPECT_EQ(alloc.shard_cached(0, AllocTag::kViews, cls),
            shard_after_flush - InternalAlloc::kBatch);
  alloc.deallocate(q, 64, AllocTag::kViews, &b);
  alloc.flush(b);
  EXPECT_TRUE(alloc.leak_report().clean);
}

TEST(InternalAlloc, HighWaterDrainBoundsMagazineGrowth) {
  const Topology topo = Topology::flat(2);
  InternalAlloc alloc(&topo);
  const int cls = InternalAlloc::size_class(128);

  // Fill one magazine well past the high-water mark by freeing blocks that
  // were allocated magazine-less (straight from the shard): the surplus
  // must drain back to the shard rather than accumulate without bound.
  std::vector<void*> ptrs;
  for (std::size_t i = 0; i < 3 * InternalAlloc::kHighWater; ++i) {
    ptrs.push_back(alloc.allocate(128, AllocTag::kGeneral, nullptr));
  }
  InternalAlloc::Magazine mag;
  const std::size_t shard_before =
      alloc.shard_cached(0, AllocTag::kGeneral, cls);
  for (void* p : ptrs) alloc.deallocate(p, 128, AllocTag::kGeneral, &mag);
  EXPECT_GT(alloc.shard_cached(0, AllocTag::kGeneral, cls), shard_before);
  EXPECT_GT(alloc.tag_stats(AllocTag::kGeneral).flushes, 0u);
  alloc.flush(mag);
  EXPECT_TRUE(alloc.leak_report().clean);
}

// ---------------------------------------------------------------------------
// Cross-worker frees
// ---------------------------------------------------------------------------

TEST(InternalAlloc, CrossMagazineFreeKeepsBooksBalanced) {
  // Views are routinely allocated on one worker and freed on another (the
  // hypermerge destroys the right-hand view wherever the join lands).
  const Topology topo = Topology::flat(4);
  InternalAlloc alloc(&topo);
  InternalAlloc::Magazine worker_a, worker_b;
  std::vector<void*> ptrs;
  for (int i = 0; i < 200; ++i) {
    ptrs.push_back(alloc.allocate(32, AllocTag::kViews, &worker_a));
  }
  for (void* p : ptrs) alloc.deallocate(p, 32, AllocTag::kViews, &worker_b);
  alloc.flush(worker_a);
  alloc.flush(worker_b);
  EXPECT_EQ(alloc.tag_stats(AllocTag::kViews).live_blocks, 0u);
  EXPECT_TRUE(alloc.leak_report().clean);
}

TEST(InternalAlloc, FreeReconciledBeforeItsAllocKeepsPeakBounded) {
  // The freeing thread folds its negative delta in first, so the live
  // counters dip below zero until the allocating thread reconciles. That
  // dip must not be recorded as a ~1.8e19 peak.
  const Topology topo = Topology::flat(4);
  InternalAlloc alloc(&topo);
  InternalAlloc::Magazine alloc_mag, free_mag;
  constexpr int kBlocks = 10;
  std::vector<void*> ptrs;
  std::thread allocator([&] {
    for (int i = 0; i < kBlocks; ++i) {
      ptrs.push_back(alloc.allocate(64, AllocTag::kViews, &alloc_mag));
    }
  });
  allocator.join();
  std::thread freer([&] {
    for (void* p : ptrs) alloc.deallocate(p, 64, AllocTag::kViews, &free_mag);
    alloc.flush(free_mag);
  });
  freer.join();
  alloc.flush(alloc_mag);
  const auto stats = alloc.tag_stats(AllocTag::kViews);
  EXPECT_EQ(stats.live_blocks, 0u);
  EXPECT_LE(stats.peak_blocks, static_cast<std::uint64_t>(kBlocks));
  EXPECT_LE(stats.peak_bytes, static_cast<std::uint64_t>(kBlocks) * 64);
  EXPECT_TRUE(alloc.leak_report().clean);
}

TEST(InternalAlloc, CrossThreadFreeOnProcessInstanceIsSafe) {
  auto& alloc = InternalAlloc::instance();
  alloc.stats_sync();
  const auto before = alloc.tag_stats(AllocTag::kGeneral).live_blocks;
  std::vector<void*> ptrs;
  for (int i = 0; i < 300; ++i) {
    ptrs.push_back(alloc.allocate(64, AllocTag::kGeneral));
  }
  std::thread other([&] {
    for (void* p : ptrs) alloc.deallocate(p, 64, AllocTag::kGeneral);
  });
  other.join();
  std::set<void*> seen;
  std::vector<void*> round2;
  for (int i = 0; i < 300; ++i) {
    void* p = alloc.allocate(64, AllocTag::kGeneral);
    EXPECT_TRUE(seen.insert(p).second);
    round2.push_back(p);
  }
  for (void* p : round2) alloc.deallocate(p, 64, AllocTag::kGeneral);
  alloc.stats_sync();  // the freeing thread's magazine reconciled at exit
  EXPECT_EQ(alloc.tag_stats(AllocTag::kGeneral).live_blocks, before);
}

TEST(InternalAlloc, ConcurrentAllocFreeStress) {
  auto& alloc = InternalAlloc::instance();
  constexpr int kThreads = 4, kIters = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const AllocTag tag = t % 2 == 0 ? AllocTag::kViews : AllocTag::kFrames;
      std::vector<void*> held;
      for (int i = 0; i < kIters; ++i) {
        held.push_back(alloc.allocate(16, tag));
        std::memset(held.back(), 0x5a, 16);
        if (held.size() > 48) {
          alloc.deallocate(held.front(), 16, tag);
          held.erase(held.begin());
        }
      }
      for (void* p : held) alloc.deallocate(p, 16, tag);
    });
  }
  for (auto& th : threads) th.join();
}

// ---------------------------------------------------------------------------
// Leak check
// ---------------------------------------------------------------------------

TEST(InternalAlloc, LeakCheckTripsOnDeliberatelyLeakedBlock) {
  InternalAlloc alloc;
  void* leaked = alloc.allocate(96, AllocTag::kHypermapNodes);
  auto report = alloc.leak_report();
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(
      report.blocks[static_cast<std::size_t>(AllocTag::kHypermapNodes)], 1u);
  EXPECT_NE(report.describe().find("hypermap_nodes=1"), std::string::npos);
  // Repaying the debt makes the report clean again.
  alloc.deallocate(leaked, 96, AllocTag::kHypermapNodes);
  report = alloc.leak_report();
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.describe(), "no outstanding blocks");
}

// ---------------------------------------------------------------------------
// Node-shard selection
// ---------------------------------------------------------------------------

TEST(NodeMapTest, TwoNodeSysfsMachineShardsByNode) {
  SysfsTree tree;
  tree.make_two_node_machine();
  const Topology topo = Topology::discover_at(tree.path());
  ASSERT_EQ(topo.num_nodes(), 2u);

  NodeMap map(topo);
  EXPECT_EQ(map.num_shards(), 2u);
  for (unsigned cpu = 0; cpu < 4; ++cpu) EXPECT_EQ(map.shard_of_cpu(cpu), 0u);
  for (unsigned cpu = 4; cpu < 8; ++cpu) EXPECT_EQ(map.shard_of_cpu(cpu), 1u);
  EXPECT_EQ(map.shard_of_cpu(99), 0u);  // out of range → shard 0

  InternalAlloc alloc(&topo);
  EXPECT_EQ(alloc.num_shards(), 2u);
  EXPECT_EQ(alloc.shard_of_cpu(2), 0u);
  EXPECT_EQ(alloc.shard_of_cpu(6), 1u);
}

TEST(NodeMapTest, SparseNodeIdsAreDensified) {
  SysfsTree tree;
  tree.make_two_node_machine();
  // Overwrite the node directories: ids 0 and 4 (sparse, as on some
  // multi-socket boxes with memory-less nodes removed).
  std::error_code ec;
  fs::remove_all(fs::path(tree.path()) / "node", ec);
  tree.add_node(0, "0-3");
  tree.add_node(4, "4-7");
  const Topology topo = Topology::discover_at(tree.path());
  NodeMap map(topo);
  EXPECT_EQ(map.num_shards(), 2u);
  EXPECT_EQ(map.shard_of_cpu(0), 0u);
  EXPECT_EQ(map.shard_of_cpu(7), 1u);
}

TEST(NodeMapTest, FlatTopologyCollapsesToOneShard) {
  const Topology topo = Topology::flat(8);
  NodeMap map(topo);
  EXPECT_EQ(map.num_shards(), 1u);
  EXPECT_EQ(map.current_shard(), 0u);  // no sched_getcpu query needed
}

TEST(InternalAlloc, BoundMagazineExchangesWithItsNodeShard) {
  SysfsTree tree;
  tree.make_two_node_machine();
  const Topology topo = Topology::discover_at(tree.path());
  InternalAlloc alloc(&topo);
  const int cls = InternalAlloc::size_class(64);

  // A magazine pinned to node 1 carves/flushes against shard 1 only.
  InternalAlloc::Magazine mag;
  mag.node = 1;
  void* p = alloc.allocate(64, AllocTag::kViews, &mag);
  alloc.deallocate(p, 64, AllocTag::kViews, &mag);
  alloc.flush(mag);
  EXPECT_EQ(alloc.shard_cached(0, AllocTag::kViews, cls), 0u);
  EXPECT_EQ(alloc.shard_cached(1, AllocTag::kViews, cls),
            InternalAlloc::kChunkBytes / 64);
  EXPECT_TRUE(alloc.leak_report().clean);
}

// ---------------------------------------------------------------------------
// Rewired consumers
// ---------------------------------------------------------------------------

TEST(InternalAllocConsumers, HeapSpawnFramesUseTheFramesTag) {
  auto& alloc = InternalAlloc::instance();
  alloc.stats_sync();
  const auto before = alloc.tag_stats(AllocTag::kFrames);
  auto* frame = new cilkm::rt::SpawnFrame();
  alloc.stats_sync();
  const auto during = alloc.tag_stats(AllocTag::kFrames);
  EXPECT_EQ(during.allocs, before.allocs + 1);
  EXPECT_EQ(during.live_blocks, before.live_blocks + 1);
  delete frame;
  alloc.stats_sync();
  EXPECT_EQ(alloc.tag_stats(AllocTag::kFrames).live_blocks,
            before.live_blocks);
}

TEST(InternalAllocConsumers, HyperMapTablesUseTheHypermapTag) {
  auto& alloc = InternalAlloc::instance();
  alloc.stats_sync();
  const auto before = alloc.tag_stats(AllocTag::kHypermapNodes);
  {
    cilkm::hypermap::HyperMap map;
    int keys[100];
    for (int& k : keys) map.insert(&k, &k, nullptr);  // forces expansions
    alloc.stats_sync();
    EXPECT_GT(alloc.tag_stats(AllocTag::kHypermapNodes).allocs,
              before.allocs);
    EXPECT_GT(alloc.tag_stats(AllocTag::kHypermapNodes).live_blocks,
              before.live_blocks);
  }
  alloc.stats_sync();
  EXPECT_EQ(alloc.tag_stats(AllocTag::kHypermapNodes).live_blocks,
            before.live_blocks);
}

TEST(InternalAllocConsumers, StackPoolTrimsBeyondPerNodeHighWater) {
  const Topology topo = Topology::flat(4);  // one shard
  cilkm::rt::StackPool pool(&topo, /*max_cached_per_node=*/2);
  ASSERT_EQ(pool.num_shards(), 1u);

  std::vector<cilkm::rt::Fiber*> fibers;
  for (int i = 0; i < 5; ++i) fibers.push_back(pool.acquire());
  EXPECT_EQ(pool.total_created(), 5u);
  for (auto* f : fibers) pool.release(f);  // no local cache: straight to shard
  // The shard keeps at most the high-water count; the rest were unmapped.
  EXPECT_EQ(pool.cached(0), 2u);
  // Re-acquiring two comes from the cache, the third is fresh.
  cilkm::rt::Fiber* a = pool.acquire();
  cilkm::rt::Fiber* b = pool.acquire();
  cilkm::rt::Fiber* c = pool.acquire();
  EXPECT_EQ(pool.total_created(), 6u);
  pool.release(a);
  pool.release(b);
  pool.release(c);
}

// ---------------------------------------------------------------------------
// DPRNG-driven property: random view merge/collapse orders keep the books
// balanced. A random fork-join DAG creates views on whichever workers steal
// its strands and merges/destroys them wherever joins land; whatever order
// the DAG induces, every policy must return the kViews ledger to its
// starting point once the reducers are gone.
// ---------------------------------------------------------------------------

struct MergeFuzzShape {
  std::uint64_t seed;
  unsigned max_depth;
};

template <typename Policy>
void run_merge_fuzz(const MergeFuzzShape& shape, unsigned workers) {
  struct Node {
    static void walk(cilkm::reducer<cilkm::string_concat, Policy>* cat,
                     cilkm::reducer_opadd<long, Policy>* sum,
                     const MergeFuzzShape& shape, std::uint64_t path,
                     unsigned depth) {
      std::uint64_t state = shape.seed ^ (path * 0x9e3779b97f4a7c15ULL);
      const std::uint64_t r = cilkm::splitmix64(state);
      if (depth >= shape.max_depth || r % 5 == 0) {
        cat->view() += static_cast<char>('a' + r % 26);
        *(*sum) += static_cast<long>(r % 100);
        if (r % 7 == 0) std::this_thread::yield();  // vary steal timing
        return;
      }
      cilkm::fork2join(
          [&] { walk(cat, sum, shape, path * 2 + 1, depth + 1); },
          [&] { walk(cat, sum, shape, path * 2 + 2, depth + 1); });
    }
  };

  auto& alloc = InternalAlloc::instance();
  alloc.stats_sync();
  const auto views_before = alloc.tag_stats(AllocTag::kViews).live_blocks;
  {
    cilkm::reducer<cilkm::string_concat, Policy> cat;
    cilkm::reducer_opadd<long, Policy> sum;
    cilkm::run(workers,
               [&] { Node::walk(&cat, &sum, shape, 0, 0); });
    EXPECT_FALSE(cat.get_value().empty());
  }
  // Every view the run created — ambient, stolen-branch, merged — is gone.
  // Worker magazines reconciled when the run's pool shut down; fold in this
  // thread's own deltas before comparing.
  alloc.stats_sync();
  EXPECT_EQ(alloc.tag_stats(AllocTag::kViews).live_blocks, views_before);
}

class MergeOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(MergeOrderProperty, AllPoliciesKeepViewLedgerBalanced) {
  SCOPED_TRACE(cilkm::test::seed_trace());
  const MergeFuzzShape shape{
      cilkm::test::derived_seed(100 + static_cast<std::uint64_t>(GetParam())),
      9};
  for (const unsigned workers : {2u, 4u}) {
    run_merge_fuzz<cilkm::mm_policy>(shape, workers);
    run_merge_fuzz<cilkm::hypermap_policy>(shape, workers);
    run_merge_fuzz<cilkm::flat_policy>(shape, workers);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeOrderProperty, ::testing::Range(0, 6));

}  // namespace
