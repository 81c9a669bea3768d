// Pooled, guard-paged fiber stacks. Fibers are the reproduction's stand-in
// for Cilk-M's TLMM-backed cactus stack: each stolen branch and
// each parked join continuation occupies one. Free fibers recycle through
// per-NUMA-node shards (stack pages were first-touched on the node that
// carved them; node-local recycling keeps them there), with a small
// per-worker LIFO cache in front and a high-water trim behind: shards
// munmap stacks beyond a per-node cap, so long-lived pools don't pin peak
// RSS at the high-water mark of one burst. Fiber headers come from the
// tagged internal allocator (AllocTag::kFiberStacks).
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "mem/node_map.hpp"
#include "runtime/context.hpp"
#include "util/cache.hpp"
#include "util/spinlock.hpp"

namespace cilkm::rt {

struct Fiber {
  Context ctx;             // saved state while suspended / dummy save slot
  void* stack_top = nullptr;  // highest usable address (stacks grow down)
  std::byte* alloc_base = nullptr;
  std::size_t alloc_size = 0;
  Fiber* next = nullptr;   // free-list link
  void* tsan_fiber = nullptr;  // TSan shadow state, 1:1 with this stack
};

/// A worker's local cache of free fibers: LIFO, single-owner, lock-free.
/// Small — the node shard is the real reservoir; this just keeps the
/// steal/join hot path off the shard lock.
struct LocalFiberCache {
  static constexpr std::size_t kMaxCached = 4;
  Fiber* head = nullptr;
  std::size_t count = 0;
};

/// Node-sharded stack pool. Thread-safe; instance() is the process-wide
/// pool, standalone instances (tests) take an injected topology and cap.
class StackPool {
 public:
  // Stacks are lazily committed (MAP_NORESERVE) so a generous virtual size
  // costs only the pages actually touched; 8 MiB matches the usual OS
  // thread-stack default and leaves room for unoptimised (-O0) frames in
  // deep spawn chains.
  static constexpr std::size_t kDefaultStackBytes = 8u << 20;

  /// High-water trim: free fibers cached per node shard beyond this are
  /// destroyed (munmap + header free) instead of pooled.
  static constexpr std::size_t kMaxCachedPerNode = 32;

  /// Extra allocate_fresh attempts acquire() makes when stack memory is
  /// exhausted, with exponential backoff (1/2/4 ms) and a shard re-probe
  /// between attempts.
  static constexpr unsigned kAcquireRetries = 3;

  static StackPool& instance();

  explicit StackPool(const topo::Topology* topology = nullptr,
                     std::size_t max_cached_per_node = kMaxCachedPerNode);
  ~StackPool();

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  /// Get a fiber with a fresh (or recycled) stack. The first (lowest) page is
  /// PROT_NONE so runaway recursion faults instead of corrupting memory.
  /// With `local`, the worker's cache is tried before the node shard.
  /// Returns nullptr when stack memory is exhausted (mmap/mprotect/header
  /// failure) even after kAcquireRetries backed-off retries; the caller
  /// degrades instead of aborting.
  Fiber* acquire(LocalFiberCache* local = nullptr);
  void release(Fiber* fiber, LocalFiberCache* local = nullptr);

  /// Drain a worker's cache into the node shards (worker teardown).
  void flush(LocalFiberCache& local);

  /// Stacks ever created (for cactus-stack pressure accounting in tests).
  std::size_t total_created() const noexcept {
    return created_.load(std::memory_order_relaxed);
  }

  /// Free fibers parked in one node shard (test hook).
  std::size_t cached(unsigned shard) const;
  unsigned num_shards() const noexcept { return nodes_.num_shards(); }

 private:
  struct alignas(kCacheLineSize) Shard {
    SpinLock lock;
    Fiber* head = nullptr;
    std::size_t count = 0;
  };

  Fiber* allocate_fresh();
  void destroy_fiber(Fiber* fiber);
  void shard_release(Fiber* fiber);

  mem::NodeMap nodes_;
  std::vector<Shard> shards_;
  std::size_t max_cached_per_node_;
  std::atomic<std::size_t> created_{0};
};

}  // namespace cilkm::rt
