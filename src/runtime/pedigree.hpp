// Spawn pedigrees (Leiserson, Schardl & Sukha, SPAA'12 "DPRNG"): every
// strand of the fork-join computation is named by the path of spawn ranks
// from the root — a sequence fixed by the SERIAL elision of the program,
// identical under every steal schedule, worker count, and steal-batch
// setting. fork2join maintains the ranks (api.hpp), promoted frames carry
// them through steals (frame.hpp / fiber_main), and util/dprng.hpp hashes
// them so any random draw inside a parallel region is a pure function of
// (seed, pedigree).
//
// Representation: the rank prefix is a linked chain of stack-allocated
// nodes, one per live fork2join activation (the node lives in the spawning
// call's stack frame, exactly as deep as the spawn tree). A chain node is
// immutable once published; only the leaf rank — the current strand's own
// counter — mutates, and it lives in the thread-local StrandContext that
// every resume point (steal, self-pop, joining resume) re-establishes from
// the frame.
//
// Rank discipline, mirroring cilk_spawn/cilk_sync:
//   - fork2join(a, b) at rank r runs `a` as the spawned child with pedigree
//     prefix+[r] (child leaf rank restarts at 0), runs `b` as the
//     continuation at rank r+1, and leaves the join at rank r+2 (the sync
//     bump), so strands before, beside, and after the join never alias.
//   - A DPRNG draw consumes the current leaf rank and bumps it, so
//     consecutive draws on one strand are distinct and a draw's value
//     depends only on the serial position of the draw.
#pragma once

#include <cstdint>

#include "obs/profiler.hpp"

namespace cilkm::rt {

/// One rank of the pedigree prefix, linked toward the root. Lives on the
/// spawning fork2join's stack; valid for exactly as long as that call is
/// live, which covers every strand (and thief) below it.
struct PedigreeNode {
  std::uint64_t rank;
  const PedigreeNode* parent;
};

/// The calling strand's pedigree: the immutable prefix chain plus the
/// mutable leaf rank. Part of the StrandContext; re-seated from the
/// SpawnFrame at every point where a strand (re)starts on an OS thread.
struct PedigreeState {
  const PedigreeNode* parent = nullptr;
  std::uint64_t rank = 0;
};

/// Everything the runtime keeps per running strand, in one thread-local:
/// the pedigree, the work/span profiler's accumulators (obs/profiler.hpp)
/// and the chaos fault-suppression depth (chaos/chaos.hpp). Valid on any
/// thread: workers re-seat it at strand boundaries, and a scheduler-less
/// thread (serial elision) advances its own copy through the identical
/// transitions.
struct StrandContext {
  PedigreeState ped;
  obs::ProfileState prof;
  unsigned suppress = 0;
};

/// The calling thread's StrandContext.
///
/// Deliberately OUT OF LINE (pedigree.cpp, noinline): fibers migrate
/// between OS threads at joins, and an inlined accessor lets the compiler
/// CSE the thread-local's materialized address across the migration point —
/// the resumed strand would then write the OLD thread's context (observed
/// as a TSan race between fork2join's post-join reseat and the departed
/// thread's own spawns). The opaque call forces a fresh %fs-relative
/// address computation on the thread that is actually running the strand.
/// A returned reference stays valid only until the next potential
/// migration (any fork2join or scheduler call): re-fetch after those, never
/// reuse one taken before them.
StrandContext& strand() noexcept;

/// The current strand's pedigree state (a view of strand()).
inline PedigreeState& current_pedigree() noexcept { return strand().ped; }

/// Number of ranks in the pedigree (prefix length + the leaf). Linear walk;
/// meant for tests and diagnostics, not hot paths.
inline unsigned pedigree_depth() noexcept {
  unsigned depth = 1;
  for (const PedigreeNode* n = current_pedigree().parent; n != nullptr;
       n = n->parent) {
    ++depth;
  }
  return depth;
}

/// Scoped reset to the root pedigree, restoring the caller's state on exit.
/// Serial reference computations wrap themselves in one of these so their
/// draws replay the root-rooted pedigrees a scheduler run produces.
class PedigreeScope {
 public:
  PedigreeScope() noexcept : saved_(current_pedigree()) {
    current_pedigree() = {};
  }
  ~PedigreeScope() { current_pedigree() = saved_; }

  PedigreeScope(const PedigreeScope&) = delete;
  PedigreeScope& operator=(const PedigreeScope&) = delete;

 private:
  PedigreeState saved_;
};

}  // namespace cilkm::rt
