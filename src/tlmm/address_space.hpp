// Software model of the TLMM-Linux virtual-memory design (paper Section 4):
// x86-64-style 4-level page tables with 512-entry directories, one root page
// directory per thread, root entry 0 reserved for the 512-GByte TLMM region,
// and all remaining root entries referring to page directories shared by
// every thread — populated once, visible to all.
//
// This module exists to validate the *kernel-side* semantics the paper relies
// on; the production reducer path uses the fast user-space emulation in
// region.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "tlmm/page_descriptor.hpp"

namespace cilkm::tlmm {

/// 9 bits of virtual address per level, 4 levels, 4096-byte pages = 48-bit
/// virtual addresses. Root entry 0 covers [0, 512 GB) — the TLMM region.
inline constexpr int kLevels = 4;
inline constexpr int kDirBits = 9;
inline constexpr std::size_t kDirEntries = std::size_t{1} << kDirBits;
inline constexpr std::uint64_t kTlmmRegionBytes =
    kDirEntries * kDirEntries * kDirEntries * kPageSize;  // 512 GB

using ThreadId = std::uint32_t;

class AddressSpace {
 public:
  explicit AddressSpace(PageDescriptorManager& pdm) : pdm_(&pdm) {}

  /// Register a thread: assigns it a unique root page directory whose shared
  /// entries alias the process-wide directories (synchronised lazily, as the
  /// TLMM-Linux VM manager does for root-entry updates).
  void attach_thread(ThreadId tid);
  void detach_thread(ThreadId tid);

  /// sys_pmap: map `pds.size()` physical pages at consecutive page-aligned
  /// virtual addresses starting at `base_va`, in `tid`'s TLMM region only.
  /// A kPdNull descriptor removes the mapping at that slot.
  void pmap(ThreadId tid, std::uint64_t base_va, std::span<const std::uint32_t> pds);

  /// Map a page into the *shared* region (heap/.data analogue). Visible to
  /// all attached threads immediately; lower-level directories are populated
  /// exactly once.
  void map_shared(std::uint64_t va, std::uint32_t pd);
  void unmap_shared(std::uint64_t va);

  /// Software page-table walk. Returns nullptr on an unmapped address
  /// ("page fault"). The returned pointer is into the simulated frame.
  std::byte* translate(ThreadId tid, std::uint64_t va);

  /// Convenience typed access used by tests.
  template <typename T>
  T read(ThreadId tid, std::uint64_t va) {
    std::byte* p = translate(tid, va);
    CILKM_CHECK(p != nullptr, "read from unmapped virtual address");
    T out;
    __builtin_memcpy(&out, p, sizeof(T));
    return out;
  }
  template <typename T>
  void write(ThreadId tid, std::uint64_t va, const T& value) {
    std::byte* p = translate(tid, va);
    CILKM_CHECK(p != nullptr, "write to unmapped virtual address");
    __builtin_memcpy(p, &value, sizeof(T));
  }

  /// Number of lower-level directories allocated for the shared region;
  /// tests use this to show sharing is populated once, not per thread.
  std::size_t shared_directory_count();

 private:
  struct Directory {
    // Interior levels: child directory pointers. Leaf level: pd + 1 (0 means
    // unmapped) stored in `leaf` so a Directory serves both roles.
    std::array<std::unique_ptr<Directory>, kDirEntries> child{};
    std::array<std::uint32_t, kDirEntries> leaf{};  // pd + 1; 0 = invalid
  };

  struct ThreadRoot {
    // Root entry 0: private TLMM L3 directory. Entries 1..511 alias
    // shared_root_ (modelled by lookup fallthrough rather than duplication).
    std::unique_ptr<Directory> tlmm_l3 = std::make_unique<Directory>();
  };

  static std::array<std::size_t, kLevels> split_va(std::uint64_t va) noexcept {
    // idx[0] = root-level index, idx[3] = leaf-level index.
    std::array<std::size_t, kLevels> idx{};
    for (int level = 0; level < kLevels; ++level) {
      const int shift = 12 + kDirBits * (kLevels - 1 - level);
      idx[static_cast<std::size_t>(level)] = (va >> shift) & (kDirEntries - 1);
    }
    return idx;
  }

  // Walk (creating missing interior directories) down to the leaf directory
  // covering va, starting from an L3 directory. When alloc_counter is
  // non-null, each newly created interior directory bumps it.
  Directory* walk_to_leaf(Directory* l3, std::uint64_t va, bool create,
                          std::size_t* alloc_counter = nullptr);

  PageDescriptorManager* pdm_;
  std::mutex mutex_;
  std::unordered_map<ThreadId, ThreadRoot> threads_;
  // Shared region: root entries 1..511. shared_l3_[i] covers root slot i+1.
  std::array<std::unique_ptr<Directory>, kDirEntries - 1> shared_l3_{};
  std::size_t shared_dir_count_ = 0;
};

}  // namespace cilkm::tlmm
