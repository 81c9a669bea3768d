#include "runtime/pedigree.hpp"

namespace cilkm::rt {

namespace {
constinit thread_local StrandContext t_strand{};
}  // namespace

// Out of line and noinline on purpose — see the declaration.
__attribute__((noinline)) StrandContext& strand() noexcept { return t_strand; }

}  // namespace cilkm::rt
