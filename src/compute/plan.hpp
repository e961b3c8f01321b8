// The host kernels' execution layer: which pool they run on, which ISA
// their micro-kernels dispatch on, and where their packing scratch comes
// from.
//
// There is one parallel path.  A kernel splits its output into independent
// jobs and runs them with compute::executor().parallel_for — the blocked
// GEMM in two phases (pack, then tiles), SpMM in one (row blocks).  The
// calling thread claims chunks too, so a kernel launched from inside a pool
// worker completes even on a 1-worker pool; the grain keeps tiny shapes on
// the calling thread; the first exception aborts the remaining chunks and is
// rethrown on the caller.
//
// Determinism: every output element is written by exactly one job, and each
// job folds its reduction in the kernel's canonical (ascending-k /
// ascending-edge) order.  Scheduling order can therefore never perturb
// result bits, at any worker count.
#pragma once

#include <cstddef>

#include "gpusim/executor.hpp"

namespace sagesim::compute {

/// The executor host kernels run on: gpu::Executor::shared() unless
/// overridden.  set_executor(nullptr) restores the shared pool.  The
/// override exists for worker-count sweeps (tests, microbenches) — swap in
/// a private pool of exactly N workers without re-execing under a different
/// SAGESIM_WORKERS.  Not intended to be raced against in-flight kernels.
gpu::Executor& executor();
void set_executor(gpu::Executor* ex);

/// Host ISA the kernel micro-kernels dispatch on, resolved once at runtime.
enum class Isa { kPortable, kAvx2 };
Isa isa();
/// "avx2" / "portable" — the string benches record so BENCH deltas are
/// attributable to the dispatch choice.
const char* isa_name();

/// RAII scratch block drawn from mem::host_pool() — a kernel's packing
/// buffers, recycled across launches by the pool's free lists instead of
/// hitting the host heap per launch.
class Scratch {
 public:
  explicit Scratch(std::size_t bytes);
  ~Scratch();
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  float* floats() { return static_cast<float*>(ptr_); }
  void* data() { return ptr_; }

 private:
  void* ptr_{nullptr};
};

}  // namespace sagesim::compute
