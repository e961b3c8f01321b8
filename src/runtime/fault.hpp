// Deterministic fault injection for the task-graph runtime.
//
// A FaultInjector makes one seeded decision per matching task — run it
// clean, delay it, or preempt it (the task's future fails with
// sagesim::Preempted, a *retryable* status).  Decisions are drawn at
// *submit* time in submission order, so a fixed seed and a fixed program
// yield the same fault pattern regardless of worker interleaving; re-runs
// after a restart consume fresh draws and therefore eventually succeed,
// exactly like re-acquired spot capacity.
//
// Attach to a scheduler with Scheduler::set_fault_injector (dflow::Cluster
// forwards via ClusterOptions::faults).  SAGESIM_FAULT_SEED /
// SAGESIM_FAULT_RATE configure one from the environment (see
// FaultConfig::from_env) — the README's "run any example under injected
// preemptions" knob.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <string>

namespace sagesim::runtime {

/// The plan for one task, decided at submit time.
struct FaultDecision {
  bool preempt{false};   ///< fail the task with sagesim::Preempted
  double delay_ms{0.0};  ///< stall the task body by this much first
};

struct FaultConfig {
  std::uint64_t seed{0};
  /// Probability a matching task is preempted (fails retryably).
  double preempt_probability{0.0};
  /// Probability a matching task is delayed by delay_ms before running.
  double delay_probability{0.0};
  double delay_ms{1.0};
  /// Only tasks whose name contains this substring are eligible; empty
  /// matches every task (unnamed ones included).
  std::string name_filter;
  /// Hard cap on injected preemptions (keeps overhead bounded in benches).
  std::size_t max_preemptions{std::numeric_limits<std::size_t>::max()};

  /// Reads SAGESIM_FAULT_SEED and SAGESIM_FAULT_RATE (runtime/knobs.hpp;
  /// the rate defaults to 0.05).  Returns a config with
  /// preempt_probability == 0 when the seed is unset or malformed.
  static FaultConfig from_env();
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  /// Decides the fate of the next matching task.  Non-matching names never
  /// consume a random draw, so adding unrelated tasks to a program does not
  /// shift the fault pattern of the targeted ones.  Thread-safe.
  FaultDecision plan(const std::string& task_name);

  /// Injected-so-far counters (for tests and overhead reports).
  std::size_t preemptions() const;
  std::size_t delays() const;

  const FaultConfig& config() const { return config_; }

 private:
  FaultConfig config_;
  mutable std::mutex mutex_;
  std::mt19937_64 engine_;        ///< guarded by mutex_
  std::size_t preemptions_{0};    ///< guarded by mutex_
  std::size_t delays_{0};         ///< guarded by mutex_
};

}  // namespace sagesim::runtime
