#include "runtime/fault.hpp"

#include "runtime/knobs.hpp"

namespace sagesim::runtime {

FaultConfig FaultConfig::from_env() {
  FaultConfig cfg;
  if (knob("SAGESIM_FAULT_SEED").empty()) return cfg;  // faults off
  cfg.seed = knob_unsigned("SAGESIM_FAULT_SEED");
  cfg.preempt_probability = knob_double("SAGESIM_FAULT_RATE");
  return cfg;
}

FaultInjector::FaultInjector(FaultConfig config)
    : config_(std::move(config)), engine_(config_.seed) {}

FaultDecision FaultInjector::plan(const std::string& task_name) {
  FaultDecision decision;
  if (!config_.name_filter.empty() &&
      task_name.find(config_.name_filter) == std::string::npos)
    return decision;

  std::lock_guard lock(mutex_);
  // One draw per matching task: [0, p) preempts, [p, p+q) delays.  A single
  // uniform keeps the decision sequence stable when probabilities change.
  const double u =
      std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  if (u < config_.preempt_probability &&
      preemptions_ < config_.max_preemptions) {
    decision.preempt = true;
    ++preemptions_;
  } else if (u < config_.preempt_probability + config_.delay_probability) {
    decision.delay_ms = config_.delay_ms;
    ++delays_;
  }
  return decision;
}

std::size_t FaultInjector::preemptions() const {
  std::lock_guard lock(mutex_);
  return preemptions_;
}

std::size_t FaultInjector::delays() const {
  std::lock_guard lock(mutex_);
  return delays_;
}

}  // namespace sagesim::runtime
