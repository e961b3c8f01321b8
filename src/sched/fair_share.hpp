// Weighted fair-share accounting: each tenant accrues exponentially-decayed
// GPU-hours; the scheduler orders the queue by share score (decayed usage
// over weight), so a tenant that just burned a big gang job sinks behind
// tenants that have been waiting — and the decay half-life forgives last
// week's usage, matching semester rhythms (a student who crunched before
// one deadline is not penalized at the next).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace sagesim::sched {

struct FairShareConfig {
  /// Half-life of the usage decay, hours.  24h ~= "yesterday's labs count
  /// half as much as today's".
  double half_life_h{24.0};
  /// Queue-wait per one-class priority promotion (starvation freedom): a
  /// batch job waiting 2*aging_h competes as interactive.
  double aging_h{8.0};
};

class FairShare {
 public:
  /// Dense handle of one tenant's entry; stable for the FairShare's life.
  using Slot = std::size_t;

  FairShare() = default;
  explicit FairShare(FairShareConfig config) : config_(config) {}

  const FairShareConfig& config() const { return config_; }

  /// The tenant's slot, creating a weight-1 entry on first use.  The
  /// scheduler resolves each tenant once and charges/scores by slot.
  Slot slot(const std::string& tenant);

  /// Sets a tenant's share weight (default 1.0; graduate researchers get
  /// more).  Must be > 0; values <= 0 throw (API misuse).
  void set_weight(const std::string& tenant, double weight);
  double weight(const std::string& tenant) const;

  /// Charges @p gpu_hours of usage to @p tenant at simulated time @p now_h.
  void charge(const std::string& tenant, double gpu_hours, double now_h);
  void charge(Slot slot, double gpu_hours, double now_h);

  /// Decayed usage (GPU-hours) as of @p now_h.
  double usage(const std::string& tenant, double now_h) const;

  /// Scheduling score: decayed usage / weight.  Lower schedules first.
  double share_score(const std::string& tenant, double now_h) const;
  double share_score(Slot slot, double now_h) const;

 private:
  struct Entry {
    double usage{0.0};
    double as_of_h{0.0};
    double weight{1.0};
  };

  double decayed(const Entry& e, double now_h) const;
  const Entry* find(const std::string& tenant) const;

  FairShareConfig config_;
  std::vector<Entry> entries_;
  std::map<std::string, Slot> slots_;
};

}  // namespace sagesim::sched
