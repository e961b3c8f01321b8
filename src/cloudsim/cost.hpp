// Cost reporting over the provisioner's usage ledger — Appendix A / Fig. 5
// of the paper: average GPU hours and dollars per student per semester —
// plus the tenant ledger the multi-tenant control plane (src/sched) bills
// through: per-lease records attributing fleet-shared instance hours to the
// tenant whose job held them, with spot and on-demand spend kept separate.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "cloudsim/provisioner.hpp"

namespace sagesim::cloud {

/// Rollup for one grouping key (owner, type, or assessment).
struct CostRow {
  std::string key;
  double hours{0.0};
  double cost_usd{0.0};
  std::size_t sessions{0};
};

/// One lease: a tenant's job holding @p gpu_hours of fleet capacity over
/// [start_h, end_h].  Fleet instances are owned by the control plane, so
/// the instance-level usage ledger alone cannot attribute spend; every
/// billing path (budget caps at admission, mid-job cutoffs, the cost
/// report) reads these records.
struct LeaseRecord {
  std::string lease_id;
  std::string tenant;
  std::string job_id;         ///< submitting job ("job-17"), for drill-down
  std::string instance_type;
  double start_h{0.0};
  double end_h{0.0};
  double gpu_hours{0.0};      ///< instance-hours held (ranks x wall hours)
  double cost_usd{0.0};
  bool spot{false};
};

/// Per-tenant spend rollup with the spot/on-demand split.
struct TenantSpendRow {
  std::string tenant;
  double gpu_hours{0.0};
  double spot_usd{0.0};
  double ondemand_usd{0.0};
  std::size_t leases{0};
  double total_usd() const { return spot_usd + ondemand_usd; }
};

/// Append-only ledger of lease records with per-tenant rollups — the single
/// source of truth for tenant-attributed spend.  Both the sched control
/// plane (fleet leases) and the per-student provisioning path (via
/// lease_view) produce one of these, so budget caps and the fig05 cost
/// tables read the same shape.
class TenantLedger {
 public:
  /// Appends @p record and returns its tenant's rollup row.  Rows are never
  /// moved, so a caller may keep the reference to read the tenant's spend
  /// without a lookup (it dangles only with the ledger itself).
  const TenantSpendRow& add(LeaseRecord record);

  const std::vector<LeaseRecord>& records() const { return records_; }

  /// Total attributed spend for @p tenant (spot + on-demand).
  double spend(const std::string& tenant) const;

  /// GPU-hours attributed to @p tenant.
  double gpu_hours(const std::string& tenant) const;

  /// Rollup by tenant, descending total spend.
  std::vector<TenantSpendRow> by_tenant() const;

  double total_usd() const { return total_usd_; }
  std::size_t tenant_count() const { return by_tenant_.size(); }

 private:
  std::vector<LeaseRecord> records_;
  std::map<std::string, TenantSpendRow> by_tenant_;
  double total_usd_{0.0};
};

/// Projects an instance-level usage ledger into the tenant-ledger shape
/// (owner == tenant, one lease per usage record, Educate records excluded as
/// free).  This is how the fig05 per-student path and the multi-tenant
/// fleet path share one reporting surface.
TenantLedger lease_view(std::span<const UsageRecord> ledger);

/// Aggregated view of a usage ledger.
class CostReport {
 public:
  explicit CostReport(std::span<const UsageRecord> ledger);

  double total_cost() const { return total_cost_; }
  /// Billed hours; AWS Educate hours are excluded, as in Appendix A ("we
  /// did not include the computational hours ... from AWS Educate").
  double total_hours() const { return total_hours_; }
  /// Free Educate hours, tracked separately.
  double educate_hours() const { return educate_hours_; }
  std::size_t record_count() const { return records_; }

  /// Rollup by instance owner, descending cost.
  std::vector<CostRow> by_owner() const;
  /// Rollup by instance type, descending cost.
  std::vector<CostRow> by_type() const;
  /// Rollup by assessment tag, descending cost.
  std::vector<CostRow> by_assessment() const;

  /// Per-tenant rollup with the spot/on-demand split (owner == tenant),
  /// through the same lease_view projection the sched fleet bills with.
  std::vector<TenantSpendRow> by_tenant() const;

  /// Mean hours per distinct owner.
  double mean_hours_per_owner() const;
  /// Mean cost per distinct owner.
  double mean_cost_per_owner() const;

  /// Weighted-average hourly rate over single-GPU records.
  double avg_single_gpu_rate() const;
  /// Weighted-average hourly rate over records from multi-GPU *sessions*
  /// (assessments whose instances total more than one GPU).
  double avg_multi_gpu_session_rate() const;

 private:
  std::vector<UsageRecord> ledger_;
  double total_cost_{0.0};
  double total_hours_{0.0};
  double educate_hours_{0.0};
  std::size_t records_{0};
};

/// Renders a fixed-width table of @p rows with a header @p title.
std::string to_text(const std::string& title, std::span<const CostRow> rows);

/// Renders the tenant rollup (spot/on-demand split) as a fixed-width table.
/// Rows beyond @p max_rows are elided with a summary line (semester-scale
/// ledgers hold thousands of tenants).
std::string to_text(const std::string& title,
                    std::span<const TenantSpendRow> rows,
                    std::size_t max_rows = 20);

}  // namespace sagesim::cloud
