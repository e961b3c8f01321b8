#include "cloudsim/cost.hpp"

#include <algorithm>
#include <iomanip>
#include <set>
#include <sstream>

namespace sagesim::cloud {

const TenantSpendRow& TenantLedger::add(LeaseRecord record) {
  auto& row = by_tenant_[record.tenant];
  row.tenant = record.tenant;
  row.gpu_hours += record.gpu_hours;
  (record.spot ? row.spot_usd : row.ondemand_usd) += record.cost_usd;
  ++row.leases;
  total_usd_ += record.cost_usd;
  records_.push_back(std::move(record));
  return row;
}

double TenantLedger::spend(const std::string& tenant) const {
  auto it = by_tenant_.find(tenant);
  return it == by_tenant_.end() ? 0.0 : it->second.total_usd();
}

double TenantLedger::gpu_hours(const std::string& tenant) const {
  auto it = by_tenant_.find(tenant);
  return it == by_tenant_.end() ? 0.0 : it->second.gpu_hours;
}

std::vector<TenantSpendRow> TenantLedger::by_tenant() const {
  std::vector<TenantSpendRow> out;
  out.reserve(by_tenant_.size());
  for (const auto& [_, row] : by_tenant_) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const TenantSpendRow& a, const TenantSpendRow& b) {
              return a.total_usd() > b.total_usd();
            });
  return out;
}

TenantLedger lease_view(std::span<const UsageRecord> ledger) {
  TenantLedger out;
  for (const auto& r : ledger) {
    if (r.educate) continue;  // free — no spend to attribute
    LeaseRecord lease;
    lease.lease_id = r.lease_id.empty() ? r.instance_id : r.lease_id;
    lease.tenant = r.owner;
    lease.instance_type = r.instance_type;
    lease.gpu_hours = r.hours * std::max<std::uint32_t>(r.gpu_count, 1);
    lease.cost_usd = r.cost_usd;
    lease.spot = r.spot;
    out.add(std::move(lease));
  }
  return out;
}

CostReport::CostReport(std::span<const UsageRecord> ledger)
    : ledger_(ledger.begin(), ledger.end()) {
  for (const auto& r : ledger_) {
    ++records_;
    if (r.educate) {
      educate_hours_ += r.hours;
      continue;  // free and invisible to instructor usage insights
    }
    total_cost_ += r.cost_usd;
    total_hours_ += r.hours;
  }
}

namespace {

std::vector<CostRow> rollup(
    const std::vector<UsageRecord>& ledger,
    const std::function<std::string(const UsageRecord&)>& key_of) {
  std::map<std::string, CostRow> agg;
  for (const auto& r : ledger) {
    if (r.educate) continue;
    auto& row = agg[key_of(r)];
    row.key = key_of(r);
    row.hours += r.hours;
    row.cost_usd += r.cost_usd;
    ++row.sessions;
  }
  std::vector<CostRow> out;
  out.reserve(agg.size());
  for (auto& [_, row] : agg) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(), [](const CostRow& a, const CostRow& b) {
    return a.cost_usd > b.cost_usd;
  });
  return out;
}

}  // namespace

std::vector<CostRow> CostReport::by_owner() const {
  return rollup(ledger_, [](const UsageRecord& r) { return r.owner; });
}

std::vector<CostRow> CostReport::by_type() const {
  return rollup(ledger_, [](const UsageRecord& r) { return r.instance_type; });
}

std::vector<CostRow> CostReport::by_assessment() const {
  return rollup(ledger_, [](const UsageRecord& r) {
    return r.assessment.empty() ? std::string("(untagged)") : r.assessment;
  });
}

std::vector<TenantSpendRow> CostReport::by_tenant() const {
  return lease_view(ledger_).by_tenant();
}

double CostReport::mean_hours_per_owner() const {
  std::set<std::string> owners;
  for (const auto& r : ledger_) owners.insert(r.owner);
  return owners.empty() ? 0.0
                        : total_hours_ / static_cast<double>(owners.size());
}

double CostReport::mean_cost_per_owner() const {
  std::set<std::string> owners;
  for (const auto& r : ledger_) owners.insert(r.owner);
  return owners.empty() ? 0.0
                        : total_cost_ / static_cast<double>(owners.size());
}

double CostReport::avg_single_gpu_rate() const {
  double hours = 0.0, cost = 0.0;
  // Single-GPU sessions: assessments where the owner ran exactly one
  // instance with one GPU.  Group records by (owner, assessment).
  std::map<std::pair<std::string, std::string>, std::vector<const UsageRecord*>>
      sessions;
  for (const auto& r : ledger_)
    if (!r.educate) sessions[{r.owner, r.assessment}].push_back(&r);
  for (const auto& [key, recs] : sessions) {
    std::uint32_t gpus = 0;
    for (const auto* r : recs) gpus += r->gpu_count;
    if (gpus != 1) continue;
    for (const auto* r : recs) {
      hours += r->hours;
      cost += r->cost_usd;
    }
  }
  return hours > 0.0 ? cost / hours : 0.0;
}

double CostReport::avg_multi_gpu_session_rate() const {
  // Multi-GPU sessions: grouped per (owner, assessment), total GPUs > 1.
  // The session "rate" is session cost / session wall-hours, where wall
  // hours are the max over the cluster's instances (they run concurrently).
  std::map<std::pair<std::string, std::string>, std::vector<const UsageRecord*>>
      sessions;
  for (const auto& r : ledger_)
    if (!r.educate) sessions[{r.owner, r.assessment}].push_back(&r);
  double wall_hours = 0.0, cost = 0.0;
  for (const auto& [key, recs] : sessions) {
    std::uint32_t gpus = 0;
    double session_wall = 0.0, session_cost = 0.0;
    for (const auto* r : recs) {
      gpus += r->gpu_count;
      session_wall = std::max(session_wall, r->hours);
      session_cost += r->cost_usd;
    }
    if (gpus <= 1) continue;
    wall_hours += session_wall;
    cost += session_cost;
  }
  return wall_hours > 0.0 ? cost / wall_hours : 0.0;
}

std::string to_text(const std::string& title, std::span<const CostRow> rows) {
  std::ostringstream os;
  os << "=== " << title << " ===\n";
  os << std::left << std::setw(28) << "key" << std::right << std::setw(10)
     << "sessions" << std::setw(12) << "hours" << std::setw(12) << "USD"
     << '\n';
  os << std::string(62, '-') << '\n';
  os << std::fixed << std::setprecision(2);
  for (const auto& r : rows)
    os << std::left << std::setw(28) << r.key << std::right << std::setw(10)
       << r.sessions << std::setw(12) << r.hours << std::setw(12) << r.cost_usd
       << '\n';
  return os.str();
}

std::string to_text(const std::string& title,
                    std::span<const TenantSpendRow> rows,
                    std::size_t max_rows) {
  std::ostringstream os;
  os << "=== " << title << " ===\n";
  os << std::left << std::setw(22) << "tenant" << std::right << std::setw(8)
     << "leases" << std::setw(11) << "gpu-h" << std::setw(11) << "spot$"
     << std::setw(11) << "ondem$" << std::setw(11) << "total$" << '\n';
  os << std::string(74, '-') << '\n';
  os << std::fixed << std::setprecision(2);
  std::size_t shown = 0;
  double elided_usd = 0.0;
  for (const auto& r : rows) {
    if (shown < max_rows) {
      os << std::left << std::setw(22) << r.tenant << std::right
         << std::setw(8) << r.leases << std::setw(11) << r.gpu_hours
         << std::setw(11) << r.spot_usd << std::setw(11) << r.ondemand_usd
         << std::setw(11) << r.total_usd() << '\n';
      ++shown;
    } else {
      elided_usd += r.total_usd();
    }
  }
  if (rows.size() > shown)
    os << "... " << rows.size() - shown << " more tenants, $" << elided_usd
       << " total\n";
  return os.str();
}

}  // namespace sagesim::cloud
