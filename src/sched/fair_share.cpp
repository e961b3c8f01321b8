#include "sched/fair_share.hpp"

#include <cmath>
#include <stdexcept>

namespace sagesim::sched {

double FairShare::decayed(const Entry& e, double now_h) const {
  if (e.usage == 0.0) return 0.0;
  const double dt = now_h - e.as_of_h;
  if (dt <= 0.0) return e.usage;
  if (config_.half_life_h <= 0.0) return e.usage;  // decay disabled
  return e.usage * std::exp2(-dt / config_.half_life_h);
}

const FairShare::Entry* FairShare::find(const std::string& tenant) const {
  auto it = slots_.find(tenant);
  return it == slots_.end() ? nullptr : &entries_[it->second];
}

FairShare::Slot FairShare::slot(const std::string& tenant) {
  auto [it, inserted] = slots_.try_emplace(tenant, entries_.size());
  if (inserted) entries_.emplace_back();
  return it->second;
}

void FairShare::set_weight(const std::string& tenant, double weight) {
  if (!(weight > 0.0))
    throw std::invalid_argument("FairShare::set_weight: weight must be > 0");
  entries_[slot(tenant)].weight = weight;
}

double FairShare::weight(const std::string& tenant) const {
  const Entry* e = find(tenant);
  return e == nullptr ? 1.0 : e->weight;
}

void FairShare::charge(const std::string& tenant, double gpu_hours,
                       double now_h) {
  charge(slot(tenant), gpu_hours, now_h);
}

void FairShare::charge(Slot slot, double gpu_hours, double now_h) {
  if (gpu_hours < 0.0)
    throw std::invalid_argument("FairShare::charge: negative gpu_hours");
  Entry& e = entries_.at(slot);
  e.usage = decayed(e, now_h) + gpu_hours;
  e.as_of_h = now_h;
}

double FairShare::usage(const std::string& tenant, double now_h) const {
  const Entry* e = find(tenant);
  return e == nullptr ? 0.0 : decayed(*e, now_h);
}

double FairShare::share_score(const std::string& tenant, double now_h) const {
  const Entry* e = find(tenant);
  return e == nullptr ? 0.0 : decayed(*e, now_h) / e->weight;
}

double FairShare::share_score(Slot slot, double now_h) const {
  const Entry& e = entries_[slot];
  return decayed(e, now_h) / e.weight;
}

}  // namespace sagesim::sched
