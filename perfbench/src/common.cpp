#include "common.hpp"

#include <sys/resource.h>

#include "cloudsim/instance_type.hpp"
#include "prof/chrome_trace.hpp"
#include "prof/report.hpp"
#include "rag/latency.hpp"

namespace perfbench {

using namespace sagesim;

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) failures_.push_back(what);
}

void Tracer::span(const std::string& name, double t0, double t1,
                  std::uint64_t request) {
  if (!enabled_) return;
  prof::TraceEvent ev;
  ev.name = name;
  ev.kind = prof::EventKind::kRange;
  ev.start_s = t0;
  ev.duration_s = t1 - t0;
  if (request != 0) ev.counters["request"] = static_cast<double>(request);
  timeline_.record(std::move(ev));
}

void Tracer::write(const std::string& path) const {
  prof::write_chrome_trace(timeline_, path);
}

double percentile(const std::vector<double>& samples, double p) {
  rag::LatencyTracker t;
  for (double s : samples) t.record(s);
  return t.percentile(p);
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 50.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

double handoff_us(runtime::Scheduler& sched) {
  return median_us(2000, [&] { sched.submit("", [] {}).get(); });
}

double task_busy_s(runtime::Scheduler& sched) {
  double busy = 0.0;
  for (const auto& ev : sched.timeline().snapshot()) busy += ev.duration_s;
  return busy;
}

void report_overhead(Report& r, double untraced, double traced) {
  r.set("trace.untraced_ops_per_cpu_s", untraced, "1/s");
  r.set("trace.traced_ops_per_cpu_s", traced, "1/s");
  r.set("trace.overhead_frac", 1.0 - traced / untraced, "frac");
}

DeviceCounters device_counters(gpu::DeviceManager& dm) {
  DeviceCounters c;
  const prof::Timeline& tl = dm.timeline();
  for (const auto& ev : tl.snapshot(prof::EventKind::kKernel)) {
    ++c.launches;
    c.kernel_sim_s += ev.duration_s;
    if (const auto it = ev.counters.find("flops"); it != ev.counters.end())
      c.flops += it->second;
  }
  for (std::size_t d = 0; d < dm.device_count(); ++d) {
    const prof::CommOverlap o = prof::comm_overlap(tl, static_cast<int>(d));
    c.comm_sim_s += o.comm_s;
    c.comm_exposed_sim_s += o.exposed_s;
    const mem::PoolStats p = mem::device_pool(dm.device(d)).stats();
    c.pool.hits += p.hits;
    c.pool.misses += p.misses;
    c.pool.pass_through += p.pass_through;
  }
  return c;
}

DataPlane DataPlane::now() {
  return {mem::transfer_ledger(), mem::host_pool().stats()};
}

void TrainingTrace::add_call(double call_ops, double call_host_s,
                             double call_sim_s, std::uint64_t call_tasks,
                             const DataPlane& before, const DataPlane& after,
                             const DeviceCounters& d, double call_busy_s,
                             double call_lane_s) {
  ops += call_ops;
  host_s += call_host_s;
  sim_s += call_sim_s;
  tasks += call_tasks;
  h2d_bytes += after.xfer.h2d_bytes - before.xfer.h2d_bytes;
  d2h_bytes += after.xfer.d2h_bytes - before.xfer.d2h_bytes;
  copies += (after.xfer.h2d_count - before.xfer.h2d_count) +
            (after.xfer.d2h_count - before.xfer.d2h_count);
  const auto host_requests = [](const mem::PoolStats& p) {
    return p.hits + p.misses + p.pass_through;
  };
  pool_hits += (after.host_pool.hits - before.host_pool.hits) + d.pool.hits;
  pool_requests += host_requests(after.host_pool) -
                   host_requests(before.host_pool) + host_requests(d.pool);
  busy_s += call_busy_s;
  lane_s += call_lane_s;
  dev.launches += d.launches;
  dev.kernel_sim_s += d.kernel_sim_s;
  dev.flops += d.flops;
  dev.comm_sim_s += d.comm_sim_s;
  dev.comm_exposed_sim_s += d.comm_exposed_sim_s;
}

void TrainingTrace::report(Report& r) const {
  r.set("dflow.tasks_per_op", static_cast<double>(tasks) / ops, "count");
  r.set("runtime.task_busy_frac", busy_s / lane_s, "frac");
  r.set("gpusim.launches_per_op", static_cast<double>(dev.launches) / ops,
        "count");
  r.set("gpusim.kernel_sim_ms_per_op", 1e3 * dev.kernel_sim_s / ops, "ms");
  r.set("gpusim.modeled_gflop_per_op", dev.flops / ops / 1e9, "GFLOP");
  r.set("gpusim.host_ns_per_modeled_flop", 1e9 * host_s / dev.flops, "ns");
  r.set("gpusim.host_s_per_sim_s", host_s / sim_s, "s/s");
  r.set("mem.h2d_mb_per_op", mb(static_cast<double>(h2d_bytes)) / ops, "MB");
  r.set("mem.d2h_mb_per_op", mb(static_cast<double>(d2h_bytes)) / ops, "MB");
  r.set("mem.copies_per_op", static_cast<double>(copies) / ops, "count");
  r.set("mem.pool_hit_rate",
        static_cast<double>(pool_hits) / static_cast<double>(pool_requests),
        "frac");
  r.set("ddp.comm_sim_ms_per_op", 1e3 * dev.comm_sim_s / ops, "ms");
  r.set("ddp.comm_exposed_sim_ms_per_op", 1e3 * dev.comm_exposed_sim_s / ops,
        "ms");
}

double gpu_node_usd_per_h() {
  return cloud::catalog::by_name("g4dn.xlarge").hourly_usd;
}

unsigned workers_for(const std::string& workload) {
  // Pools sized so the benchmark's busy threads stay within four cores:
  // alg1 runs one dflow lane per rank (4), ooc_train two lanes plus a
  // two-thread staging pool, rag_serve the generator plus the pool, and
  // semester is a single-threaded control plane.
  if (workload == "alg1") return 1;
  if (workload == "ooc_train") return 1;
  if (workload == "rag_serve") return 2;
  return 1;
}

}  // namespace perfbench
