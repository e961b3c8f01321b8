// semester — the course's SageMaker control plane at university scale:
// replays the 1000-tenant, 14-week generate_semester_load trace through
// ClusterManager::submit / advance_to.  Quota rejections re-enter at the
// manager's suggested_retry_h.  One operation is one completed job.  The
// control plane is single-threaded and its modeled wait and spend repeat
// exactly, so every replay of one load must agree.
//
// The host cost of a completed job differs by up to a third between loads
// of different seeds (it follows the load's quota retries and queueing).  An
// untraced run therefore replays kLoads loads drawn from its seed: its rate
// is taken over all of them, and so are its modeled figures.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <queue>

#include "cloudsim/spot.hpp"
#include "common.hpp"
#include "sched/manager.hpp"
#include "sched/semester.hpp"

namespace perfbench {

using namespace sagesim;

namespace {

constexpr int kSetups = 9;
constexpr std::size_t kLoads = 3;  // semesters replayed by an untraced run
constexpr int kMaxTries = 500;

/// The fleet bench_semester runs the trace on: sized at 2.5x the average
/// concurrency, a third of it spot capacity, one spot price spike every
/// ~two days.
sched::ManagerConfig fleet(const sched::SemesterLoad& load) {
  sched::ManagerConfig cfg;
  const double avg_concurrency = load.expected_gpu_hours / load.horizon_h;
  cfg.max_nodes = std::clamp(
      static_cast<int>(std::ceil(avg_concurrency * 2.5)), 8, 96);
  cfg.min_nodes = 2;
  cfg.spot_nodes = cfg.max_nodes / 3;
  cfg.spot.trace = cloud::synthetic_price_trace(
      load.horizon_h * 1.5 + 500.0, /*base=*/0.2, /*spike=*/10.0,
      /*spikes=*/static_cast<int>(load.horizon_h / 48.0) + 2,
      /*spike_width_h=*/0.5);
  return cfg;
}

std::unique_ptr<sched::ClusterManager> registered_manager(
    const sched::SemesterLoad& load) {
  auto mgr = std::make_unique<sched::ClusterManager>(fleet(load));
  for (const auto& t : load.roster) {
    sched::TenantConfig tc;
    tc.id = t.id;
    tc.weight = t.weight;
    tc.budget_usd = t.budget_usd;
    mgr->register_tenant(std::move(tc));
  }
  return mgr;
}

/// A submission awaiting (re-)admission: trace arrivals and quota retries
/// share one time-ordered queue.
struct Pending {
  double due_h{0.0};
  std::size_t seq{0};
  int tries{0};
  const sched::JobSpec* spec{nullptr};
};
struct Later {
  bool operator()(const Pending& a, const Pending& b) const {
    return a.due_h != b.due_h ? a.due_h > b.due_h : a.seq > b.seq;
  }
};

struct Replay {
  std::size_t load{0};  ///< index of the replayed load
  std::size_t admitted{0}, never_admitted{0}, retries{0};
  bool drained{false};
  double host_s{0.0};  ///< wall seconds
  double cpu_s{0.0};   ///< process CPU seconds
  double submit_s{0.0}, advance_s{0.0};  ///< traced host time in each call
  std::size_t submits{0};
  bool traced{false};
  sched::ManagerStats stats;  ///< the manager's, after the replay
  double spend_usd{0.0};
  double end_h{0.0};  ///< the manager's clock after the drain
};

Replay replay(const sched::SemesterLoad& load, sched::ClusterManager& mgr,
              Tracer& tracer, bool traced) {
  Replay out;
  out.traced = traced;
  std::priority_queue<Pending, std::vector<Pending>, Later> todo;
  std::size_t seq = 0;
  for (const auto& sub : load.submissions)
    todo.push(Pending{sub.arrive_h, seq++, 0, &sub.spec});

  const auto t0 = Clock::now();
  const double c0 = process_cpu_s();
  while (!todo.empty()) {
    Pending p = todo.top();
    todo.pop();
    auto submit = [&] {
      if (!traced) {
        if (p.due_h > mgr.now_h()) mgr.advance_to(p.due_h);
        return mgr.submit(*p.spec);
      }
      const double a0 = tracer.now();
      if (p.due_h > mgr.now_h()) mgr.advance_to(p.due_h);
      const double a1 = tracer.now();
      auto r = mgr.submit(*p.spec);
      const double a2 = tracer.now();
      tracer.span("sched.advance_to", a0, a1);
      tracer.span("sched.submit", a1, a2);
      out.advance_s += a1 - a0;
      out.submit_s += a2 - a1;
      return r;
    };
    const Expected<sched::JobId> r = submit();
    ++out.submits;
    if (r) {
      ++out.admitted;
      continue;
    }
    if (!r.status().retryable() || ++p.tries >= kMaxTries) {
      ++out.never_admitted;
      continue;
    }
    ++out.retries;
    p.due_h = mgr.now_h() + std::max(mgr.suggested_retry_h(p.spec->tenant),
                                     0.05 * p.tries);
    p.seq = seq++;
    todo.push(p);
  }
  const double d0 = tracer.now();
  out.drained = mgr.drain(load.horizon_h + 24.0 * 365.0).ok();
  if (traced) {
    const double d1 = tracer.now();
    tracer.span("sched.drain", d0, d1);
    out.advance_s += d1 - d0;
  }
  out.cpu_s = process_cpu_s() - c0;
  out.host_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

}  // namespace

void run_semester(const Args& args, Tracer& tracer, Report& report) {
  // A traced run replays the first load only, so its two halves (untraced
  // and traced) time the same work.
  const std::size_t num_loads = tracer.enabled() ? 1 : kLoads;

  // --- setup: load generation, fleet, tenant registration --------------------
  std::vector<double> setup_s;
  std::vector<sched::SemesterLoad> loads(num_loads);
  std::vector<std::unique_ptr<sched::ClusterManager>> mgrs(num_loads);
  for (int i = 0; i < kSetups; ++i) {
    for (auto& m : mgrs) m.reset();
    setup_s.push_back(setup_step(tracer, "sched.setup", [&] {
      for (std::size_t l = 0; l < num_loads; ++l) {
        sched::SemesterLoadConfig load_cfg;
        load_cfg.seed = args.seed * kLoads + l;
        loads[l] = sched::generate_semester_load(load_cfg);
        mgrs[l] = registered_manager(loads[l]);
      }
    }));
  }
  for (std::size_t l = 0; l < num_loads; ++l)
    std::printf("semester: load %zu: %zu tenants, %zu submissions over %.0f "
                "h, fleet %d..%d nodes (%d spot)\n",
                l, loads[l].roster.size(), loads[l].submissions.size(),
                loads[l].horizon_h, mgrs[l]->config().min_nodes,
                mgrs[l]->config().max_nodes, mgrs[l]->config().spot_nodes);

  // --- timed replays ----------------------------------------------------------
  // Replays cycle through the loads.  A replay needs a fresh manager with
  // the roster registered: the first of each load comes from setup, later
  // ones are built outside the replay's timed span.  The first replay of a
  // load is checked against the method's invariants; a later one must repeat
  // its completions and spend.
  std::vector<Replay> replays;
  std::vector<std::optional<Replay>> first(num_loads);
  std::vector<double> waits;  ///< modeled queue waits, all jobs of all loads
  std::uint64_t attempted = 0, failed = 0;
  bool all_admitted = true, all_drained = true, same = true;
  std::size_t incomplete = 0, early = 0, over_budget = 0, unbalanced = 0;
  double spot_usd = 0.0;  ///< the first load's
  auto check_first = [&](const sched::ClusterManager& m) {
    for (const auto& rec : m.records()) {
      if (rec.state != sched::JobState::kCompleted) ++incomplete;
      if (rec.end_h + 1e-9 < rec.submit_h + rec.spec.service_h) ++early;
      waits.push_back(rec.wait_h());
    }
    const cloud::TenantLedger ledger = m.tenant_ledger();
    double tenant_sum = 0.0, spot = 0.0;
    for (const auto& row : ledger.by_tenant()) {
      if (row.total_usd() > m.budget_cap(row.tenant) + 1e-6) ++over_budget;
      tenant_sum += row.total_usd();
      spot += row.spot_usd;
    }
    if (std::abs(tenant_sum - ledger.total_usd()) >
        1e-9 * std::max(1.0, ledger.total_usd()))
      ++unbalanced;
    if (replays.size() == 1) spot_usd = spot;
  };
  auto one_replay = [&](bool traced) -> double {
    const std::size_t l = replays.size() % num_loads;
    if (!mgrs[l]) mgrs[l] = registered_manager(loads[l]);
    Replay r = replay(loads[l], *mgrs[l], tracer, traced);
    r.load = l;
    r.stats = mgrs[l]->stats();
    r.spend_usd = mgrs[l]->tenant_ledger().total_usd();
    r.end_h = mgrs[l]->now_h();
    replays.push_back(r);
    const std::size_t subs = loads[l].submissions.size();
    attempted += subs;
    failed += subs - r.stats.completed;
    all_admitted = all_admitted && r.never_admitted == 0 && r.admitted == subs;
    all_drained = all_drained && r.drained;
    if (!first[l]) {
      first[l] = r;
      check_first(*mgrs[l]);
    } else {
      same = same && r.stats.completed == first[l]->stats.completed &&
             r.stats.rejected_quota == first[l]->stats.rejected_quota &&
             r.spend_usd == first[l]->spend_usd;
    }
    mgrs[l].reset();
    return static_cast<double>(r.stats.completed);
  };
  // Replay seconds of load @p l: its median, so a load replayed twice in
  // one run does not count double.
  auto load_s = [&](std::size_t l, bool traced, bool wall) {
    std::vector<double> t;
    for (const Replay& r : replays)
      if (r.load == l && r.traced == traced)
        t.push_back(wall ? r.host_s : r.cpu_s);
    return median(t);
  };
  // Completed jobs per CPU (or wall) second over the loads.
  auto ops_per_s = [&](bool traced, bool wall) {
    double jobs = 0.0, secs = 0.0;
    for (std::size_t l = 0; l < num_loads; ++l) {
      jobs += static_cast<double>(first[l]->stats.completed);
      secs += load_s(l, traced, wall);
    }
    return jobs / secs;
  };
  if (tracer.enabled()) {
    measure(args.seconds, true, one_replay);
  } else {
    // Every load is replayed at least once, however short the run.
    const auto t0 = Clock::now();
    while (replays.size() < num_loads ||
           std::chrono::duration<double>(Clock::now() - t0).count() <
               args.seconds)
      one_replay(false);
  }

  // --- output checks ----------------------------------------------------------
  report.add_ops(attempted, failed);
  report.check(all_admitted, "every submission is eventually admitted");
  report.check(all_drained, "the manager drains");
  report.check(incomplete == 0, "every admitted job completes");
  report.check(early == 0,
               "no job completes before submit time plus its duration");
  report.check(over_budget == 0, "no tenant's spend exceeds its cap");
  report.check(unbalanced == 0, "per-tenant spend sums to the total");
  report.check(same, "every replay of a load yields the same completions and "
                     "spend");
  double jobs = 0.0, node_h = 0.0, spend = 0.0;
  for (std::size_t l = 0; l < num_loads; ++l) {
    const Replay& r = *first[l];
    jobs += static_cast<double>(r.stats.completed);
    node_h += r.stats.busy_node_hours;
    spend += r.spend_usd;
    std::printf("semester: load %zu: %zu jobs completed, %zu quota "
                "rejections, spend $%.2f, %.0f jobs per CPU second\n",
                l, r.stats.completed, r.stats.rejected_quota, r.spend_usd,
                static_cast<double>(r.stats.completed) /
                    load_s(l, false, false));
  }
  std::printf("semester: %zu replays, %.0f jobs per wall second\n",
              replays.size(), ops_per_s(false, true));

  if (!tracer.enabled()) {
    report.set("setup_s", median(setup_s), "s");
    report.set("ops_per_cpu_s", ops_per_s(false, false), "1/s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("sim_ms_per_op", node_h * 3.6e6 / jobs, "ms",
               "modeled GPU-node time per completed job");
    report.set("sim_wait_p99_h", percentile(waits, 99), "h");
    report.set("sim_cost_usd", spend / static_cast<double>(num_loads), "USD",
               "total tenant-ledger spend of one semester, mean over the "
               "run's loads");
    return;
  }

  // --- per-layer metrics (traced run) ---------------------------------------
  const Replay& tr = replays.back();
  const sched::ManagerStats& st = first[0]->stats;
  report_overhead(report, ops_per_s(false, false), ops_per_s(true, false));
  report.set("sched.submit_us",
             1e6 * tr.submit_s / static_cast<double>(tr.submits), "us");
  report.set("sched.advance_ms_per_sim_day",
             1e3 * tr.advance_s / (first[0]->end_h / 24.0), "ms");
  report.set("sched.quota_rejections", static_cast<double>(st.rejected_quota),
             "count");
  report.set("sched.backfills", static_cast<double>(st.backfills), "count");
  report.set("sched.preemptions", static_cast<double>(st.preemptions),
             "count");
  report.set("sched.utilization", st.utilization(), "frac");
  report.set("cloudsim.launches", static_cast<double>(st.launches), "count");
  report.set("cloudsim.spot_usd", spot_usd, "USD");
}

}  // namespace perfbench
