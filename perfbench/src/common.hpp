// Shared pieces of the perfbench workloads: arguments, the result record,
// the span tracer of traced runs, and the measurement helpers every
// workload uses (host clock, percentiles, peak RSS, layer-counter deltas).
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "gpusim/device_manager.hpp"
#include "mem/buffer.hpp"
#include "mem/pool.hpp"
#include "prof/host_timer.hpp"
#include "prof/trace.hpp"
#include "runtime/scheduler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// CPU seconds this process has run so far, all threads together.  Time the
/// hypervisor stole from the machine's CPUs is not counted, nor time a thread
/// spent waiting for a CPU, so a rate taken by this clock does not follow how
/// busy the rest of the host is.  Threads that wait block rather than spin,
/// so it counts the work done.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string work_dir{"."};  ///< scratch space for on-disk inputs and traces
};

/// One run's result: the metrics by name, operation counts and the outcome
/// of the output checks.
class Report {
 public:
  /// @p reading says what the figure is on this workload where the metric's
  /// name alone would mislead (printed beside it in the metric table).
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& reading = "") {
    metrics_[name] = {value, unit, reading};
  }
  bool has(const std::string& name) const { return metrics_.count(name) > 0; }

  /// Records one output check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);

  void add_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return failures_.empty(); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::size_t checks() const { return checks_; }
  const std::vector<std::string>& failures() const { return failures_; }

  struct Value {
    double value{0.0};
    std::string unit;
    std::string reading;
  };
  const std::map<std::string, Value>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Value> metrics_;
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
  std::size_t checks_{0};
  std::vector<std::string> failures_;
};

/// Host-time spans recorded from the benchmark's own files around calls
/// into each layer.  Spans live in memory (a prof::Timeline) and are written
/// once, as a chrome://tracing file, when the run ends.  When disabled every
/// call is a no-op apart from reading the clock the caller asked for.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Host seconds since the tracer was created.
  double now() const { return clock_.elapsed_s(); }

  /// Records [t0, t1] as span @p name; @p request (when not 0) groups the
  /// spans of one request.
  void span(const std::string& name, double t0, double t1,
            std::uint64_t request = 0);

  std::size_t size() const { return timeline_.size(); }
  /// Writes the spans as a chrome://tracing JSON file.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  sagesim::prof::HostTimer clock_;
  sagesim::prof::Timeline timeline_;
};

/// The repository's percentile (rag::LatencyTracker, linear interpolation).
double percentile(const std::vector<double>& samples, double p);
double median(const std::vector<double>& samples);

/// Runs whole rounds until @p seconds of wall time have passed (at least
/// one).  @p round() returns the operations it completed.  Each round's rate
/// is taken per process CPU second (process_cpu_s), so steal and waiting for
/// a CPU do not count, and the phase's throughput is the median of the
/// rounds' rates, so one slow round does not move it.  The wall-clock rates
/// are kept for display.
struct Phase {
  std::vector<double> rates;       ///< ops per CPU second of each round
  std::vector<double> wall_rates;  ///< ops per wall second of each round
  double ops_per_cpu_s() const { return median(rates); }
  double ops_per_wall_s() const { return median(wall_rates); }
};
template <class F>
Phase run_rounds(double seconds, F&& round) {
  Phase p;
  const auto t0 = Clock::now();
  auto r1 = t0;
  do {
    const auto r0 = Clock::now();
    const double c0 = process_cpu_s();
    const double ops = round();
    const double c1 = process_cpu_s();
    r1 = Clock::now();
    p.rates.push_back(ops / (c1 - c0));
    p.wall_rates.push_back(ops /
                           std::chrono::duration<double>(r1 - r0).count());
  } while (std::chrono::duration<double>(r1 - t0).count() < seconds);
  return p;
}

/// The timed phase of a run.  An untraced run measures rounds for
/// @p seconds; a traced run measures untraced rounds for half of it and
/// traced rounds for the other half, so the two rates give the tracing
/// overhead.  @p round(traced) returns the operations it completed.
struct Measured {
  Phase untraced, traced;
};
template <class F>
Measured measure(double seconds, bool trace, F&& round) {
  Measured m;
  if (!trace) {
    m.untraced = run_rounds(seconds, [&] { return round(false); });
    return m;
  }
  m.untraced = run_rounds(seconds / 2, [&] { return round(false); });
  m.traced = run_rounds(seconds / 2, [&] { return round(true); });
  return m;
}

/// Runs @p fn and records it as span @p name when tracing.
template <class F>
void timed(Tracer& tracer, const std::string& name, F&& fn) {
  const double t0 = tracer.now();
  fn();
  tracer.span(name, t0, tracer.now());
}

/// Runs one set-up step (@p fn) as timed() does and returns the process CPU
/// seconds it took.
template <class F>
double setup_step(Tracer& tracer, const std::string& name, F&& fn) {
  const double c0 = process_cpu_s();
  timed(tracer, name, fn);
  return process_cpu_s() - c0;
}

/// Peak resident set of this process, MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Median host microseconds of @p reps calls of @p fn (after a warm-up).
template <class F>
double median_us(int reps, F&& fn) {
  fn();
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return median(us);
}

/// Median host microseconds of submitting an empty task to @p sched and
/// joining it.
double handoff_us(sagesim::runtime::Scheduler& sched);

/// Host seconds that named tasks in @p sched's timeline ran (the caller
/// clears the timeline when its window opens).
double task_busy_s(sagesim::runtime::Scheduler& sched);

/// Reports the traced run's two rates (ops per CPU second) and the tracing
/// overhead.
void report_overhead(Report& r, double untraced_ops_per_cpu_s,
                     double traced_ops_per_cpu_s);

/// Device-side counters of a DeviceManager's shared timeline, read after a
/// training call.
struct DeviceCounters {
  std::size_t launches{0};
  double kernel_sim_s{0.0};
  double flops{0.0};
  double comm_sim_s{0.0};
  double comm_exposed_sim_s{0.0};
  sagesim::mem::PoolStats pool;  ///< summed device-pool stats
};
DeviceCounters device_counters(sagesim::gpu::DeviceManager& dm);

/// Process-wide data-plane counters, differenced between two snapshots.
struct DataPlane {
  sagesim::mem::TransferCounters xfer;
  sagesim::mem::PoolStats host_pool;
  static DataPlane now();
};

/// Per-layer metrics every training workload reports from the traced calls:
/// transfers, pool hit rate, device launches, modeled flops and comm time.
struct TrainingTrace {
  double ops{0};
  double host_s{0};
  double sim_s{0};
  std::uint64_t tasks{0};
  std::uint64_t h2d_bytes{0}, d2h_bytes{0}, copies{0};
  std::uint64_t pool_hits{0}, pool_requests{0};
  double busy_s{0};  ///< named-task busy seconds on the cluster lanes
  double lane_s{0};  ///< lanes x call wall
  DeviceCounters dev;

  void add_call(double call_ops, double call_host_s, double call_sim_s,
                std::uint64_t call_tasks, const DataPlane& before,
                const DataPlane& after, const DeviceCounters& d,
                double call_busy_s, double call_lane_s);
  void report(Report& r) const;
};

/// Bytes to megabytes (10^6).
inline double mb(double bytes) { return bytes / 1e6; }

/// The on-demand hourly price of the course's single-GPU node
/// (g4dn.xlarge), used to price modeled device time.
double gpu_node_usd_per_h();

// Workload entry points: each fills @p report with every end-to-end metric
// (untraced run) or its per-layer metrics (traced run).
void run_alg1(const Args& args, Tracer& tracer, Report& report);
void run_ooc_train(const Args& args, Tracer& tracer, Report& report);
void run_rag_serve(const Args& args, Tracer& tracer, Report& report);
void run_semester(const Args& args, Tracer& tracer, Report& report);

/// Shared pool size each workload runs with (SAGESIM_WORKERS).
unsigned workers_for(const std::string& workload);

}  // namespace perfbench
