// perfbench — runs one workload of the repository benchmark.
//
//   perfbench --workload alg1|ooc_train|rag_serve|semester --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//
// Runs one workload in this process: builds its inputs from the seed
// (timed as setup), measures for S seconds of host time, checks the
// outputs, and prints one JSON result line last.  An untraced run reports
// the end-to-end metrics; a traced run (--trace 1) reports the per-layer
// metrics, the tracing overhead, and writes its spans to
// DIR/traces/<workload>-<seed>.json.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common.hpp"
#include "compute/autotuner.hpp"

extern char** environ;

namespace {

using perfbench::Report;

// Every untraced run prints each of these; BENCHMARK.json lists the same.
// Where a metric is not what its name says on some workload, that workload
// gives it a reading (printed beside the value).
const std::vector<const char*> kEndToEnd = {
    "setup_s",       "ops_per_cpu_s",  "peak_rss_mb",
    "sim_ms_per_op", "sim_wait_p99_h", "sim_cost_usd"};

// Every traced run prints each of these with its unit.  A layer a workload
// does not exercise reads 0 there (and is named on the "not exercised" line).
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"dflow.tasks_per_op", "count"},
    {"runtime.handoff_us", "us"},
    {"runtime.task_busy_frac", "frac"},
    {"gpusim.launches_per_op", "count"},
    {"gpusim.kernel_sim_ms_per_op", "ms"},
    {"gpusim.modeled_gflop_per_op", "GFLOP"},
    {"gpusim.host_ns_per_modeled_flop", "ns"},
    {"gpusim.host_s_per_sim_s", "s/s"},
    {"gpusim.launch_us", "us"},
    {"gpusim.device_gemm_gflops", "GFLOP/s"},
    {"graph.device_spmm_ms", "ms"},
    {"compute.host_gemm_gflops", "GFLOP/s"},
    {"mem.h2d_mb_per_op", "MB"},
    {"mem.d2h_mb_per_op", "MB"},
    {"mem.copies_per_op", "count"},
    {"mem.pool_hit_rate", "frac"},
    {"mem.peak_resident_mb", "MB"},
    {"ddp.comm_sim_ms_per_op", "ms"},
    {"ddp.comm_exposed_sim_ms_per_op", "ms"},
    {"graph.partition_ms", "ms"},
    {"graph.edge_cut", "count"},
    {"graph.shard_build_s", "s"},
    {"graph.sample_ms_per_batch", "ms"},
    {"graph.sampled_edges_per_op", "count"},
    {"graph.shard_loads_per_op", "count"},
    {"graph.shard_evictions_per_op", "count"},
    {"graph.h2d_hidden_frac", "frac"},
    {"rag.encode_us", "us"},
    {"rag.search_us_per_query", "us"},
    {"rag.answer_us_per_query", "us"},
    {"rag.burst_mean_batch", "count"},
    {"rag.paced_mean_batch", "count"},
    {"rag.paced_busy_frac", "frac"},
    {"rag.paced_p50_ms", "ms"},
    {"rag.paced_p99_ms", "ms"},
    {"rag.result_hit_rate", "frac"},
    {"rag.embed_hit_rate", "frac"},
    {"rag.server_p50_ms", "ms"},
    {"rag.server_p99_ms", "ms"},
    {"rag.send_late_p99_ms", "ms"},
    {"sched.submit_us", "us"},
    {"sched.advance_ms_per_sim_day", "ms"},
    {"sched.quota_rejections", "count"},
    {"sched.backfills", "count"},
    {"sched.preemptions", "count"},
    {"sched.utilization", "frac"},
    {"cloudsim.launches", "count"},
    {"cloudsim.spot_usd", "USD"},
    {"trace.untraced_ops_per_cpu_s", "1/s"},
    {"trace.traced_ops_per_cpu_s", "1/s"},
    {"trace.overhead_frac", "frac"},
    {"trace.spans", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "alg1|ooc_train|rag_serve|semester --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("--seed takes an integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0.0))
        usage("--seconds takes a positive number");
    } else if (key == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      a.trace = v[0] == '1';
    } else if (key == "--work-dir") {
      a.work_dir = v;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// The program must see only the inputs the benchmark generates: no
/// SAGESIM_* knob may come from the caller's environment.
std::vector<std::string> inherited_knobs() {
  std::vector<std::string> out;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "SAGESIM_", 8) == 0) out.emplace_back(*e);
  return out;
}

/// Machine-wide CPU tick counters from /proc/stat: {steal, all}.  The share
/// of ticks the hypervisor stole while a run measured says how much a
/// neighbour on the host slowed it; {0, 0} where the file is unreadable.
std::pair<double, double> cpu_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  double v[10] = {};
  const int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf %lf %lf",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7], &v[8], &v[9]);
  std::fclose(f);
  if (n < 8) return {0.0, 0.0};
  double all = 0.0;
  for (int i = 0; i < n; ++i) all += v[i];
  return {v[7], all};
}

void print_result(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted()),
              static_cast<unsigned long long>(r.failed()));
  bool first = true;
  for (const auto& [name, v] : r.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v.value, v.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  void (*run)(const perfbench::Args&, perfbench::Tracer&, Report&) = nullptr;
  if (args.workload == "alg1") run = perfbench::run_alg1;
  if (args.workload == "ooc_train") run = perfbench::run_ooc_train;
  if (args.workload == "rag_serve") run = perfbench::run_rag_serve;
  if (args.workload == "semester") run = perfbench::run_semester;
  if (run == nullptr) usage(("unknown workload " + args.workload).c_str());

  if (const auto knobs = inherited_knobs(); !knobs.empty()) {
    std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                 knobs.front().c_str());
    return 2;
  }
  const unsigned workers = perfbench::workers_for(args.workload);
  setenv("SAGESIM_WORKERS", std::to_string(workers).c_str(), 1);

  Report report;
  perfbench::Tracer tracer(args.trace);
  const auto ticks0 = cpu_ticks();
  try {
    run(args, tracer, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  // Timing-based tuning would let two runs execute different
  // configurations: the autotuner must not have searched or loaded a cache.
  const auto tuner = sagesim::compute::Autotuner::shared().stats();
  report.check(tuner.searches == 0 && !tuner.loaded,
               "autotuner ran no search and loaded no cache");

  const auto ticks1 = cpu_ticks();
  const double all_ticks = ticks1.second - ticks0.second;
  const bench::RunInfo info = bench::run_info(workers);
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %s, \"tune_searches\": %llu, "
              "\"host_steal_frac\": %.4f,",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? "true" : "false",
              static_cast<unsigned long long>(tuner.searches),
              all_ticks > 0.0 ? (ticks1.first - ticks0.first) / all_ticks
                              : 0.0);
  bench::json_run_info(stdout, info);
  std::printf("}\n");

  if (args.trace) {
    report.set("trace.spans", static_cast<double>(tracer.size()), "count");
    const std::filesystem::path dir =
        std::filesystem::path(args.work_dir) / "traces";
    std::filesystem::create_directories(dir);
    const auto path =
        dir / (args.workload + "-" + std::to_string(args.seed) + ".json");
    tracer.write(path.string());
    std::printf("spans: %zu written to %s\n", tracer.size(),
                path.string().c_str());
    std::string missing;
    for (const auto& [name, unit] : kPerLayer) {
      if (report.has(name)) continue;
      report.set(name, 0.0, unit);
      missing += std::string(missing.empty() ? "" : " ") + name;
    }
    std::printf("not exercised by %s: %s\n", args.workload.c_str(),
                missing.empty() ? "-" : missing.c_str());
  }

  // A traced run reports exactly the per-layer table, an untraced run
  // exactly the end-to-end metrics (end-to-end numbers never come from a
  // traced run).
  const std::size_t expected = args.trace ? kPerLayer.size() : kEndToEnd.size();
  for (const char* name : kEndToEnd)
    if (!args.trace && !report.has(name)) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                   args.workload.c_str(), name);
      return 1;
    }
  if (report.metrics().size() != expected) {
    std::fprintf(stderr, "perfbench: %s reported %zu metrics, expected %zu\n",
                 args.workload.c_str(), report.metrics().size(), expected);
    return 1;
  }

  for (const auto& [name, v] : report.metrics())
    std::printf("  %-34s %14.6g %-8s%s%s\n", name.c_str(), v.value,
                v.unit.c_str(), v.reading.empty() ? "" : "  here: ",
                v.reading.c_str());
  std::printf("checks: %zu run, %zu failed\n", report.checks(),
              report.failures().size());
  for (const auto& f : report.failures())
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  print_result(report);
  return 0;
}
