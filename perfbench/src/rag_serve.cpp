// rag_serve — the Week-14 real-time RAG serving lab: rag::Server over a CPU
// BruteForceIndex pipeline, driven by one generator thread in two phases.
//
//  * Burst: rounds of distinct queries, all submitted at once to a fresh
//    server.  It sets ops_per_cpu_s — batched throughput with no cache help.
//  * Paced: an open loop of Poisson arrivals at a fixed rate below burst
//    capacity, where a minority of the queries repeat Zipf-distributed hot
//    queries.  Each query is timed from when it was due to be sent until it
//    completed; the traced run reports these latencies per layer.
//
// One operation is one answered query.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "common.hpp"
#include "rag/server.hpp"
#include "stats/rng.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

using namespace sagesim;

namespace {

constexpr int kSetups = 9;
// The corpus holds kDocs +- kDocsJitter documents, the count drawn from the
// seed.  Every workload reports the modeled metrics, and on the CPU path
// rag's modeled per-query time is a formula of corpus size and embedding
// width: with a fixed count it would read the same for every input.
constexpr std::size_t kDocs = 2000;
constexpr std::size_t kDocsJitter = 10;
constexpr int kTopics = 8;
constexpr std::size_t kWordsPerTopic = 20;
constexpr std::size_t kBackgroundWords = 100;
constexpr std::size_t kDim = 256;
constexpr std::size_t kTopK = 4;
constexpr std::size_t kBurst = 128;         // distinct queries per burst round
constexpr std::size_t kBurstSets = 4;       // burst rounds cycle through these
constexpr double kBurstShare = 0.4;         // of the run's seconds
// Paced traffic: Poisson arrivals at a fixed rate, so queries meet in small
// batches and the tail is set by batching and queueing over ~6,000 samples
// rather than by a handful of host stalls.  The send times are one fixed
// schedule, the same for every seed, like the rate: the seed varies the
// queries, not the traffic shape.
constexpr double kPacedQps = 500.0;
constexpr std::uint64_t kArrivalSeed = 0x5eedc0de;
constexpr double kRepeatShare = 0.25;       // paced queries that repeat
constexpr std::size_t kHotQueries = 64;     // the repeated set
constexpr std::size_t kReferenceSample = 48;  // queries checked against top-k

/// Zipf(s=1) over [0, n): hot queries dominate the repeats.
class Zipf {
 public:
  Zipf(std::size_t n, stats::Rng& rng) : rng_(rng) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cumulative_.push_back(total);
    }
  }
  std::size_t operator()() {
    const double u = rng_.uniform() * cumulative_.back();
    return static_cast<std::size_t>(
        std::upper_bound(cumulative_.begin(), cumulative_.end(), u) -
        cumulative_.begin());
  }

 private:
  stats::Rng& rng_;
  std::vector<double> cumulative_;
};

/// The pipeline keeps a reference to the corpus, so Inputs is built in
/// place and never moved.
struct Inputs {
  rag::SyntheticCorpusParams params;
  rag::SyntheticCorpus synth;
  std::unique_ptr<rag::RagPipeline> pipeline;
  std::vector<std::vector<std::string>> burst;  ///< kBurstSets x kBurst, distinct
  std::vector<std::string> paced;  ///< fresh queries plus hot repeats
  std::vector<double> paced_due_s;  ///< send times, ascending
};

void build_inputs(Inputs& in, std::uint64_t seed, double paced_s) {
  in.params.num_docs = kDocs - kDocsJitter + seed % (2 * kDocsJitter + 1);
  in.params.num_topics = kTopics;
  in.params.words_per_topic = kWordsPerTopic;
  in.params.background_words = kBackgroundWords;
  stats::Rng rng(seed);
  in.synth = rag::synthetic_corpus(in.params, rng);
  rag::RagConfig cfg;
  cfg.embed_dim = kDim;
  cfg.top_k = kTopK;
  cfg.generator.retrieval_boost = 25.0;
  in.pipeline = std::make_unique<rag::RagPipeline>(
      in.synth.corpus, std::make_unique<rag::BruteForceIndex>(kDim), nullptr,
      cfg);

  std::unordered_set<std::string> seen;
  auto fresh = [&] {
    for (;;) {
      std::string q = rag::synthetic_query(
          in.params, static_cast<int>(seen.size()) % kTopics, rng);
      if (seen.insert(q).second) return q;
    }
  };
  in.burst.resize(kBurstSets);
  for (auto& set : in.burst)
    for (std::size_t i = 0; i < kBurst; ++i) set.push_back(fresh());
  std::vector<std::string> hot;
  for (std::size_t i = 0; i < kHotQueries; ++i) hot.push_back(fresh());
  Zipf zipf(kHotQueries, rng);
  stats::Rng arrivals(kArrivalSeed);
  for (double t = 0.0; t < paced_s; t += arrivals.exponential(kPacedQps))
    in.paced_due_s.push_back(t);
  for (std::size_t i = 0; i < in.paced_due_s.size(); ++i)
    in.paced.push_back(rng.uniform() < kRepeatShare ? hot[zipf()] : fresh());
}

/// Server options written into the benchmark (not read from the
/// environment): the repository defaults.
rag::ServeOptions serve_options() { return rag::ServeOptions{}; }

struct Outcome {
  std::vector<Expected<rag::RagAnswer>> answers;
  std::vector<double> latency_ms;    ///< due (or submit) to completion
  std::vector<double> send_late_ms;  ///< paced only
  rag::Server::Stats stats;
  rag::LatencyTracker server_latency;
  double wall_s{0.0};
};

/// Submits @p queries to a fresh server: all at once when @p due_s is
/// empty, otherwise query i at @p due_s[i] seconds after the start.  Waits
/// for every answer.
Outcome serve(rag::RagPipeline& pipeline, const std::vector<std::string>& queries,
              const std::vector<double>& due_s, Tracer& tracer, bool traced) {
  Outcome out;
  const std::size_t n = queries.size();
  std::vector<Clock::time_point> due(n), done(n);
  std::mutex done_mutex;
  std::condition_variable all_done;
  std::size_t completed = 0;
  std::vector<runtime::Future<rag::RagAnswer>> futures;
  futures.reserve(n);
  rag::Server server(pipeline, serve_options());
  const auto t0 = Clock::now();
  const bool paced = !due_s.empty();
  out.send_late_ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = t0;
    if (paced) {
      due[i] += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(due_s[i]));
      std::this_thread::sleep_until(due[i]);
      out.send_late_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due[i])
              .count());
    }
    const double s0 = tracer.now();
    futures.push_back(server.submit(queries[i]));
    futures.back().erased().on_ready(
        [&, i, s0, traced](const runtime::AnyFuture&) {
          done[i] = Clock::now();
          if (traced)
            tracer.span("rag.Server::submit->answer", s0, tracer.now(),
                        i + 1);
          // Notified under the lock, so the waiter cannot return and free
          // the condition variable before this call is done with it.
          std::lock_guard lock(done_mutex);
          if (++completed == n) all_done.notify_one();
        });
  }
  server.drain();
  {
    std::unique_lock lock(done_mutex);
    all_done.wait(lock, [&] { return completed == n; });
  }
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  server.stop();
  out.stats = server.stats();
  out.server_latency = server.latency();
  out.answers.reserve(n);
  out.latency_ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.answers.push_back(futures[i].result());
    out.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(done[i] - due[i]).count());
  }
  return out;
}

/// Top-k document ids for @p query by the benchmark's own dot-product loop
/// over the encoded corpus, with their scores.
std::vector<std::pair<double, std::uint32_t>> reference_top_k(
    const tensor::Tensor& docs, const tensor::Tensor& q) {
  std::vector<std::pair<double, std::uint32_t>> scored(docs.rows());
  for (std::size_t d = 0; d < docs.rows(); ++d) {
    double s = 0.0;
    for (std::size_t j = 0; j < docs.cols(); ++j)
      s += static_cast<double>(docs.data()[d * docs.cols() + j]) *
           static_cast<double>(q.data()[j]);
    scored[d] = {s, static_cast<std::uint32_t>(d)};
  }
  std::partial_sort(scored.begin(), scored.begin() + kTopK, scored.end(),
                    [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                    });
  scored.resize(kTopK);
  return scored;
}

double hit_rate(std::uint64_t hits, std::uint64_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

}  // namespace

void run_rag_serve(const Args& args, Tracer& tracer, Report& report) {
  const double burst_s = kBurstShare * args.seconds;
  const double paced_s = args.seconds - burst_s;


  // --- setup: corpus, encoder + index build, query generation ----------------
  std::vector<double> setup_s;
  std::unique_ptr<Inputs> inputs;
  for (int i = 0; i < kSetups; ++i) {
    inputs.reset();
    setup_s.push_back(setup_step(tracer, "rag.setup", [&] {
      inputs = std::make_unique<Inputs>();
      build_inputs(*inputs, args.seed, paced_s);
    }));
  }
  const Inputs& in = *inputs;
  const std::size_t paced_count = in.paced.size();
  rag::RagPipeline& pipeline = *in.pipeline;
  std::printf("rag_serve: %zu docs, dim %zu, top-%zu; burst rounds of %zu "
              "distinct queries; paced %zu queries (Poisson %.0f/s), %.0f%% "
              "hot repeats\n",
              in.synth.corpus.size(), kDim, kTopK, kBurst, paced_count,
              kPacedQps, 100.0 * kRepeatShare);

  // --- burst phase ------------------------------------------------------------
  const DataPlane plane0 = DataPlane::now();
  std::vector<Outcome> bursts;
  double busy_s = 0.0, traced_wall_s = 0.0;
  auto one_burst = [&](bool traced) -> double {
    const auto& queries = in.burst[bursts.size() % kBurstSets];
    if (!traced) {
      bursts.push_back(serve(pipeline, queries, {}, tracer, false));
      return static_cast<double>(kBurst);
    }
    runtime::Scheduler::shared().timeline().clear();
    bursts.push_back(serve(pipeline, queries, {}, tracer, true));
    busy_s += task_busy_s(runtime::Scheduler::shared());
    traced_wall_s += bursts.back().wall_s;
    return static_cast<double>(kBurst);
  };
  one_burst(false);  // warm-up
  const Measured run = measure(burst_s, tracer.enabled(), one_burst);

  // --- paced phase ------------------------------------------------------------
  runtime::Scheduler::shared().timeline().clear();
  const Outcome paced =
      serve(pipeline, in.paced, in.paced_due_s, tracer, tracer.enabled());
  const double paced_busy_s = task_busy_s(runtime::Scheduler::shared());
  const DataPlane plane1 = DataPlane::now();

  // --- output checks ----------------------------------------------------------
  std::uint64_t attempted = 0, failed = 0;
  std::map<std::string, const rag::RagAnswer*> first_answer;
  bool identical = true;
  auto account = [&](const std::vector<std::string>& queries,
                     const Outcome& o) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ++attempted;
      if (!o.answers[i]) {
        ++failed;
        continue;
      }
      const rag::RagAnswer& a = *o.answers[i];
      auto [it, inserted] = first_answer.emplace(queries[i], &a);
      if (!inserted)
        identical = identical && it->second->text == a.text &&
                    it->second->retrieved == a.retrieved &&
                    it->second->id == a.id;
    }
  };
  for (std::size_t i = 0; i < bursts.size(); ++i)
    account(in.burst[i % kBurstSets], bursts[i]);
  account(in.paced, paced);
  report.add_ops(attempted, failed);
  report.check(failed == 0, "every request completes OK");
  report.check(identical, "repeats of a query return bit-identical answers");

  const tensor::Tensor docs =
      pipeline.encoder().encode_corpus(in.synth.corpus);
  std::size_t checked = 0, mismatched = 0;
  for (std::size_t i = 0; i < kReferenceSample; ++i) {
    const std::string& q = i % 2 == 0 ? in.burst[i % kBurstSets][i]
                                      : in.paced[i * paced_count /
                                                 kReferenceSample];
    const auto it = first_answer.find(q);
    if (it == first_answer.end()) continue;
    const tensor::Tensor qv = pipeline.encode_query(q);
    const auto ref = reference_top_k(docs, qv);
    const auto& got = it->second->retrieved;
    ++checked;
    // Ids must match the reference ranking; where two reference scores tie
    // to float precision either order is a correct top-k.
    bool ok = got.size() == ref.size();
    for (std::size_t j = 0; ok && j < ref.size(); ++j) {
      if (got[j].id == ref[j].second) continue;
      const double tol = 1e-5 * std::max(1.0, std::abs(ref[0].first));
      double got_score = 0.0;
      for (std::size_t c = 0; c < kDim; ++c)
        got_score += static_cast<double>(docs.data()[got[j].id * kDim + c]) *
                     static_cast<double>(qv.data()[c]);
      ok = std::abs(got_score - ref[j].first) <= tol;
    }
    mismatched += ok ? 0 : 1;
  }
  report.check(checked == kReferenceSample && mismatched == 0,
               "retrieved ids equal the reference dot-product top-k");
  std::printf("rag_serve: %zu burst rounds, %llu queries answered, %zu/%zu "
              "sampled queries match the reference top-%zu, %.0f burst "
              "queries per wall second\n",
              bursts.size(), static_cast<unsigned long long>(attempted - failed),
              checked - mismatched, kReferenceSample, kTopK,
              run.untraced.ops_per_wall_s());

  std::vector<double> sim_s;
  for (const auto& a : paced.answers)
    if (a) sim_s.push_back(a->total_s());
  double sim_mean_s = 0.0;
  for (double s : sim_s) sim_mean_s += s / static_cast<double>(sim_s.size());

  if (!tracer.enabled()) {
    std::vector<double> sim_h;
    for (double v : sim_s) sim_h.push_back(v / 3600.0);
    report.set("setup_s", median(setup_s), "s");
    report.set("ops_per_cpu_s", run.untraced.ops_per_cpu_s(), "1/s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("sim_ms_per_op", 1e3 * sim_mean_s, "ms",
               "modeled pipeline time per paced query, a formula of corpus "
               "size and width");
    report.set("sim_wait_p99_h", percentile(sim_h, 99), "h",
               "modeled answer time of a paced query, p99");
    report.set("sim_cost_usd", 1000.0 * sim_mean_s / 3600.0 *
                                   gpu_node_usd_per_h(),
               "USD",
               "modeled pipeline time of 1,000 paced queries x the "
               "g4dn.xlarge on-demand rate");
    return;
  }

  // --- per-layer metrics (traced run) ---------------------------------------
  report_overhead(report, run.untraced.ops_per_cpu_s(),
                  run.traced.ops_per_cpu_s());
  report.set("runtime.task_busy_frac",
             busy_s / (runtime::Scheduler::shared().worker_count() *
                       traced_wall_s),
             "frac");
  std::uint64_t batches = 0, batched = 0;
  for (const Outcome& b : bursts) {
    batches += b.stats.batches;
    batched += b.stats.batched_queries;
  }
  report.set("rag.burst_mean_batch",
             static_cast<double>(batched) / static_cast<double>(batches),
             "count");
  report.set("rag.paced_mean_batch",
             static_cast<double>(paced.stats.batched_queries) /
                 static_cast<double>(paced.stats.batches),
             "count");
  report.set("rag.result_hit_rate",
             hit_rate(paced.stats.result_hits, paced.stats.result_misses),
             "frac");
  report.set("rag.embed_hit_rate",
             hit_rate(paced.stats.embed_hits, paced.stats.embed_misses),
             "frac");
  report.set("rag.paced_busy_frac",
             paced_busy_s / (runtime::Scheduler::shared().worker_count() *
                             paced.wall_s),
             "frac");
  report.set("rag.paced_p50_ms", percentile(paced.latency_ms, 50), "ms");
  report.set("rag.paced_p99_ms", percentile(paced.latency_ms, 99), "ms");
  report.set("rag.server_p50_ms", 1e3 * paced.server_latency.p50(), "ms");
  report.set("rag.server_p99_ms", 1e3 * paced.server_latency.p99(), "ms");
  report.set("rag.send_late_p99_ms", percentile(paced.send_late_ms, 99), "ms");

  const auto requests = [](const mem::PoolStats& p) {
    return p.hits + p.misses + p.pass_through;
  };
  report.set("mem.pool_hit_rate",
             static_cast<double>(plane1.host_pool.hits - plane0.host_pool.hits) /
                 static_cast<double>(requests(plane1.host_pool) -
                                     requests(plane0.host_pool)),
             "frac");
  report.set("mem.peak_resident_mb",
             mb(static_cast<double>(mem::process_peak_resident_bytes())),
             "MB");

  // Layer probes on a max_batch block of distinct queries.
  report.set("runtime.handoff_us", handoff_us(runtime::Scheduler::shared()),
             "us");
  const std::size_t b = serve_options().max_batch;
  const std::vector<std::string>& burst = in.burst.front();
  std::vector<std::string> block(burst.begin(), burst.begin() + b);
  tensor::Tensor encoded(b, kDim);
  std::size_t next = 0;
  report.set("rag.encode_us", median_us(200, [&] {
               const auto row =
                   pipeline.encode_query(burst[next++ % burst.size()]);
               (void)row;
             }),
             "us");
  for (std::size_t i = 0; i < b; ++i) {
    const auto row = pipeline.encode_query(block[i]);
    std::copy(row.data(), row.data() + kDim, encoded.data() + i * kDim);
  }
  report.set("rag.search_us_per_query", median_us(21, [&] {
               timed(tracer, "rag.VectorIndex::search", [&] {
                 (void)pipeline.index().search(nullptr, encoded, kTopK).value();
               });
             }) / static_cast<double>(b),
             "us");
  report.set("rag.answer_us_per_query", median_us(21, [&] {
               timed(tracer, "rag.RagPipeline::answer_encoded", [&] {
                 (void)pipeline.answer_encoded(encoded, block).value();
               });
             }) / static_cast<double>(b),
             "us");
  tensor::Tensor scores(b, docs.rows());
  const double gemm_us = median_us(21, [&] {
    tensor::ops::gemm(nullptr, encoded, docs, scores, false, true);
  });
  report.set("compute.host_gemm_gflops",
             2.0 * static_cast<double>(b * kDim * docs.rows()) / gemm_us / 1e3,
             "GFLOP/s");
}

}  // namespace perfbench
