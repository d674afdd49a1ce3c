/// \file stream.cc
/// \brief `stream_local` and `stream_remote`: `least-sparse` fits over a
/// dataset four times larger than its cache budget, streamed in row-range
/// shards — from a local CSV, or by HTTP `Range:` requests from an
/// in-process origin's `GET /data/...` route.
///
/// Each dataset is 3000 x 16 samples in 16 shards of 188 rows, the cache
/// holds a quarter of one dataset, and a fit runs 3 rounds x 40 batches of
/// 256 rows over every candidate edge on a 2-thread executor. Nearly every
/// batch touches every shard, so a fit pays some two thousand shard loads:
/// the data plane bounds it (the same fit in RAM takes about 15 ms).
///
/// The timed fits cycle over 4 datasets, and every one must learn weights
/// bitwise equal to the in-RAM fit of its dataset. `f1` is the mean over 64
/// graphs of the same family fitted in RAM (the 4 streamed ones among
/// them): the F1 of one 16-node graph varies by about 0.12 from graph to
/// graph, too much for a stable accuracy.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/least_sparse.h"
#include "data/benchmark_data.h"
#include "metrics/structure_metrics.h"
#include "net/fleet_service.h"
#include "net/http_client.h"
#include "net/http_data_source.h"
#include "net/http_server.h"
#include "runtime/fleet_scheduler.h"
#include "runtime/job_journal.h"
#include "timed.h"

namespace lbench {
namespace {

constexpr int kCols = 16;
constexpr int kShards = 16;
constexpr int kExecutorThreads = 2;
constexpr int kStreamed = 4;   // datasets the timed fits cycle over
constexpr int kF1Graphs = 64;  // graphs behind `f1`, fitted in RAM

std::string FileName(int i) { return "stream-" + std::to_string(i) + ".csv"; }

/// The origin node of `stream_remote`: a fleet service whose `/data` route
/// serves the CSVs' manifests and byte ranges.
struct Origin {
  std::unique_ptr<least::ThreadPool> pool;
  std::unique_ptr<least::JobJournal> journal;
  std::unique_ptr<least::FleetScheduler> scheduler;
  std::unique_ptr<least::FleetService> service;
  std::unique_ptr<least::HttpServer> server;
};

struct Program {
  std::unique_ptr<least::DatasetCache> cache;
  std::unique_ptr<least::ThreadPool> executor;
  std::unique_ptr<Origin> origin;  ///< remote only
  std::vector<std::shared_ptr<const least::DataSource>> sources;
  double prepare_ms = 0;  ///< mean first `Prepare` of a source
  bool prepared = true;

  ~Program() {
    if (least::GetParallelExecutor() == executor.get()) {
      least::SetParallelExecutor(nullptr);
    }
  }
};

void RunStream(const Options& options, Report* report, bool remote) {
  const char* name = remote ? "stream_remote" : "stream_local";
  const int rows = options.smoke ? 800 : 3000;
  const int shard_rows = (rows + kShards - 1) / kShards;
  auto make_graph = [&](int i) {
    least::BenchmarkConfig config;
    config.d = kCols;
    config.n = rows;
    config.seed = InputSeed(options.seed, static_cast<uint64_t>(i));
    return least::MakeBenchmarkInstance(config);
  };
  std::vector<least::BenchmarkInstance> streamed;
  for (int i = 0; i < kStreamed; ++i) {
    streamed.push_back(make_graph(i));
    report->Check(least::WriteMatrixCsv(options.work_dir + "/" + FileName(i),
                                        streamed.back().x)
                      .ok(),
                  std::string(name) + ": dataset written");
  }
  const size_t bytes = streamed[0].x.size() * sizeof(double);

  least::LearnOptions learn;
  learn.max_outer_iterations = 6;
  learn.max_inner_iterations = options.smoke ? 20 : 40;
  learn.batch_size = 256;
  learn.lambda1 = 0.05;
  learn.learning_rate = 0.03;
  // Culling at 0.1 makes every graph of this family converge in exactly 3
  // rounds, so fit time does not depend on the seed.
  learn.filter_threshold = 0.1;
  learn.init_density = 0.0;
  learn.seed = InputSeed(options.seed, 1000);
  std::vector<std::pair<int, int>> all_pairs;
  for (int i = 0; i < kCols; ++i) {
    for (int j = 0; j < kCols; ++j) {
      if (i != j) all_pairs.emplace_back(i, j);
    }
  }
  least::LeastSparseLearner learner(learn);
  learner.set_candidate_edges(all_pairs);
  report->Describe(std::to_string(kStreamed) + " datasets of " +
                   std::to_string(rows) + " x " + std::to_string(kCols) +
                   " ER-2 samples in " + std::to_string(kShards) +
                   " shards of " + std::to_string(shard_rows) +
                   " rows, cache budget 1/4 of a dataset, least-sparse outer " +
                   "3 x inner " + std::to_string(learn.max_inner_iterations) +
                   ", batch 256, " +
                   (remote ? "HTTP Range origin" : "local CSV") +
                   ", " + std::to_string(kExecutorThreads) +
                   "-thread executor; f1 over " + std::to_string(kF1Graphs) +
                   " graphs");

  std::unique_ptr<Program> program =
      TimedSetup(options.smoke ? 1 : 9, report, [&] {
        auto p = std::make_unique<Program>();
        p->cache = std::make_unique<least::DatasetCache>(bytes / 4);
        p->executor = std::make_unique<least::ThreadPool>(kExecutorThreads);
        least::SetParallelExecutor(p->executor.get());
        if (remote) {
          p->origin = std::make_unique<Origin>();
          Origin& o = *p->origin;
          o.pool = std::make_unique<least::ThreadPool>(1);
          o.journal = std::make_unique<least::JobJournal>();
          o.scheduler = std::make_unique<least::FleetScheduler>(o.pool.get());
          o.scheduler->set_journal(o.journal.get());
          least::FleetServiceOptions service_options;
          service_options.data_root = options.work_dir;
          o.service = std::make_unique<least::FleetService>(
              o.scheduler.get(), o.journal.get(), service_options);
          // A keep-alive connection pins a server thread: one per source,
          // plus one for the bench's own fetch probe.
          least::HttpServerOptions server_options;
          server_options.num_threads = kStreamed + 1;
          o.server = std::make_unique<least::HttpServer>(o.service->AsHandler(),
                                                         server_options);
          if (!o.server->Start().ok()) {
            p->prepared = false;
            return p;
          }
        }
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kStreamed; ++i) {
          std::shared_ptr<const least::DataSource> source;
          if (remote) {
            least::HttpSourceOptions source_options;
            source_options.has_header = false;
            source_options.cache = p->cache.get();
            source_options.shard_rows = shard_rows;
            least::Result<std::shared_ptr<const least::DataSource>> made =
                least::MakeHttpSource(p->origin->server->base_url() + "/data/" +
                                          FileName(i),
                                      source_options);
            if (made.ok()) source = std::move(made).value();
          } else {
            least::CsvSourceOptions source_options;
            source_options.has_header = false;
            source_options.cache = p->cache.get();
            source_options.shard_rows = shard_rows;
            source = least::MakeCsvSource(options.work_dir + "/" + FileName(i),
                                          source_options);
          }
          p->prepared = p->prepared && source != nullptr &&
                        source->Prepare().ok();
          p->sources.push_back(std::move(source));
        }
        p->prepare_ms = SecondsSince(t0) * 1e3 / kStreamed;
        return p;
      });
  report->Check(program->prepared, std::string(name) + ": sources prepared");
  if (!program->prepared) return;

  // In-RAM fits: the references the streamed fits must equal bit for bit
  // (the first kStreamed), and the accuracy sample.
  std::vector<least::SparseLearnResult> references;
  double f1_sum = 0;
  for (int i = 0; i < kF1Graphs; ++i) {
    const least::BenchmarkInstance graph =
        i < kStreamed ? streamed[i] : make_graph(i);
    least::SparseLearnResult fit =
        learner.Fit(*least::MakeDenseSource(graph.x));
    report->Check(fit.status.ok(), std::string(name) + ": in-RAM fit ok");
    f1_sum += least::EvaluateStructure(graph.w_true, fit.weights.ToDense()).f1;
    if (i < kStreamed) references.push_back(std::move(fit));
  }
  const double f1 = f1_sum / kF1Graphs;

  auto check_fit = [&](const least::SparseLearnResult& fit, int dataset,
                       const char* what) {
    report->Ops(1, fit.status.ok() ? 0 : 1);
    report->Check(fit.status.ok(), std::string(name) + ": " + what + " ok");
    report->Check(SameBits(fit.raw_weights, references[dataset].raw_weights),
                  std::string(name) + ": " + what +
                      " raw weights bitwise equal the in-RAM fit");
  };
  check_fit(learner.Fit(*program->sources[0]), 0, "warm-up fit");

  // The traced fits go through a timed source, one span tree per fit
  // (op > core.learner.fit > core.source.*), interleaved with plain fits.
  SpanRecorder* recorder = &report->spans();
  LayerClock prepare, gather;
  std::vector<std::unique_ptr<TimedSource>> timed;
  for (const auto& source : program->sources) {
    timed.push_back(std::make_unique<TimedSource>(source, &prepare, &gather,
                                                  SpanContext{}));
  }
  std::vector<double> iters;
  least::DatasetCache::Stats traced_cache{};  // cache deltas of traced fits
  auto add_cache_delta = [&](const least::DatasetCache::Stats& before,
                             const least::DatasetCache::Stats& after) {
    traced_cache.loads += after.loads - before.loads;
    traced_cache.hits += after.hits - before.hits;
    traced_cache.misses += after.misses - before.misses;
    traced_cache.evictions += after.evictions - before.evictions;
  };
  double requests = 0;
  auto plain_fit = [&](int i) {
    check_fit(learner.Fit(*program->sources[i % kStreamed]), i % kStreamed,
              "fit");
  };
  auto traced_fit = [&](int i) {
    const least::DatasetCache::Stats before = program->cache->stats();
    const double requests0 = RegistryCounter("net.http.requests");
    {
      SpanRecorder::Scope op(recorder, "op", 0, i);
      SpanRecorder::Scope fit_span(recorder, "core.learner.fit", op.id(), i);
      TimedSource& source = *timed[i % kStreamed];
      source.set_context(SpanContext{recorder, i, fit_span.id()});
      const least::SparseLearnResult fit = learner.Fit(source);
      check_fit(fit, i % kStreamed, "traced fit");
      iters.push_back(static_cast<double>(fit.inner_iterations));
    }
    requests += RegistryCounter("net.http.requests") - requests0;
    add_cache_delta(before, program->cache->stats());
  };
  const double connections0 = RegistryCounter("net.http.connections");
  const double errors0 = RegistryCounter("net.http.responses_error");
  std::vector<double> plain_ms, traced_ms;
  if (options.trace) {
    std::tie(plain_ms, traced_ms) = InterleavedFits(
        options.seconds, options.smoke ? 1 : 2, plain_fit, traced_fit);
  } else {
    plain_ms = TimedFits(options.seconds, options.smoke ? 1 : 3, plain_fit);
  }

  const int64_t n = static_cast<int64_t>(plain_ms.size());
  const double limit_ms = remote ? 10000 : 5000;
  int64_t met = 0;
  for (const double ms : plain_ms) met += ms <= limit_ms ? 1 : 0;
  report->Metric("jobs_per_s", 1e3 / Mean(plain_ms), n);
  report->Metric("job_latency_p50_ms", Percentile(plain_ms, 0.5), n);
  report->Metric("job_latency_p99_ms", Percentile(plain_ms, 0.99), n);
  report->Metric("slo_met_ratio", static_cast<double>(met) / n, n);
  report->Metric("f1", f1, kF1Graphs);
  report->Check(f1 >= (options.smoke ? 0.5 : 0.75),
                std::string(name) + ": f1 above its floor");
  report->Metric("linalg.gemm_gflops", GemmGflops(rows, kCols), 1);
  if (!options.trace) return;

  const least::DatasetCache::Stats cache1 = program->cache->stats();
  const double fits = static_cast<double>(traced_ms.size());
  const int64_t tn = static_cast<int64_t>(traced_ms.size());
  const double fit_ms = Mean(traced_ms);
  report->Metric("core.learner.fit_ms_mean", fit_ms, tn);
  report->Metric("core.learner.inner_iters", Mean(iters), tn);
  report->Metric("core.learner.step_ms",
                 (fit_ms - gather.ms() / fits) / std::max(1.0, Mean(iters)),
                 tn);
  report->Metric("core.source.prepare_ms", program->prepare_ms, 1);
  report->Metric("core.source.gather_calls",
                 static_cast<double>(gather.calls.load()) / fits, tn);
  report->Metric("core.source.gather_ms", gather.ms() / fits, tn);
  report->Metric("core.source.data_share", gather.ms() / (fit_ms * fits), tn);
  const double loads = static_cast<double>(traced_cache.loads);
  const double hits = static_cast<double>(traced_cache.hits);
  const double misses = static_cast<double>(traced_cache.misses);
  report->Metric("core.cache.loads", loads / fits, tn);
  report->Metric("core.cache.hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0,
                 static_cast<int64_t>(hits + misses));
  report->Metric("core.cache.evictions",
                 static_cast<double>(traced_cache.evictions) / fits,
                 tn);
  report->Metric("core.cache.peak_resident_kb",
                 static_cast<double>(cache1.peak_resident_bytes) / 1024.0, 1);
  report->Check(cache1.peak_resident_bytes <= bytes / 4 + bytes / kShards + 1,
                std::string(name) + ": peak resident within budget + 1 shard");
  const ShardCosts costs =
      MeasureShardCosts(options.work_dir + "/" + FileName(0), shard_rows);
  report->Metric("core.csv.parse_ms_per_shard", costs.parse_ms, costs.shards);
  report->Metric("core.csv.hash_ms_per_shard", costs.hash_ms, costs.shards);
  report->Metric("core.file.read_ms_per_shard", costs.read_ms, costs.shards);
  report->Metric("obs.trace_overhead_pct",
                 100.0 * (Median(traced_ms) / Median(plain_ms) - 1), tn);
  if (!remote) return;

  report->Metric("net.requests", requests / fits, tn);
  report->Metric("net.connections",
                 RegistryCounter("net.http.connections") - connections0, 1);
  report->Metric("net.error_responses",
                 RegistryCounter("net.http.responses_error") - errors0, 1);
  report->Metric("net.requests_per_load", loads > 0 ? requests / loads : 0,
                 static_cast<int64_t>(loads));
  // Wire cost of one shard: the same Range GETs the source issues, timed
  // on a connection pool of the bench's own.
  const least::DatasetSpec spec = program->sources[0]->spec();
  least::HttpConnectionPool pool("127.0.0.1", program->origin->server->port());
  std::vector<double> fetch_ms;
  for (int rep = 0; rep < 3; ++rep) {
    for (const least::DatasetShard& shard : spec.shards) {
      least::HttpFetchOptions fetch;
      fetch.range = "bytes=" + std::to_string(shard.byte_offset) + "-" +
                    std::to_string(shard.byte_offset + shard.byte_size - 1);
      const auto t0 = std::chrono::steady_clock::now();
      least::Result<least::HttpClientResponse> got =
          pool.Fetch("/data/" + FileName(0), fetch);
      fetch_ms.push_back(SecondsSince(t0) * 1e3);
      report->Check(got.ok() && got.value().status == 206 &&
                        got.value().body.size() == shard.byte_size,
                    "stream_remote: shard Range fetch returns the extent");
    }
  }
  report->Metric("net.fetch_ms_per_shard", Median(fetch_ms),
                 static_cast<int64_t>(fetch_ms.size()));
}

}  // namespace

void RunStreamLocal(const Options& options, Report* report) {
  RunStream(options, report, false);
}

void RunStreamRemote(const Options& options, Report* report) {
  RunStream(options, report, true);
}

}  // namespace lbench
