/// \file service_csv.cc
/// \brief `service_csv`: the fleet behind its REST service, driven by an
/// open-loop client over loopback.
///
/// In-process `FleetService` + `HttpServer` with 2 learner workers. Jobs
/// arrive at a fixed 350/s (Poisson arrival times) for the run; each
/// `POST /jobs` names one of 64 CSV datasets chosen Zipf(s=1), and the
/// process-wide dataset cache holds 16 of them, so the cache churns. Every
/// submit is followed by `GET /jobs/<id>` (reads beside the writes), a
/// follower long-polls `/changes` to see jobs settle, and every 10th
/// settled model is fetched with `GET /models/<id>` and checked.
///
/// Latency is timed from each job's due time, so a stalled generator's
/// backlog counts against it; `loadgen.lag_ms_p99` says how late it ran.
/// Every client connection pins one server connection thread (keep-alive),
/// so the server gets one connection thread per client connection.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "data/gene_network.h"
#include "io/model_serializer.h"
#include "metrics/structure_metrics.h"
#include "net/fleet_service.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "runtime/fleet_scheduler.h"
#include "runtime/job_journal.h"
#include "trace_spans.h"

namespace lbench {
namespace {

constexpr int kDatasets = 64;
constexpr int kCachedDatasets = 16;
constexpr int kLearnerWorkers = 2;
constexpr int kLoadThreads = 2;
constexpr int kServerThreads = kLoadThreads + 2;  // + follower + model reader
constexpr double kRate = 350;  // arrivals per second
constexpr double kSloMs = 50;
constexpr int kModelEvery = 10;
constexpr int kWindows = 10;  // tail latency: median of per-window p99s
constexpr const char* kJobOptions =
    "{\"max_outer_iterations\": 12, \"max_inner_iterations\": 80, "
    "\"tolerance\": 1e-6}";

struct Program {
  std::unique_ptr<least::ThreadPool> pool;
  std::unique_ptr<least::JobJournal> journal;
  std::unique_ptr<least::FleetScheduler> scheduler;
  std::unique_ptr<least::FleetService> service;
  std::unique_ptr<least::HttpServer> server;
};

struct Arrival {
  double at_s = 0;  ///< due time from the phase start
  int dataset = 0;
  // Filled by the load generator.
  int64_t due_ns = 0;
  int64_t job_id = -1;
  double lag_ms = 0;
  double submit_ms = 0, status_ms = 0;
  int64_t send_ns = 0, submit_end_ns = 0, status_start_ns = 0,
          status_end_ns = 0;
  bool submit_ok = false, status_ok = false;
};

struct Settle {
  int64_t seen_ns = 0;
  bool succeeded = false;
  double queue_ms = 0, run_ms = 0;
};

struct ModelFetch {
  int64_t job_id = -1;
  bool ok = false;  ///< 200s, decodes, edges agree
  double ms = 0;
  size_t bytes = 0;
  double fit_ms = 0;
  long long inner_iterations = 0;
  least::DenseMatrix weights;
};

struct Phase {
  std::vector<Arrival> arrivals;
  std::map<int64_t, Settle> settled;
  std::vector<ModelFetch> models;
  int64_t start_ns = 0;
  double cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  double requests = 0, connections = 0, error_responses = 0;
  double pool_steals = 0, pool_tasks = 0;
};

/// Arrival schedule of one phase: a Poisson process conditioned on its
/// count (sorted uniform times), datasets drawn Zipf(s=1).
std::vector<Arrival> MakeArrivals(uint64_t seed, double seconds) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> cdf(kDatasets);
  double total = 0;
  for (int k = 0; k < kDatasets; ++k) cdf[k] = (total += 1.0 / (k + 1));
  const int count = static_cast<int>(kRate * seconds + 0.5);
  std::vector<Arrival> arrivals(static_cast<size_t>(count));
  for (Arrival& a : arrivals) {
    a.at_s = seconds * unit(rng);
    const double u = unit(rng) * total;
    a.dataset = static_cast<int>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    a.dataset = std::min(a.dataset, kDatasets - 1);
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.at_s < b.at_s; });
  return arrivals;
}

std::string SubmitBody(int dataset) {
  return "{\"algorithm\": \"least-dense\", \"dataset\": {\"csv\": \"ds-" +
         std::to_string(dataset) + ".csv\", \"has_header\": false}, " +
         "\"options\": " + kJobOptions + "}";
}

double Ms(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

/// One open-loop phase against the running server.
std::unique_ptr<Phase> RunPhase(const Program& program, uint64_t seed,
                                double seconds) {
  auto phase = std::make_unique<Phase>();
  phase->arrivals = MakeArrivals(seed, seconds);
  const int port = program.server->port();
  const least::DatasetCache::Stats cache0 = least::GlobalDatasetCache().stats();
  const double requests0 = RegistryCounter("net.http.requests");
  const double connections0 = RegistryCounter("net.http.connections");
  const double errors0 = RegistryCounter("net.http.responses_error");
  const double steals0 = RegistryCounter("pool.steals");
  const double tasks0 = RegistryCounter("pool.tasks_scheduled");

  std::mutex mu;
  std::condition_variable cv;
  std::deque<int64_t> to_fetch;
  bool stop = false;
  std::atomic<uint64_t> since{program.journal->head()};

  // Follower: long-polls the changes feed and notes when each job settled.
  std::thread follower([&] {
    least::HttpClient client("127.0.0.1", port);
    std::map<int64_t, Settle> seen;
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (stop) break;
      }
      least::Result<least::HttpClientResponse> response = client.Get(
          "/changes?since=" + std::to_string(since.load()) +
          "&timeout_ms=100");
      const int64_t now = NowNs();
      if (!response.ok() || response.value().status != 200) continue;
      least::Result<least::JsonValue> doc =
          least::ParseJson(response.value().body);
      if (!doc.ok()) continue;
      const least::JsonValue* events = doc.value().Find("events");
      const least::JsonValue* head = doc.value().Find("head");
      if (events == nullptr || head == nullptr) continue;
      for (const least::JsonValue& e : events->items()) {
        const std::string state = e.Find("state")->as_string();
        if (state != "succeeded" && state != "failed" &&
            state != "cancelled") {
          continue;
        }
        int64_t id = -1;
        e.Find("job_id")->IntegerValue(&id);
        Settle s{now, state == "succeeded", e.Find("queue_ms")->as_number(),
                 e.Find("run_ms")->as_number()};
        seen[id] = s;
        if (s.succeeded && id % kModelEvery == 0) {
          std::lock_guard<std::mutex> lock(mu);
          to_fetch.push_back(id);
          cv.notify_one();
        }
      }
      since.store(static_cast<uint64_t>(head->as_number()));
    }
    std::lock_guard<std::mutex> lock(mu);
    phase->settled = std::move(seen);
  });

  // Model reader: fetches sampled models and checks them.
  std::thread reader([&] {
    least::HttpClient client("127.0.0.1", port);
    while (true) {
      int64_t id = -1;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stop || !to_fetch.empty(); });
        if (to_fetch.empty()) break;
        id = to_fetch.front();
        to_fetch.pop_front();
      }
      ModelFetch fetch;
      fetch.job_id = id;
      least::Result<least::HttpClientResponse> status =
          client.Get("/jobs/" + std::to_string(id));
      const int64_t t0 = NowNs();
      least::Result<least::HttpClientResponse> model =
          client.Get("/models/" + std::to_string(id));
      fetch.ms = Ms(t0, NowNs());
      if (status.ok() && status.value().status == 200 && model.ok() &&
          model.value().status == 200) {
        fetch.bytes = model.value().body.size();
        least::Result<least::JsonValue> doc =
            least::ParseJson(status.value().body);
        least::Result<least::ModelArtifact> artifact =
            least::DeserializeModel(model.value().body);
        if (doc.ok() && artifact.ok() && doc.value().Find("edges") != nullptr) {
          const double edges = doc.value().Find("edges")->as_number();
          fetch.ok = !artifact.value().sparse &&
                     static_cast<double>(
                         artifact.value().weights.CountNonZeros()) == edges;
          fetch.fit_ms = artifact.value().seconds * 1e3;
          fetch.inner_iterations = artifact.value().inner_iterations;
          fetch.weights = std::move(artifact.value().weights);
        }
      }
      phase->models.push_back(std::move(fetch));
    }
  });

  // Load generator: each thread sends its share of the arrivals on time.
  phase->start_ns = NowNs() + 20'000'000;  // 20 ms for threads to start
  std::vector<std::thread> generators;
  for (int t = 0; t < kLoadThreads; ++t) {
    generators.emplace_back([&, t] {
      least::HttpClient client("127.0.0.1", port);
      for (size_t i = static_cast<size_t>(t); i < phase->arrivals.size();
           i += kLoadThreads) {
        Arrival& a = phase->arrivals[i];
        a.due_ns = phase->start_ns + static_cast<int64_t>(a.at_s * 1e9);
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(a.due_ns)));
        a.send_ns = NowNs();
        a.lag_ms = Ms(a.due_ns, a.send_ns);
        least::Result<least::HttpClientResponse> submit =
            client.Post("/jobs", SubmitBody(a.dataset));
        a.submit_end_ns = NowNs();
        a.submit_ms = Ms(a.send_ns, a.submit_end_ns);
        if (!submit.ok() || submit.value().status != 202) continue;
        least::Result<least::JsonValue> doc =
            least::ParseJson(submit.value().body);
        if (!doc.ok() || doc.value().Find("job_id") == nullptr ||
            !doc.value().Find("job_id")->IntegerValue(&a.job_id)) {
          continue;
        }
        a.submit_ok = true;
        a.status_start_ns = NowNs();
        least::Result<least::HttpClientResponse> status =
            client.Get("/jobs/" + std::to_string(a.job_id));
        a.status_end_ns = NowNs();
        a.status_ms = Ms(a.status_start_ns, a.status_end_ns);
        a.status_ok = status.ok() && status.value().status == 200;
      }
    });
  }
  for (std::thread& g : generators) g.join();

  // Wait (bounded) for every submitted job to settle, then stop the
  // follower and the reader.
  program.scheduler->Wait();
  const uint64_t final_head = program.journal->head();
  const int64_t deadline = NowNs() + 5'000'000'000;
  while (since < final_head && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    stop = true;
  }
  cv.notify_all();
  follower.join();
  reader.join();

  const least::DatasetCache::Stats cache1 = least::GlobalDatasetCache().stats();
  phase->cache_hits = static_cast<double>(cache1.hits - cache0.hits);
  phase->cache_misses = static_cast<double>(cache1.misses - cache0.misses);
  phase->cache_evictions =
      static_cast<double>(cache1.evictions - cache0.evictions);
  phase->requests = RegistryCounter("net.http.requests") - requests0;
  phase->connections = RegistryCounter("net.http.connections") - connections0;
  phase->error_responses =
      RegistryCounter("net.http.responses_error") - errors0;
  phase->pool_steals = RegistryCounter("pool.steals") - steals0;
  phase->pool_tasks = RegistryCounter("pool.tasks_scheduled") - tasks0;
  return phase;
}

struct Summary {
  std::vector<int64_t> due_ns;
  std::vector<double> latency_ms, lag_ms, submit_ms, status_ms, model_ms;
  std::vector<double> queue_ms, f1, model_bytes, fit_ms, iters, overhead_ms;
  int64_t attempted = 0, failed = 0, succeeded = 0, slo_met = 0;
  int64_t models_checked = 0, models_bad = 0;
  double jobs_per_s = 0;
};

Summary Summarize(const Phase& phase,
                  const std::vector<least::DenseMatrix>& truth) {
  Summary s;
  s.attempted = static_cast<int64_t>(phase.arrivals.size());
  std::map<int64_t, int> dataset_of;
  std::map<int64_t, double> run_ms_of;
  int64_t last_seen = phase.start_ns;
  for (const Arrival& a : phase.arrivals) {
    s.lag_ms.push_back(a.lag_ms);
    s.submit_ms.push_back(a.submit_ms);
    if (a.submit_ok) s.status_ms.push_back(a.status_ms);
    auto it = phase.settled.find(a.job_id);
    const bool ok = a.submit_ok && a.status_ok && it != phase.settled.end() &&
                    it->second.succeeded;
    if (!ok) {
      ++s.failed;
      continue;
    }
    dataset_of[a.job_id] = a.dataset;
    run_ms_of[a.job_id] = it->second.run_ms;
    ++s.succeeded;
    const double latency = Ms(a.due_ns, it->second.seen_ns);
    s.due_ns.push_back(a.due_ns);
    s.latency_ms.push_back(latency);
    if (latency <= kSloMs) ++s.slo_met;
    s.queue_ms.push_back(it->second.queue_ms);
    last_seen = std::max(last_seen, it->second.seen_ns);
  }
  for (const ModelFetch& m : phase.models) {
    ++s.models_checked;
    auto ds = dataset_of.find(m.job_id);
    if (!m.ok || ds == dataset_of.end()) {
      ++s.models_bad;
      continue;
    }
    s.model_ms.push_back(m.ms);
    s.model_bytes.push_back(static_cast<double>(m.bytes));
    s.fit_ms.push_back(m.fit_ms);
    s.iters.push_back(static_cast<double>(m.inner_iterations));
    s.overhead_ms.push_back(run_ms_of[m.job_id] - m.fit_ms);
    s.f1.push_back(least::EvaluateStructure(truth[ds->second], m.weights).f1);
  }
  s.failed += s.models_bad;
  const double span_s = Ms(phase.start_ns, last_seen) / 1e3;
  s.jobs_per_s = span_s > 0 ? static_cast<double>(s.succeeded) / span_s : 0;
  return s;
}

/// Spans of one traced phase: per job a root from due time to settle seen,
/// the client's lag, submit and status calls, and the runtime's queue wait
/// and run placed back from the settle the follower saw.
void RecordSpans(const Phase& phase, SpanRecorder* recorder) {
  for (const Arrival& a : phase.arrivals) {
    auto it = phase.settled.find(a.job_id);
    if (!a.submit_ok || it == phase.settled.end()) continue;
    const int64_t request = a.job_id;
    const int64_t root = recorder->NewId();
    recorder->Record(root, "op", a.due_ns, it->second.seen_ns, 0, request);
    recorder->Add("loadgen.lag", a.due_ns, a.send_ns, root, request);
    recorder->Add("net.submit", a.send_ns, a.submit_end_ns, root, request);
    recorder->Add("net.status", a.status_start_ns, a.status_end_ns, root,
                  request);
    const int64_t run_end = it->second.seen_ns;
    const int64_t run_start =
        run_end - static_cast<int64_t>(it->second.run_ms * 1e6);
    const int64_t queue_start =
        run_start - static_cast<int64_t>(it->second.queue_ms * 1e6);
    recorder->Add("runtime.queue_wait", queue_start, run_start, root,
                  request);
    recorder->Add("runtime.run", run_start, run_end, root, request);
  }
}

}  // namespace

void RunServiceCsv(const Options& options, Report* report) {
  namespace fs = std::filesystem;
  const std::string data_dir = options.work_dir + "/data";
  fs::create_directories(data_dir);
  std::vector<least::DenseMatrix> truth;
  size_t dataset_bytes = 0;
  for (int i = 0; i < kDatasets; ++i) {
    least::GeneNetworkConfig config;
    config.num_genes = 12;
    config.num_edges = 20;
    config.num_samples = 120;
    config.seed = InputSeed(options.seed, static_cast<uint64_t>(i));
    least::GeneNetworkInstance net = least::MakeGeneNetwork(config);
    dataset_bytes = net.x.size() * sizeof(double);
    report->Check(least::WriteMatrixCsv(data_dir + "/ds-" +
                                            std::to_string(i) + ".csv",
                                        net.x)
                      .ok(),
                  "service_csv: dataset written");
    truth.push_back(std::move(net.w_true));
  }
  report->Describe(
      "64 CSV gene networks (12 genes, 120 samples), Zipf(1) choice, cache of "
      "16, open loop at 350 jobs/s, 2 learner workers, least-dense outer 12 "
      "x inner 80");

  std::unique_ptr<Program> program =
      TimedSetup(options.smoke ? 1 : 31, report, [&] {
        auto p = std::make_unique<Program>();
        least::GlobalDatasetCache().Clear();
        least::GlobalDatasetCache().set_byte_budget(kCachedDatasets *
                                                    dataset_bytes);
        p->pool = std::make_unique<least::ThreadPool>(kLearnerWorkers);
        p->journal = std::make_unique<least::JobJournal>(size_t{1} << 16);
        p->scheduler = std::make_unique<least::FleetScheduler>(p->pool.get());
        p->scheduler->set_journal(p->journal.get());
        least::FleetServiceOptions service_options;
        service_options.data_root = data_dir;
        p->service = std::make_unique<least::FleetService>(
            p->scheduler.get(), p->journal.get(), service_options);
        least::HttpServerOptions server_options;
        server_options.num_threads = kServerThreads;
        p->server = std::make_unique<least::HttpServer>(
            p->service->AsHandler(), server_options);
        if (!p->server->Start().ok()) p->server.reset();
        return p;
      });
  report->Check(program->server != nullptr, "service_csv: server started");
  if (program->server == nullptr) return;

  // Warm-up: fill the cache and every connection path once.
  RunPhase(*program, InputSeed(options.seed, 1000), options.smoke ? 0.2 : 1);

  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  const std::unique_ptr<Phase> plain =
      RunPhase(*program, InputSeed(options.seed, 1001), phase_s);
  const Summary s = Summarize(*plain, truth);
  report->Ops(s.attempted, s.failed);
  const int64_t n = static_cast<int64_t>(s.latency_ms.size());
  report->Metric("jobs_per_s", s.jobs_per_s, n);
  report->Metric("job_latency_p50_ms", Percentile(s.latency_ms, 0.50), n);
  report->Metric("job_latency_p99_ms",
                 WindowedPercentile(s.due_ns, s.latency_ms, 0.99, kWindows), n);
  report->Metric("slo_met_ratio",
                 static_cast<double>(s.slo_met) /
                     static_cast<double>(std::max<int64_t>(1, s.attempted)),
                 s.attempted);
  report->Metric("f1", Mean(s.f1), static_cast<int64_t>(s.f1.size()));
  report->Check(s.failed == 0, "service_csv: every job and request succeeded");
  report->Check(s.models_checked > 0 && s.models_bad == 0,
                "service_csv: sampled models decode and match their edges");
  report->Check(Mean(s.f1) >= (options.smoke ? 0.9 : 0.93),
                "service_csv: mean f1 above its floor");
  report->Check(Percentile(s.lag_ms, 0.99) <= 5,
                "service_csv: load generator ran on time (lag p99 <= 5 ms)");
  report->Metric("linalg.gemm_gflops", GemmGflops(120, 12), 1);
  if (!options.trace) {
    program->server->Stop();
    return;
  }

  const std::unique_ptr<Phase> traced =
      RunPhase(*program, InputSeed(options.seed, 1002), phase_s);
  program->server->Stop();
  const Summary t = Summarize(*traced, truth);
  report->Ops(t.attempted, t.failed);
  report->Check(t.failed == 0, "service_csv: every traced job succeeded");
  RecordSpans(*traced, &report->spans());
  const double jobs = static_cast<double>(std::max<int64_t>(1, t.attempted));
  const int64_t tn = static_cast<int64_t>(t.latency_ms.size());
  const int64_t models = static_cast<int64_t>(t.fit_ms.size());
  report->Metric("runtime.queue_wait_ms_p50", Percentile(t.queue_ms, 0.5), tn);
  report->Metric("runtime.queue_wait_ms_p99", Percentile(t.queue_ms, 0.99), tn);
  report->Metric("runtime.settle_overhead_ms_mean", Mean(t.overhead_ms),
                 models);
  report->Metric("runtime.pool_steals", traced->pool_steals / jobs, tn);
  report->Metric("runtime.tasks_scheduled", traced->pool_tasks / jobs, tn);
  report->Metric("core.learner.fit_ms_mean", Mean(t.fit_ms), models);
  report->Metric("core.learner.inner_iters", Mean(t.iters), models);
  report->Metric("core.learner.step_ms",
                 Mean(t.fit_ms) / std::max(1.0, Mean(t.iters)), models);
  const double lookups = traced->cache_hits + traced->cache_misses;
  report->Metric("core.cache.loads", traced->cache_misses / jobs, tn);
  report->Metric("core.cache.hit_ratio",
                 lookups > 0 ? traced->cache_hits / lookups : 0,
                 static_cast<int64_t>(lookups));
  report->Metric("core.cache.evictions", traced->cache_evictions / jobs, tn);
  report->Metric(
      "core.cache.peak_resident_kb",
      static_cast<double>(
          least::GlobalDatasetCache().stats().peak_resident_bytes) /
          1024.0,
      1);
  const ShardCosts costs = MeasureShardCosts(data_dir + "/ds-0.csv", 1 << 30);
  report->Metric("core.csv.parse_ms_per_shard", costs.parse_ms, costs.shards);
  report->Metric("core.csv.hash_ms_per_shard", costs.hash_ms, costs.shards);
  report->Metric("core.file.read_ms_per_shard", costs.read_ms, costs.shards);
  report->Metric("net.submit_ms_p50", Percentile(t.submit_ms, 0.5), tn);
  report->Metric("net.submit_ms_p99", Percentile(t.submit_ms, 0.99), tn);
  report->Metric("net.status_ms_p50", Percentile(t.status_ms, 0.5), tn);
  report->Metric("net.status_ms_p99", Percentile(t.status_ms, 0.99), tn);
  report->Metric("net.model_ms_p50", Percentile(t.model_ms, 0.5), models);
  report->Metric("net.requests", traced->requests / jobs, tn);
  report->Metric("net.connections", traced->connections, 1);
  report->Metric("net.error_responses", traced->error_responses, 1);
  report->Metric("io.model_bytes_mean", Mean(t.model_bytes), models);
  report->Metric("loadgen.lag_ms_p99", Percentile(t.lag_ms, 0.99), tn);
  report->Metric("obs.trace_overhead_pct",
                 100.0 * (Percentile(t.latency_ms, 0.5) /
                              Percentile(s.latency_ms, 0.5) -
                          1),
                 tn);
}

}  // namespace lbench
