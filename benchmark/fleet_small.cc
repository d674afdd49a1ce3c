/// \file fleet_small.cc
/// \brief `fleet_small`: the paper's production fleet — thousands of small
/// `least-dense` fits through an in-process `FleetScheduler`.
///
/// Closed loop: 6 jobs outstanding on 3 workers, each job a 12-gene /
/// 120-sample gene network held in RAM (200 networks, cycled). A job costs
/// the runtime plus a small-d learner; the data plane and the net do
/// nothing, so this is where scheduler and learner overheads show.
///
/// Jobs run in waves of 2000 on a fresh scheduler each: a scheduler keeps
/// every settled record, so without waves the process's memory would grow
/// with throughput and a faster fleet would read as a memory regression.

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "constraint/spectral_bound.h"
#include "core/continuous_learner.h"
#include "data/gene_network.h"
#include "metrics/structure_metrics.h"
#include "runtime/fleet_scheduler.h"
#include "timed.h"

namespace lbench {
namespace {

constexpr int kWorkers = 3;
constexpr int kOutstanding = 6;
constexpr int kWaveJobs = 2000;
constexpr double kSloMs = 50;
constexpr int kProbeFits = 40;
constexpr int kWindows = 10;  // tail latency: median of per-window p99s

struct Inputs {
  std::vector<std::shared_ptr<const least::DenseMatrix>> x;
  std::vector<least::DenseMatrix> truth;
  least::LearnOptions options;
};

struct Program {
  std::unique_ptr<least::ThreadPool> pool;
  std::vector<std::shared_ptr<const least::DataSource>> sources;
};

/// What the bench saw of one job, plus what it copied from the job's record
/// before the wave's scheduler was released.
struct JobSample {
  int dataset = 0;
  bool traced = false;
  int64_t enqueue_ns = 0;
  int64_t settle_ns = 0;
  int64_t root_span = 0;
  int64_t run_span = 0;
  bool succeeded = false;
  double queue_ms = 0, run_ms = 0, fit_ms = 0, inner_iters = 0, f1 = 0;
};

/// A settled job kept whole for the constraint probe.
struct ProbeJob {
  int dataset = 0;
  least::LearnOptions options;
  least::DenseMatrix raw_weights;
};

struct Phase {
  std::vector<JobSample> jobs;
  std::vector<ProbeJob> probes;
  double elapsed_s = 0;
  double pool_steals = 0;
  double pool_tasks = 0;
  LayerClock prepare, gather;
};

/// Runs one wave (at most kWaveJobs jobs, stopping early at `stop_ns`) of
/// the closed loop on a fresh scheduler and copies what the summary needs
/// out of its records. Returns the last settle time.
int64_t RunWave(const Inputs& in, const Program& program, uint64_t fleet_seed,
                int64_t stop_ns, SpanRecorder* recorder, Phase* phase) {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<int64_t, int64_t>> settled;  // job id, settle ns
  least::FleetOptions fleet;
  fleet.seed = fleet_seed;
  least::FleetScheduler scheduler(program.pool.get(), fleet);
  scheduler.set_progress_callback([&](const least::JobRecord& record) {
    if (record.state == least::JobState::kPending ||
        record.state == least::JobState::kRunning) {
      return;
    }
    const int64_t now = NowNs();
    {
      std::lock_guard<std::mutex> lock(mu);
      settled.emplace_back(record.job_id, now);
    }
    cv.notify_one();
  });

  const size_t first = phase->jobs.size();
  int outstanding = 0;
  int64_t last_settle = 0;
  while (true) {
    while (outstanding < kOutstanding && NowNs() < stop_ns &&
           phase->jobs.size() - first < kWaveJobs) {
      // Traced runs decorate every even job; the odd ones stay plain, so
      // both halves see the same load and their difference is the
      // tracing overhead.
      JobSample sample;
      sample.dataset =
          static_cast<int>(phase->jobs.size() % program.sources.size());
      sample.traced = recorder != nullptr && phase->jobs.size() % 2 == 0;
      least::LearnJob job;
      job.algorithm = least::Algorithm::kLeastDense;
      job.options = in.options;
      job.data = program.sources[sample.dataset];
      if (sample.traced) {
        sample.root_span = recorder->NewId();
        sample.run_span = recorder->NewId();
        job.data = std::make_shared<TimedSource>(
            job.data, &phase->prepare, &phase->gather,
            SpanContext{recorder, static_cast<int64_t>(phase->jobs.size()),
                        sample.run_span});
      }
      sample.enqueue_ns = NowNs();
      if (!scheduler.TryEnqueue(std::move(job)).ok()) break;  // unbounded
      phase->jobs.push_back(sample);
      ++outstanding;
    }
    if (outstanding == 0) break;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !settled.empty(); });
    while (!settled.empty()) {
      const auto [id, ns] = settled.front();
      settled.pop_front();
      phase->jobs[first + static_cast<size_t>(id)].settle_ns = ns;
      last_settle = std::max(last_settle, ns);
      --outstanding;
    }
  }
  scheduler.Wait();

  for (size_t j = first; j < phase->jobs.size(); ++j) {
    JobSample& s = phase->jobs[j];
    const least::JobRecord& record =
        scheduler.record(static_cast<int64_t>(j - first));
    s.succeeded = record.state == least::JobState::kSucceeded;
    s.queue_ms = record.queue_ms;
    s.run_ms = record.run_ms;
    s.fit_ms = record.outcome.seconds * 1e3;
    s.inner_iters = static_cast<double>(record.outcome.inner_iterations);
    if (s.succeeded) {
      s.f1 = least::EvaluateStructure(in.truth[s.dataset],
                                      record.outcome.weights)
                 .f1;
      if (phase->probes.size() < kProbeFits) {
        phase->probes.push_back(
            {s.dataset, record.options, record.outcome.raw_weights});
      }
    }
  }
  return last_settle;
}

/// Runs waves of the closed loop for `seconds`.
std::unique_ptr<Phase> RunPhase(const Inputs& in, const Program& program,
                                uint64_t seed, double seconds,
                                SpanRecorder* recorder) {
  auto phase = std::make_unique<Phase>();
  const double steals0 = RegistryCounter("pool.steals");
  const double tasks0 = RegistryCounter("pool.tasks_scheduled");
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  int64_t last_settle = start;
  for (uint64_t wave = 0; NowNs() < stop; ++wave) {
    last_settle = std::max(
        last_settle, RunWave(in, program, InputSeed(seed, wave), stop,
                             recorder, phase.get()));
  }
  phase->elapsed_s = static_cast<double>(last_settle - start) / 1e9;
  phase->pool_steals = RegistryCounter("pool.steals") - steals0;
  phase->pool_tasks = RegistryCounter("pool.tasks_scheduled") - tasks0;
  return phase;
}

struct Summary {
  std::vector<int64_t> enqueue_ns;
  std::vector<double> latency_ms, queue_ms, run_ms, settle_overhead_ms, fit_ms;
  std::vector<double> f1, inner_iters;
  int64_t attempted = 0, failed = 0, slo_met = 0;
};

/// Summary over the phase's jobs whose `traced` flag matches `traced`, or
/// over every job when `all`.
Summary Summarize(const Phase& phase, bool all, bool traced) {
  Summary s;
  for (const JobSample& job : phase.jobs) {
    if (!all && job.traced != traced) continue;
    ++s.attempted;
    if (!job.succeeded) {
      ++s.failed;
      continue;
    }
    const double latency =
        static_cast<double>(job.settle_ns - job.enqueue_ns) / 1e6;
    s.enqueue_ns.push_back(job.enqueue_ns);
    s.latency_ms.push_back(latency);
    if (latency <= kSloMs) ++s.slo_met;
    s.queue_ms.push_back(job.queue_ms);
    s.run_ms.push_back(job.run_ms);
    s.fit_ms.push_back(job.fit_ms);
    s.settle_overhead_ms.push_back(job.run_ms - job.fit_ms);
    s.inner_iters.push_back(job.inner_iters);
    s.f1.push_back(job.f1);
  }
  return s;
}

/// Synthesizes each traced job's runtime spans from its scheduler record:
/// root (enqueue → settle seen), queue wait, run, and the learner's fit
/// (placed right after the job's last data-plane call, which is where the
/// runtime starts it).
void RecordJobSpans(const Phase& phase, SpanRecorder* recorder) {
  std::vector<int64_t> data_end(phase.jobs.size(), 0);
  for (const Span& span : recorder->spans()) {
    if (span.request >= 0 &&
        span.request < static_cast<int64_t>(data_end.size())) {
      data_end[span.request] = std::max(data_end[span.request], span.end_ns);
    }
  }
  for (size_t j = 0; j < phase.jobs.size(); ++j) {
    const JobSample& job = phase.jobs[j];
    if (!job.traced) continue;
    const int64_t request = static_cast<int64_t>(j);
    const int64_t run_start =
        job.enqueue_ns + static_cast<int64_t>(job.queue_ms * 1e6);
    const int64_t run_end = run_start + static_cast<int64_t>(job.run_ms * 1e6);
    recorder->Record(job.root_span, "op", job.enqueue_ns, job.settle_ns, 0,
                     request);
    recorder->Add("runtime.queue_wait", job.enqueue_ns, run_start,
                  job.root_span, request);
    recorder->Record(job.run_span, "runtime.run", run_start, run_end,
                     job.root_span, request);
    const int64_t fit_start = std::max(run_start, data_end[j]);
    const int64_t fit_end = std::min(
        run_end, fit_start + static_cast<int64_t>(job.fit_ms * 1e6));
    recorder->Add("core.learner.fit", fit_start, fit_end, job.run_span,
                  request);
  }
}

}  // namespace

void RunFleetSmall(const Options& options, Report* report) {
  const int datasets = options.smoke ? 20 : 200;
  Inputs in;
  in.options.max_outer_iterations = 12;
  in.options.max_inner_iterations = 80;
  in.options.tolerance = 1e-6;
  for (int i = 0; i < datasets; ++i) {
    least::GeneNetworkConfig config;
    config.num_genes = 12;
    config.num_edges = 20;
    config.num_samples = 120;
    config.seed = InputSeed(options.seed, static_cast<uint64_t>(i));
    least::GeneNetworkInstance net = least::MakeGeneNetwork(config);
    in.x.push_back(
        std::make_shared<const least::DenseMatrix>(std::move(net.x)));
    in.truth.push_back(std::move(net.w_true));
  }
  report->Describe(std::to_string(datasets) +
                   " gene networks (12 genes, 120 samples), least-dense "
                   "outer 12 x inner 80, " +
                   std::to_string(kWorkers) + " workers, " +
                   std::to_string(kOutstanding) + " outstanding, waves of " +
                   std::to_string(kWaveJobs) + " jobs");

  std::unique_ptr<Program> program =
      TimedSetup(options.smoke ? 1 : 31, report, [&] {
        auto p = std::make_unique<Program>();
        p->pool = std::make_unique<least::ThreadPool>(kWorkers);
        for (int i = 0; i < datasets; ++i) {
          p->sources.push_back(least::MakeDenseSource(in.x[i]));
        }
        return p;
      });

  RunPhase(in, *program, InputSeed(options.seed, 1000),
           options.smoke ? 0.2 : 1, nullptr);  // warm-up
  SpanRecorder* recorder = options.trace ? &report->spans() : nullptr;
  std::unique_ptr<Phase> phase = RunPhase(
      in, *program, InputSeed(options.seed, 2000), options.seconds, recorder);
  const Summary s = Summarize(*phase, true, false);
  report->Ops(s.attempted, s.failed);
  const int64_t n = static_cast<int64_t>(s.latency_ms.size());
  report->Metric("jobs_per_s",
                 phase->elapsed_s > 0 ? static_cast<double>(n) /
                                            phase->elapsed_s
                                      : 0,
                 n);
  report->Metric("job_latency_p50_ms", Percentile(s.latency_ms, 0.50), n);
  report->Metric("job_latency_p99_ms",
                 WindowedPercentile(s.enqueue_ns, s.latency_ms, 0.99,
                                    kWindows),
                 n);
  report->Metric("slo_met_ratio",
                 static_cast<double>(s.slo_met) /
                     static_cast<double>(std::max<int64_t>(1, s.attempted)),
                 s.attempted);
  report->Metric("f1", Mean(s.f1), static_cast<int64_t>(s.f1.size()));
  report->Check(s.failed == 0, "fleet_small: every job succeeded");
  report->Check(n > 0, "fleet_small: jobs settled");
  report->Check(Mean(s.f1) >= (options.smoke ? 0.9 : 0.95),
                "fleet_small: mean f1 above its floor");
  report->Metric("linalg.gemm_gflops", GemmGflops(120, 12), 1);
  if (!options.trace) return;

  // Per-layer numbers come from the traced jobs; the plain ones are the
  // baseline for the overhead.
  const Summary t = Summarize(*phase, false, true);
  const Summary u = Summarize(*phase, false, false);
  RecordJobSpans(*phase, recorder);
  const double jobs = static_cast<double>(std::max<int64_t>(1, s.attempted));
  const double traced_jobs =
      static_cast<double>(std::max<int64_t>(1, t.attempted));
  const int64_t tn = static_cast<int64_t>(t.latency_ms.size());
  report->Metric("runtime.queue_wait_ms_p50", Percentile(t.queue_ms, 0.5), tn);
  report->Metric("runtime.queue_wait_ms_p99", Percentile(t.queue_ms, 0.99), tn);
  report->Metric("runtime.settle_overhead_ms_mean", Mean(t.settle_overhead_ms),
                 tn);
  report->Metric("runtime.pool_steals", phase->pool_steals / jobs, n);
  report->Metric("runtime.tasks_scheduled", phase->pool_tasks / jobs, n);
  report->Metric("core.learner.fit_ms_mean", Mean(t.fit_ms), tn);
  report->Metric("core.learner.inner_iters", Mean(t.inner_iters), tn);
  report->Metric("core.source.prepare_ms",
                 phase->prepare.ms() /
                     std::max<double>(1, phase->prepare.calls.load()),
                 phase->prepare.calls.load());
  report->Metric("core.source.gather_calls",
                 static_cast<double>(phase->gather.calls.load()) / traced_jobs,
                 tn);
  report->Metric("core.source.gather_ms", phase->gather.ms() / traced_jobs, tn);
  const double fit_total_ms = Mean(t.fit_ms) * static_cast<double>(tn);
  report->Metric("core.source.data_share",
                 fit_total_ms > 0 ? phase->gather.ms() / fit_total_ms : 0, tn);
  report->Metric("obs.trace_overhead_pct",
                 100.0 * (Mean(t.run_ms) / Mean(u.run_ms) - 1), tn);

  // Constraint probe: the runtime builds its own constraint, so refit a
  // sample of the settled jobs directly with a timed constraint and a timed
  // source. Same options and seed as the job, so the weights must match the
  // scheduler's bit for bit (the non-perturbation check).
  LayerClock constraint, prepare, gather;
  double probe_fit_ms = 0, probe_iters = 0;
  for (const ProbeJob& job : phase->probes) {
    least::ContinuousLearner learner(
        std::make_unique<TimedConstraint>(
            std::make_unique<least::SpectralBoundConstraint>(
                least::SpectralBoundOptions{.k = job.options.k,
                                            .alpha = job.options.alpha}),
            &constraint, SpanContext{}),
        job.options);
    const TimedSource source(program->sources[job.dataset], &prepare, &gather,
                             SpanContext{});
    const auto t0 = std::chrono::steady_clock::now();
    const least::LearnResult fit = learner.Fit(source);
    probe_fit_ms += SecondsSince(t0) * 1e3;
    probe_iters += static_cast<double>(fit.inner_iterations);
    report->Check(fit.status.ok() && SameBits(fit.raw_weights, job.raw_weights),
                  "fleet_small: decorated refit bitwise equals the job");
  }
  const int64_t probes = static_cast<int64_t>(phase->probes.size());
  if (probes > 0) {
    report->Metric("constraint.evals",
                   static_cast<double>(constraint.calls.load()) /
                       static_cast<double>(probes),
                   probes);
    report->Metric("constraint.eval_ms_mean",
                   constraint.ms() /
                       std::max<double>(1, constraint.calls.load()),
                   constraint.calls.load());
    report->Metric("constraint.share", constraint.ms() / probe_fit_ms, probes);
    const double step_ms =
        probe_fit_ms - constraint.ms() - gather.ms() - prepare.ms();
    report->Metric("core.learner.step_ms",
                   step_ms / std::max(1.0, probe_iters), probes);
  }
}

}  // namespace lbench
