/// \file dense_fit.cc
/// \brief `dense_fit`: the paper's core claim — one full-batch LEAST fit
/// (dense spectral bound) of an ER-2 graph with d = 200 and n = 2000
/// Gaussian samples, on a 2-thread executor.
///
/// Kernel bound (gemm, the spectral bound and its gradient, Adam); it
/// bypasses the runtime, the data plane and the net. Every fit of one
/// input must return the same weights bit for bit, traced or not.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench.h"
#include "constraint/spectral_bound.h"
#include "core/continuous_learner.h"
#include "data/benchmark_data.h"
#include "metrics/structure_metrics.h"
#include "runtime/thread_pool.h"
#include "timed.h"

namespace lbench {
namespace {

constexpr int kExecutorThreads = 2;
constexpr double kSloMs = 10000;

struct Program {
  std::unique_ptr<least::ThreadPool> executor;
  std::shared_ptr<const least::DataSource> source;
  std::unique_ptr<least::ContinuousLearner> learner;

  ~Program() {
    if (least::GetParallelExecutor() == executor.get()) {
      least::SetParallelExecutor(nullptr);
    }
  }
};


std::unique_ptr<least::AcyclicityConstraint> Bound(
    const least::LearnOptions& options) {
  return std::make_unique<least::SpectralBoundConstraint>(
      least::SpectralBoundOptions{.k = options.k, .alpha = options.alpha});
}

}  // namespace

void RunDenseFit(const Options& options, Report* report) {
  least::BenchmarkConfig config;
  config.d = options.smoke ? 40 : 200;
  config.n = options.smoke ? 400 : 2000;
  config.seed = InputSeed(options.seed, 0);
  const least::BenchmarkInstance instance =
      least::MakeBenchmarkInstance(config);
  auto x = std::make_shared<const least::DenseMatrix>(instance.x);

  least::LearnOptions learn;
  learn.learning_rate = 0.02;
  learn.max_outer_iterations = 25;
  learn.max_inner_iterations = options.smoke ? 100 : 300;
  learn.lambda1 = 0.1;
  // No early exit from the inner loop: every fit runs 3 rounds x 300 steps
  // whatever the seed, so fit time measures the code, not the input.
  learn.inner_rtol = 0;
  learn.seed = InputSeed(options.seed, 1);
  report->Describe("ER-2, d=" + std::to_string(config.d) +
                   ", n=" + std::to_string(config.n) +
                   ", Gaussian noise; least-dense full batch, lr 0.02, outer "
                   "25 x inner " +
                   std::to_string(learn.max_inner_iterations) +
                   ", lambda 0.1; " + std::to_string(kExecutorThreads) +
                   "-thread executor");

  std::unique_ptr<Program> program =
      TimedSetup(options.smoke ? 1 : 31, report, [&] {
        auto p = std::make_unique<Program>();
        p->executor = std::make_unique<least::ThreadPool>(kExecutorThreads);
        least::SetParallelExecutor(p->executor.get());
        p->source = least::MakeDenseSource(x);
        p->learner =
            std::make_unique<least::ContinuousLearner>(Bound(learn), learn);
        return p;
      });
  report->Check(program->source->Prepare().ok(), "dense_fit: source prepared");

  // Warm-up: also the reference every later fit must equal bit for bit.
  const least::LearnResult reference = program->learner->Fit(*program->source);
  auto check_fit = [&](const least::LearnResult& fit, const char* what) {
    report->Ops(1, fit.status.ok() ? 0 : 1);
    report->Check(fit.status.ok(), std::string("dense_fit: ") + what + " ok");
    report->Check(SameBits(fit.raw_weights, reference.raw_weights),
                  std::string("dense_fit: ") + what +
                      " raw weights bitwise equal the warm-up fit");
  };
  check_fit(reference, "warm-up fit");
  const double f1 = least::EvaluateStructure(instance.w_true,
                                             reference.weights)
                        .f1;

  // The traced learner: a timed constraint and a timed source around the
  // same computation, one span tree per fit (op > core.learner.fit >
  // constraint / source).
  SpanRecorder* recorder = &report->spans();
  LayerClock constraint, prepare, gather;
  auto timed_constraint = std::make_unique<TimedConstraint>(
      Bound(learn), &constraint, SpanContext{});
  TimedConstraint* constraint_hook = timed_constraint.get();
  const least::ContinuousLearner traced_learner(std::move(timed_constraint),
                                                learn);
  TimedSource timed_source(program->source, &prepare, &gather, SpanContext{});
  double iters = 0;
  auto plain_fit = [&](int) {
    check_fit(program->learner->Fit(*program->source), "fit");
  };
  auto traced_fit = [&](int i) {
    SpanRecorder::Scope op(recorder, "op", 0, i);
    SpanRecorder::Scope fit_span(recorder, "core.learner.fit", op.id(), i);
    const SpanContext context{recorder, i, fit_span.id()};
    constraint_hook->set_context(context);
    timed_source.set_context(context);
    const least::LearnResult fit = traced_learner.Fit(timed_source);
    check_fit(fit, "traced fit");
    iters += static_cast<double>(fit.inner_iterations);
  };
  std::vector<double> plain_ms, traced_ms;
  if (options.trace) {
    std::tie(plain_ms, traced_ms) =
        InterleavedFits(options.seconds, options.smoke ? 1 : 2, plain_fit,
                        traced_fit);
  } else {
    plain_ms = TimedFits(options.seconds, options.smoke ? 1 : 3, plain_fit);
  }

  const int64_t n = static_cast<int64_t>(plain_ms.size());
  int64_t met = 0;
  for (const double ms : plain_ms) met += ms <= kSloMs ? 1 : 0;
  report->Metric("jobs_per_s", 1e3 / Mean(plain_ms), n);
  report->Metric("job_latency_p50_ms", Percentile(plain_ms, 0.5), n);
  report->Metric("job_latency_p99_ms", Percentile(plain_ms, 0.99), n);
  report->Metric("slo_met_ratio", static_cast<double>(met) / n, n);
  report->Metric("f1", f1, 1);
  report->Check(f1 >= (options.smoke ? 0.5 : 0.7),
                "dense_fit: f1 above its floor");
  report->Metric("linalg.gemm_gflops", GemmGflops(config.n, config.d), 1);
  if (!options.trace) return;

  const double fits = static_cast<double>(traced_ms.size());
  const int64_t tn = static_cast<int64_t>(traced_ms.size());
  const double fit_ms = Mean(traced_ms);
  report->Metric("core.learner.fit_ms_mean", fit_ms, tn);
  report->Metric("core.learner.inner_iters", iters / fits, tn);
  const double step_ms =
      fit_ms * fits - constraint.ms() - gather.ms() - prepare.ms();
  report->Metric("core.learner.step_ms", step_ms / std::max(1.0, iters), tn);
  report->Metric("core.source.prepare_ms",
                 prepare.ms() / std::max<double>(1, prepare.calls.load()),
                 prepare.calls.load());
  report->Metric("core.source.gather_calls",
                 static_cast<double>(gather.calls.load()) / fits, tn);
  report->Metric("core.source.gather_ms", gather.ms() / fits, tn);
  report->Metric("core.source.data_share", gather.ms() / (fit_ms * fits), tn);
  report->Metric("constraint.evals",
                 static_cast<double>(constraint.calls.load()) / fits, tn);
  report->Metric("constraint.eval_ms_mean",
                 constraint.ms() / std::max<double>(1, constraint.calls.load()),
                 constraint.calls.load());
  report->Metric("constraint.share", constraint.ms() / (fit_ms * fits), tn);
  report->Metric("obs.trace_overhead_pct",
                 100.0 * (Median(traced_ms) / Median(plain_ms) - 1), tn);
}

}  // namespace lbench
