// Cancellation-sweep harness for mid-run checkpoint/resume — the headline
// guarantee of the training-state subsystem: for each learner, cancel the
// run at EVERY cooperative cancellation point, persist the captured
// TrainState through the format-v2 serializer, resume from the loaded
// state, and assert the final weights are bit-identical to the
// uninterrupted run. Also covers periodic checkpoint sinks, resuming on a
// lazy source that has not been prepared yet, and the fleet-level wiring:
// the resume-from-checkpoint job mode.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/least.h"
#include "core/least_sparse.h"
#include "data/benchmark_data.h"
#include "io/model_serializer.h"
#include "runtime/fleet_scheduler.h"
#include "runtime/thread_pool.h"
#include "sem/lsem_sampler.h"

namespace least {
namespace {

// Safety bound on the sweep: with the tiny budgets below, every run has far
// fewer cancellation points than this; hitting it means polling broke.
constexpr int kMaxCancellationPoints = 10000;

void ExpectBitIdenticalDense(const DenseMatrix& a, const DenseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.size() * sizeof(double)),
            0);
}

void ExpectBitIdenticalSparse(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_TRUE(a.SamePattern(b));
  EXPECT_EQ(a.values(), b.values());
}

// Persists a captured state through the v2 serializer and hands back the
// loaded copy, so every resumption in the sweep exercises the on-disk form
// rather than the in-memory object.
std::shared_ptr<const TrainState> RoundTripState(const TrainState& state,
                                                 Algorithm algorithm,
                                                 const LearnOptions& options) {
  ModelArtifact artifact;
  artifact.name = "sweep";
  artifact.algorithm = algorithm;
  artifact.options = options;
  artifact.sparse = state.sparse;
  artifact.train_state = std::make_shared<TrainState>(state);
  Result<ModelArtifact> loaded = DeserializeModel(SerializeModel(artifact));
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (!loaded.ok()) return nullptr;
  EXPECT_NE(loaded.value().train_state, nullptr);
  return loaded.value().train_state;
}

struct SweepCoverage {
  int points = 0;            ///< distinct cancellation points exercised
  int boundary_points = 0;   ///< snapshots taken at outer-round tops
  int mid_round_points = 0;  ///< snapshots taken mid-inner-loop (Adam live)
};

// Sweeps the dense learner: for cancel_at = 0, 1, 2, ... install a stop
// predicate that fires at the cancel_at-th poll, resume from the captured
// state, and compare against the uninterrupted run.
SweepCoverage SweepDense(const DenseMatrix& x, const LearnOptions& opt,
                         Algorithm algorithm) {
  auto make = [&]() {
    return algorithm == Algorithm::kNotears ? MakeNotearsLearner(opt)
                                            : MakeLeastDenseLearner(opt);
  };
  const LearnResult baseline = make().Fit(x);
  EXPECT_EQ(baseline.train_state, nullptr);

  SweepCoverage coverage;
  for (int cancel_at = 0; cancel_at < kMaxCancellationPoints; ++cancel_at) {
    int polls = 0;
    ContinuousLearner learner = make();
    learner.set_stop_predicate([&polls, cancel_at]() {
      return polls++ >= cancel_at;
    });
    const LearnResult cancelled = learner.Fit(x);
    if (cancelled.status.code() != StatusCode::kCancelled) {
      // The predicate never fired before completion: every cancellation
      // point has been swept. The full run must match the baseline.
      EXPECT_EQ(cancelled.status.code(), baseline.status.code());
      ExpectBitIdenticalDense(cancelled.raw_weights, baseline.raw_weights);
      return coverage;
    }
    EXPECT_NE(cancelled.train_state, nullptr);
    if (cancelled.train_state == nullptr) return coverage;

    std::shared_ptr<const TrainState> state =
        RoundTripState(*cancelled.train_state, algorithm, opt);
    if (state == nullptr) return coverage;
    const LearnResult resumed = make().ResumeFit(*state, x);

    EXPECT_EQ(resumed.status.code(), baseline.status.code())
        << "cancel_at=" << cancel_at;
    ExpectBitIdenticalDense(resumed.raw_weights, baseline.raw_weights);
    ExpectBitIdenticalDense(resumed.weights, baseline.weights);
    EXPECT_EQ(resumed.outer_iterations, baseline.outer_iterations);
    EXPECT_EQ(resumed.inner_iterations, baseline.inner_iterations);
    EXPECT_EQ(resumed.trace.size(), baseline.trace.size());
    ++coverage.points;
    if (state->inner_steps > 0) {
      ++coverage.mid_round_points;
    } else {
      ++coverage.boundary_points;
    }
  }
  ADD_FAILURE() << "cancellation sweep did not terminate";
  return coverage;
}

TEST(CheckpointResume, DenseMiniBatchSweepIsBitIdentical) {
  BenchmarkConfig cfg;
  cfg.d = 6;
  cfg.seed = 3;
  const BenchmarkInstance inst = MakeBenchmarkInstance(cfg);
  LearnOptions opt;
  opt.max_outer_iterations = 5;
  opt.max_inner_iterations = 30;
  opt.inner_check_every = 5;
  opt.batch_size = 24;  // mini-batching: resume must restore the RNG stream
  opt.init_density = 0.2;
  opt.seed = 11;
  const SweepCoverage coverage =
      SweepDense(inst.x, opt, Algorithm::kLeastDense);
  // The sweep must have covered both round boundaries and mid-round steps.
  EXPECT_GE(coverage.points, 5);
  EXPECT_GE(coverage.boundary_points, 1);
  EXPECT_GE(coverage.mid_round_points, 1);
}

TEST(CheckpointResume, DenseFullBatchSweepIsBitIdentical) {
  BenchmarkConfig cfg;
  cfg.d = 6;
  cfg.seed = 5;
  const BenchmarkInstance inst = MakeBenchmarkInstance(cfg);
  LearnOptions opt;
  opt.max_outer_iterations = 5;
  opt.max_inner_iterations = 30;
  opt.inner_check_every = 5;
  opt.seed = 13;
  const SweepCoverage coverage =
      SweepDense(inst.x, opt, Algorithm::kLeastDense);
  EXPECT_GE(coverage.points, 3);
}

TEST(CheckpointResume, NotearsSweepIsBitIdentical) {
  BenchmarkConfig cfg;
  cfg.d = 5;
  cfg.seed = 7;
  const BenchmarkInstance inst = MakeBenchmarkInstance(cfg);
  LearnOptions opt;
  opt.max_outer_iterations = 4;
  opt.max_inner_iterations = 20;
  opt.inner_check_every = 5;
  opt.seed = 17;
  const SweepCoverage coverage = SweepDense(inst.x, opt, Algorithm::kNotears);
  EXPECT_GE(coverage.points, 3);
}

TEST(CheckpointResume, SparseSweepIsBitIdentical) {
  DenseMatrix w_true(8, 8);
  w_true(0, 1) = 1.5;
  w_true(1, 2) = -1.2;
  w_true(2, 3) = 1.0;
  w_true(4, 5) = 1.8;
  Rng rng(9);
  const DenseMatrix x = SampleLsem(w_true, 240, {}, rng).value();
  LearnOptions opt;
  opt.max_outer_iterations = 6;
  opt.max_inner_iterations = 30;
  opt.inner_check_every = 5;
  opt.batch_size = 32;
  opt.init_density = 0.05;
  opt.filter_threshold = 0.05;
  opt.seed = 19;
  const std::vector<std::pair<int, int>> candidates = {
      {0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}};

  auto make = [&]() {
    LeastSparseLearner learner(opt);
    learner.set_candidate_edges(candidates);
    return learner;
  };
  OwningDenseDataSource source(x);
  const SparseLearnResult baseline = make().Fit(source);
  EXPECT_EQ(baseline.train_state, nullptr);

  SweepCoverage coverage;
  for (int cancel_at = 0; cancel_at < kMaxCancellationPoints; ++cancel_at) {
    int polls = 0;
    LeastSparseLearner learner = make();
    learner.set_stop_predicate([&polls, cancel_at]() {
      return polls++ >= cancel_at;
    });
    const SparseLearnResult cancelled = learner.Fit(source);
    if (cancelled.status.code() != StatusCode::kCancelled) {
      EXPECT_EQ(cancelled.status.code(), baseline.status.code());
      ExpectBitIdenticalSparse(cancelled.raw_weights, baseline.raw_weights);
      break;
    }
    ASSERT_NE(cancelled.train_state, nullptr) << "cancel_at=" << cancel_at;

    std::shared_ptr<const TrainState> state =
        RoundTripState(*cancelled.train_state, Algorithm::kLeastSparse, opt);
    ASSERT_NE(state, nullptr);
    const SparseLearnResult resumed = make().ResumeFit(*state, source);

    EXPECT_EQ(resumed.status.code(), baseline.status.code())
        << "cancel_at=" << cancel_at;
    ExpectBitIdenticalSparse(resumed.raw_weights, baseline.raw_weights);
    ExpectBitIdenticalSparse(resumed.weights, baseline.weights);
    EXPECT_EQ(resumed.outer_iterations, baseline.outer_iterations);
    EXPECT_EQ(resumed.inner_iterations, baseline.inner_iterations);
    EXPECT_EQ(resumed.trace.size(), baseline.trace.size());
    ++coverage.points;
    if (state->inner_steps > 0) {
      ++coverage.mid_round_points;
    } else {
      ++coverage.boundary_points;
    }
  }
  EXPECT_GE(coverage.points, 5);
  EXPECT_GE(coverage.boundary_points, 1);
  EXPECT_GE(coverage.mid_round_points, 1);
}

TEST(CheckpointResume, ResumeRejectsWrongKindAndShape) {
  BenchmarkConfig cfg;
  cfg.d = 5;
  const BenchmarkInstance inst = MakeBenchmarkInstance(cfg);
  LearnOptions opt;
  opt.max_outer_iterations = 3;

  TrainState sparse_state;
  sparse_state.sparse = true;
  sparse_state.sparse_w = CsrMatrix(5, 5);
  const LearnResult r1 =
      MakeLeastDenseLearner(opt).ResumeFit(sparse_state, inst.x);
  EXPECT_EQ(r1.status.code(), StatusCode::kInvalidArgument);

  TrainState wrong_shape;
  wrong_shape.sparse = false;
  wrong_shape.dense_w = DenseMatrix(4, 4);
  const LearnResult r2 =
      MakeLeastDenseLearner(opt).ResumeFit(wrong_shape, inst.x);
  EXPECT_EQ(r2.status.code(), StatusCode::kInvalidArgument);

  TrainState dense_state;
  dense_state.sparse = false;
  dense_state.dense_w = DenseMatrix(5, 5);
  OwningDenseDataSource source(inst.x);
  const SparseLearnResult r3 =
      LeastSparseLearner(opt).ResumeFit(dense_state, source);
  EXPECT_EQ(r3.status.code(), StatusCode::kInvalidArgument);

  // A mid-round state whose Adam moments disagree with W must be refused,
  // not crash the process (the serializer's "never crash" contract).
  TrainState bad_adam;
  bad_adam.sparse = false;
  bad_adam.dense_w = DenseMatrix(5, 5);
  bad_adam.inner_steps = 3;
  bad_adam.adam_m.assign(7, 0.0);  // != 25 weights
  bad_adam.adam_v.assign(7, 0.0);
  const LearnResult r4 =
      MakeLeastDenseLearner(opt).ResumeFit(bad_adam, inst.x);
  EXPECT_EQ(r4.status.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointResume, PeriodicCheckpointCallbackStatesAreResumable) {
  // Every state handed to the periodic sink — not just cancellation
  // snapshots — must continue to the baseline result.
  BenchmarkConfig cfg;
  cfg.d = 6;
  cfg.seed = 21;
  const BenchmarkInstance inst = MakeBenchmarkInstance(cfg);
  LearnOptions opt;
  opt.max_outer_iterations = 6;
  opt.max_inner_iterations = 20;
  opt.batch_size = 16;
  opt.seed = 23;

  const LearnResult baseline = MakeLeastDenseLearner(opt).Fit(inst.x);

  std::vector<TrainState> checkpoints;
  ContinuousLearner learner = MakeLeastDenseLearner(opt);
  learner.set_checkpoint_callback(
      [&checkpoints](const TrainState& s) { checkpoints.push_back(s); },
      /*every_n_outer=*/2);
  const LearnResult full = learner.Fit(inst.x);
  ExpectBitIdenticalDense(full.raw_weights, baseline.raw_weights);
  ASSERT_GE(checkpoints.size(), 2u);
  for (const TrainState& state : checkpoints) {
    EXPECT_EQ(state.inner_steps, 0);  // sink fires at round boundaries
    const LearnResult resumed =
        MakeLeastDenseLearner(opt).ResumeFit(state, inst.x);
    EXPECT_EQ(resumed.status.code(), baseline.status.code());
    ExpectBitIdenticalDense(resumed.raw_weights, baseline.raw_weights);
    EXPECT_EQ(resumed.inner_iterations, baseline.inner_iterations);
  }
}

TEST(CheckpointResume, SparsePeriodicCheckpointStatesAreResumable) {
  // The sparse learner's periodic sink: states at the same round-top
  // cadence as the dense one, each continuing to the baseline result.
  BenchmarkConfig cfg;
  cfg.d = 6;
  cfg.seed = 21;
  const BenchmarkInstance inst = MakeBenchmarkInstance(cfg);
  LearnOptions opt;
  opt.max_outer_iterations = 6;
  opt.max_inner_iterations = 20;
  opt.batch_size = 16;
  opt.seed = 23;
  // No θ-cull and a zero tolerance: the bound never reaches 0, so the fit
  // runs all 6 rounds and the sink fires at the tops of rounds 3 and 5.
  opt.filter_threshold = 0.0;
  opt.tolerance = 0.0;
  std::vector<std::pair<int, int>> all_pairs;
  for (int i = 0; i < cfg.d; ++i) {
    for (int j = 0; j < cfg.d; ++j) {
      if (i != j) all_pairs.emplace_back(i, j);
    }
  }
  auto make = [&]() {
    LeastSparseLearner learner(opt);
    learner.set_candidate_edges(all_pairs);
    return learner;
  };
  OwningDenseDataSource source(inst.x);
  const SparseLearnResult baseline = make().Fit(source);

  std::vector<TrainState> checkpoints;
  LeastSparseLearner learner = make();
  learner.set_checkpoint_callback(
      [&checkpoints](const TrainState& s) { checkpoints.push_back(s); },
      /*every_n_outer=*/2);
  const SparseLearnResult full = learner.Fit(source);
  ExpectBitIdenticalSparse(full.raw_weights, baseline.raw_weights);
  ASSERT_GE(checkpoints.size(), 2u);
  for (size_t c = 0; c < checkpoints.size(); ++c) {
    const TrainState& state = checkpoints[c];
    EXPECT_TRUE(state.sparse);
    EXPECT_EQ(state.outer, 3 + 2 * static_cast<int>(c));  // every 2 rounds
    EXPECT_EQ(state.inner_steps, 0);  // sink fires at round boundaries
    const SparseLearnResult resumed = make().ResumeFit(state, source);
    EXPECT_EQ(resumed.status.code(), baseline.status.code());
    ExpectBitIdenticalSparse(resumed.raw_weights, baseline.raw_weights);
    ExpectBitIdenticalSparse(resumed.weights, baseline.weights);
    EXPECT_EQ(resumed.inner_iterations, baseline.inner_iterations);
  }
}

TEST(CheckpointResume, SparseResumeOnUnpreparedCsvSourceIsBitIdentical) {
  // A lazy CSV source reports its shape only once prepared, so the resume
  // must be validated against the prepared source: a cancelled fit resumes
  // on a fresh, never-prepared source for the same file.
  DenseMatrix w_true(10, 10);
  w_true(0, 1) = 1.5;
  w_true(1, 2) = -1.2;
  w_true(3, 4) = 1.0;
  w_true(6, 8) = 1.8;
  Rng rng(31);
  const DenseMatrix x = SampleLsem(w_true, 200, {}, rng).value();
  const std::string path =
      testing::TempDir() + "/least_ckpt_sparse_resume.csv";
  ASSERT_TRUE(WriteMatrixCsv(path, x).ok());
  CsvSourceOptions csv;
  csv.has_header = false;

  LearnOptions opt;
  opt.max_outer_iterations = 4;
  opt.max_inner_iterations = 30;
  opt.inner_check_every = 5;
  opt.batch_size = 32;
  opt.seed = 37;
  auto make = [&]() {
    LeastSparseLearner learner(opt);
    learner.set_candidate_edges({{0, 1}, {1, 2}, {3, 4}, {6, 8}, {8, 9}});
    return learner;
  };
  const SparseLearnResult baseline = make().Fit(*MakeCsvSource(path, csv));
  ASSERT_NE(baseline.status.code(), StatusCode::kInvalidArgument)
      << baseline.status.ToString();

  int polls = 0;
  LeastSparseLearner learner = make();
  learner.set_stop_predicate([&polls]() { return polls++ >= 2; });
  const SparseLearnResult cancelled = learner.Fit(*MakeCsvSource(path, csv));
  ASSERT_EQ(cancelled.status.code(), StatusCode::kCancelled);
  ASSERT_NE(cancelled.train_state, nullptr);
  EXPECT_EQ(cancelled.train_state->outer, 1);

  const SparseLearnResult resumed =
      make().ResumeFit(*cancelled.train_state, *MakeCsvSource(path, csv));
  ASSERT_EQ(resumed.status.code(), baseline.status.code())
      << resumed.status.ToString();
  ExpectBitIdenticalSparse(resumed.raw_weights, baseline.raw_weights);
  ExpectBitIdenticalSparse(resumed.weights, baseline.weights);
  EXPECT_EQ(resumed.outer_iterations, baseline.outer_iterations);
  EXPECT_EQ(resumed.inner_iterations, baseline.inner_iterations);
  std::remove(path.c_str());
}

TEST(CheckpointResume, FleetCheckpointSinkAndResumeJobMode) {
  // A settled job retires its job-<id>.lbnm file (ScanAndResume's invariant
  // is "files in the directory = unfinished jobs"), so the resumable
  // artifact is captured by cancelling the job after the periodic sink has
  // written at least once.
  BenchmarkConfig cfg;
  cfg.d = 8;
  cfg.seed = 27;
  const BenchmarkInstance inst = MakeBenchmarkInstance(cfg);
  auto data = MakeDenseSource(inst.x);

  LearnJob job;
  job.name = "resume-mode";
  job.algorithm = Algorithm::kLeastDense;
  job.data = data;
  job.options.max_outer_iterations = 60;
  job.options.max_inner_iterations = 20;
  job.options.batch_size = 16;
  job.options.tolerance = 0.0;  // never converges: runs the full budget

  const std::string dir = testing::TempDir() + "/least_fleet_ckpt";
  const std::string path = FleetScheduler::CheckpointPath(dir, 0);
  std::remove(path.c_str());
  (void)std::system(("mkdir -p " + dir).c_str());

  LearnOptions used_options;
  JobState settled_state = JobState::kPending;
  FitOutcome fleet_outcome;
  {
    ThreadPool pool(2);
    FleetOptions fleet;
    fleet.seed = 99;
    fleet.checkpoint_dir = dir;
    fleet.checkpoint_every_outer = 3;
    FleetScheduler scheduler(&pool, fleet);
    // Records of running jobs may be mid-update (see JobRecord's docs), so
    // the loop watches an atomic fed by the progress callback instead.
    std::atomic<bool> settled{false};
    scheduler.set_progress_callback([&settled](const JobRecord& record) {
      if (record.state != JobState::kPending &&
          record.state != JobState::kRunning) {
        settled.store(true);
      }
    });
    const int64_t id = scheduler.Enqueue(job);
    // Cancel once a periodic checkpoint landed (the enqueue stub is
    // overwritten by states with outer > 1); if the job wins the race the
    // test degenerates to a determinism check below, which must also hold.
    while (!settled.load()) {
      Result<ModelArtifact> peek = LoadModel(path);
      if (peek.ok() && peek.value().train_state != nullptr &&
          peek.value().train_state->outer > 1) {
        scheduler.Cancel(id);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    scheduler.Wait();
    settled_state = scheduler.record(id).state;
    used_options = scheduler.record(id).options;
    fleet_outcome = scheduler.record(id).outcome;
  }

  const FitOutcome uninterrupted =
      RunAlgorithm(Algorithm::kLeastDense, inst.x, used_options);
  if (settled_state != JobState::kCancelled) {
    // The job settled before the cancel landed; its checkpoint is retired
    // and its result must simply reproduce the uninterrupted run.
    ExpectBitIdenticalDense(fleet_outcome.raw_weights,
                            uninterrupted.raw_weights);
    return;
  }

  // The cancelled job left a loadable, resumable checkpoint carrying the
  // dataset spec and a mid-run state.
  Result<LearnJob> resumed_job = LearnJobFromCheckpoint(path, data);
  ASSERT_TRUE(resumed_job.ok()) << resumed_job.status().ToString();
  ASSERT_NE(resumed_job.value().resume_state, nullptr);
  EXPECT_GT(resumed_job.value().resume_state->outer, 1);

  // Resuming the checkpoint mid-run must land on the same final weights.
  FitOutcome resumed_outcome;
  {
    ThreadPool pool(2);
    FleetOptions fleet;
    fleet.reseed_jobs = false;  // the checkpointed options are authoritative
    FleetScheduler scheduler(&pool, fleet);
    const int64_t id = scheduler.Enqueue(std::move(resumed_job).value());
    scheduler.Wait();
    resumed_outcome = scheduler.record(id).outcome;
  }
  EXPECT_EQ(resumed_outcome.status.code(), uninterrupted.status.code());
  ExpectBitIdenticalDense(resumed_outcome.raw_weights,
                          uninterrupted.raw_weights);
  ExpectBitIdenticalDense(resumed_outcome.weights, uninterrupted.weights);
  EXPECT_EQ(resumed_outcome.inner_iterations,
            uninterrupted.inner_iterations);

  std::remove(path.c_str());
}

TEST(CheckpointResume, CancelledFleetJobResumesBitIdentically) {
  // Cancel a running fleet job, then continue it from the record's train
  // state; the continuation must match the uninterrupted run. The cancel
  // races the job on purpose — if the job wins, the test degenerates to a
  // determinism check, which must also hold.
  BenchmarkConfig cfg;
  cfg.d = 20;
  cfg.seed = 31;
  const BenchmarkInstance inst = MakeBenchmarkInstance(cfg);
  auto data = MakeDenseSource(inst.x);

  LearnJob job;
  job.name = "cancel-resume";
  job.algorithm = Algorithm::kLeastDense;
  job.data = data;
  job.options.max_outer_iterations = 40;
  job.options.max_inner_iterations = 100;
  job.options.inner_check_every = 2;  // frequent polls: fine-grained cancel
  job.options.tolerance = 0.0;

  ThreadPool pool(1);
  FleetScheduler scheduler(&pool);
  const int64_t id = scheduler.Enqueue(job);
  while (scheduler.record(id).state == JobState::kPending) {
  }
  scheduler.Cancel(id);
  scheduler.Wait();
  const JobRecord& record = scheduler.record(id);

  const LearnOptions used = record.options;
  const FitOutcome uninterrupted =
      RunAlgorithm(Algorithm::kLeastDense, inst.x, used);
  if (record.state != JobState::kCancelled) {
    // The job settled before the cancel landed: plain determinism check.
    ExpectBitIdenticalDense(record.outcome.raw_weights,
                            uninterrupted.raw_weights);
    return;
  }
  ASSERT_NE(record.outcome.train_state, nullptr);
  RunHooks hooks;
  hooks.resume = record.outcome.train_state.get();
  const FitOutcome resumed = RunAlgorithm(Algorithm::kLeastDense, inst.x,
                                          used, {}, std::move(hooks));
  EXPECT_EQ(resumed.status.code(), uninterrupted.status.code());
  ExpectBitIdenticalDense(resumed.raw_weights, uninterrupted.raw_weights);
  EXPECT_EQ(resumed.inner_iterations, uninterrupted.inner_iterations);
}

}  // namespace
}  // namespace least
