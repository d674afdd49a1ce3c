/// \file augmented_lagrangian.h
/// \brief The augmented-Lagrangian driver behind every continuous learner
/// (paper Fig. 3): LEAST dense, the NOTEARS baseline, and LEAST-SP.
///
/// Solves  min_W L(W, X) + (ρ/2)·c(W)² + η·c(W)  over outer rounds that
/// update η ← η + ρ·c(W*) and grow ρ under the NOTEARS progress rule. The
/// paper's LEAST-TF and LEAST-SP are this one algorithm over two storage
/// back ends, so the schedule lives here once and each learner supplies
/// only a parameter-storage policy: a dense `DenseMatrix` W
/// (`ContinuousLearner`) or CSR values on a fixed pattern
/// (`LeastSparseLearner`).
///
/// Deviations from the paper's pseudocode, both deliberate:
///  * Fig. 3 line 1 re-initializes W inside INNER; we warm-start W across
///    outer rounds (re-initializing would discard all progress — standard
///    augmented-Lagrangian practice and what every NOTEARS implementation
///    does).
///  * Fig. 3 line 7 reads (ρ + δ(W))∇δ; the derivative of
///    (ρ/2)δ² + ηδ is (ρδ + η)∇δ, which is what we use.
///
/// The driver owns the whole schedule: resume validation and restore, the
/// lr decay, Adam, the objective and its divergence exit, the θ-cull
/// warm-up gate, the inner convergence check, the stop polls and periodic
/// checkpoints (every poll site is a snapshot site from which `ResumeFit`
/// continues bit-identically), the trace, the stop test, the dual update,
/// and the result on every exit. Dispatch to the policy is static: the
/// driver adds no virtual call and no heap allocation to the inner loop.
/// A `Policy` owns W:
///   using Weights;                 `DenseMatrix` or `CsrMatrix`
///   static constexpr bool kSparse; its `TrainState::sparse` flag
///   static constexpr Weights TrainState::* kStored;  its field of a state
///   static constexpr const char* kWrongKind, kWrongShape, kWrongMoments;
///   static size_t NumParams(const Weights&);   Adam's vector length
///   Weights& weights();            d x d from construction on
///   std::string_view name() const;
///   std::span<double> params();  std::span<const double> gradient() const;
///   void Init(Rng&);               initial W
///   Status Step(double rho, double eta, Rng&, double* constraint,
///               double* loss);     sets *constraint even when it fails
///   void Project(bool cull);       after each Adam step
///   double EndRound();             the round's final constraint value
///   void Record(int outer, double constraint, TracePoint*);
///   void Prune();                  final τ-pruning, in place

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "core/learn_options.h"
#include "core/train_state.h"
#include "opt/adam.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace least {

/// Runs (or, given `resume`, continues) one augmented-Lagrangian fit over
/// `policy`. `stop` is polled at every round top and at the inner
/// convergence-check cadence; `checkpoint` receives a resumable state at
/// the top of a round whenever `checkpoint_every` rounds have completed.
template <typename Policy>
BasicLearnResult<typename Policy::Weights> RunAugmentedLagrangian(
    Policy& policy, const LearnOptions& opt,
    const TrainHooks::StopPredicate& stop,
    const TrainHooks::CheckpointCallback& checkpoint, int checkpoint_every,
    const TrainState* resume) {
  BasicLearnResult<typename Policy::Weights> result;
  const int d = policy.weights().rows();
  if (resume != nullptr) {
    const char* refusal = nullptr;
    const auto& stored = resume->*Policy::kStored;
    if (resume->sparse != Policy::kSparse) {
      refusal = Policy::kWrongKind;
    } else if (stored.rows() != d || stored.cols() != d) {
      refusal = Policy::kWrongShape;
    } else if (resume->outer < 1 || resume->inner_steps < 0) {
      refusal = "corrupt train state indices";
    } else if (resume->inner_steps > 0 &&
               (resume->adam_m.size() != Policy::NumParams(stored) ||
                resume->adam_m.size() != resume->adam_v.size())) {
      refusal = Policy::kWrongMoments;
    }
    if (refusal != nullptr) {
      result.status = Status::InvalidArgument(refusal);
      return result;
    }
  }

  Stopwatch watch;
  Rng rng(opt.seed);
  double rho = opt.rho_init;
  double eta = opt.eta_init;
  double constraint_value = 0.0;
  double prev_round_constraint = std::numeric_limits<double>::infinity();
  int start_outer = 1;
  double time_offset = 0.0;
  bool resume_mid_round = false;

  if (resume == nullptr) {
    policy.Init(rng);
  } else {
    // The RNG state is the linchpin: it encodes the init draws and every
    // mini-batch drawn so far, so the continuation consumes the exact
    // stream the uninterrupted run would have.
    if (!rng.LoadState(resume->rng_state)) {
      result.status = Status::InvalidArgument(
          "train state carries an unparsable RNG state");
      return result;
    }
    policy.weights() = resume->*Policy::kStored;
    rho = resume->rho;
    eta = resume->eta;
    prev_round_constraint = resume->prev_round_constraint;
    constraint_value = resume->constraint_value;
    start_outer = resume->outer;
    resume_mid_round = resume->inner_steps > 0;
    time_offset = resume->elapsed_seconds;
    result.trace = resume->trace;
    result.inner_iterations = resume->total_inner;
    result.outer_iterations = resume->outer - 1;
  }

  // Termination on h(W) when configured (the paper's benchmark rule) needs
  // the exact h, which only the dense storage tracks; the sparse learner's
  // Hutchinson estimate never gates the stop.
  const bool use_h_termination =
      !Policy::kSparse && opt.terminate_on_h && opt.track_exact_h;

  // One optimizer hoisted out of the round loop; each round re-initializes
  // it in place (same semantics as a fresh Adam, without the per-round
  // moment-buffer allocation once the high-water size is reached).
  Adam adam(0);

  auto stop_requested = [&stop]() { return stop != nullptr && stop(); };
  // `live` is the round's optimizer when the snapshot is taken mid-round;
  // at a round top (the defaults) the uninterrupted run builds a fresh Adam.
  auto capture = [&](int outer, int inner_steps = 0,
                     const Adam* live = nullptr,
                     double prev_objective =
                         std::numeric_limits<double>::infinity(),
                     double last_loss = 0.0) {
    auto state = std::make_shared<TrainState>();
    state->sparse = Policy::kSparse;
    (*state).*Policy::kStored = policy.weights();
    if (live != nullptr) {
      AdamState a = live->Snapshot();
      state->adam_m = std::move(a.m);
      state->adam_v = std::move(a.v);
      state->adam_t = a.t;
    }
    state->rho = rho;
    state->eta = eta;
    state->prev_round_constraint = prev_round_constraint;
    state->outer = outer;
    state->inner_steps = inner_steps;
    state->prev_objective = prev_objective;
    state->last_loss = last_loss;
    state->constraint_value = constraint_value;
    state->total_inner = result.inner_iterations;
    state->trace = result.trace;
    state->elapsed_seconds = time_offset + watch.Seconds();
    state->rng_state = rng.SaveState();
    return state;
  };
  // Every exit reports the raw W and its τ-pruned copy.
  auto finish = [&](Status status) {
    result.status = std::move(status);
    result.raw_weights = policy.weights();
    policy.Prune();
    result.weights = std::move(policy.weights());
    result.seconds = time_offset + watch.Seconds();
    return std::move(result);
  };
  auto cancelled = [&](int outer, std::shared_ptr<const TrainState> state) {
    result.train_state = std::move(state);
    result.constraint_value = constraint_value;
    return finish(Status::Cancelled("stop requested at outer round " +
                                    std::to_string(outer)));
  };

  for (int outer = start_outer; outer <= opt.max_outer_iterations; ++outer) {
    const bool resuming_here = resume_mid_round && outer == start_outer;
    if (!resuming_here) {
      if (stop_requested()) return cancelled(outer, capture(outer));
      if (checkpoint != nullptr && outer > 1 &&
          (outer - 1) % checkpoint_every == 0) {
        checkpoint(*capture(outer));
      }
    }
    const double lr = std::max(
        opt.learning_rate * std::pow(opt.lr_decay, outer - 1),
        0.05 * opt.learning_rate);
    adam.Reinitialize(Policy::NumParams(policy.weights()),
                      {.learning_rate = lr});
    double prev_objective = std::numeric_limits<double>::infinity();
    double last_loss = 0.0;
    int inner_done = 0;
    int inner_start = 1;
    if (resuming_here) {
      adam.Restore({resume->adam_m, resume->adam_v, resume->adam_t});
      prev_objective = resume->prev_objective;
      last_loss = resume->last_loss;
      inner_done = resume->inner_steps;
      inner_start = resume->inner_steps + 1;
    }
    for (int inner = inner_start; inner <= opt.max_inner_iterations; ++inner) {
      // Everything thresholded away (LEAST-SP's pattern only shrinks):
      // trivially acyclic.
      if (Policy::NumParams(policy.weights()) == 0) break;
      double loss_value = 0.0;
      const Status stepped =
          policy.Step(rho, eta, rng, &constraint_value, &loss_value);
      if (!stepped.ok()) {
        result.constraint_value = constraint_value;
        return finish(stepped);
      }
      const double objective = loss_value +
                               0.5 * rho * constraint_value * constraint_value +
                               eta * constraint_value;
      if (!std::isfinite(objective)) {
        return finish(Status::NotConverged(
            "objective diverged (non-finite) at outer round " +
            std::to_string(outer)));
      }
      adam.Step(policy.params(), policy.gradient());
      policy.Project(outer > opt.threshold_warmup_rounds);
      last_loss = loss_value;
      ++inner_done;
      if (inner % opt.inner_check_every == 0) {
        const double rel = std::fabs(objective - prev_objective) /
                           std::max(1.0, std::fabs(prev_objective));
        if (rel < opt.inner_rtol) break;
        prev_objective = objective;
        // Polled after the convergence bookkeeping so a snapshot taken here
        // re-enters the loop at inner + 1 with no replayed work.
        if (stop_requested()) {
          return cancelled(outer, capture(outer, inner, &adam, prev_objective,
                                          last_loss));
        }
      }
    }
    result.inner_iterations += inner_done;
    result.outer_iterations = outer;

    constraint_value = policy.EndRound();
    TracePoint tp{.outer = outer,
                  .seconds = time_offset + watch.Seconds(),
                  .constraint_value = constraint_value,
                  .loss = last_loss};
    policy.Record(outer, constraint_value, &tp);
    result.trace.push_back(tp);
    if (opt.verbose) {
      std::fprintf(stderr,
                   "[%.*s] outer=%d inner=%d constraint=%.3e loss=%.4f "
                   "rho=%.1e nnz=%lld t=%.1fs\n",
                   static_cast<int>(policy.name().size()),
                   policy.name().data(), outer, inner_done, constraint_value,
                   last_loss, rho, static_cast<long long>(tp.nnz),
                   tp.seconds);
    }

    const bool met = use_h_termination
                         ? (tp.h_value >= 0.0 && tp.h_value <= opt.tolerance)
                         : constraint_value <= opt.tolerance;
    if (met) {
      result.constraint_value = constraint_value;
      return finish(Status::Ok());
    }

    // Dual update, then penalty growth under the progress rule
    // (paper Fig. 3 lines 4–5 plus the standard NOTEARS refinement).
    eta += rho * constraint_value;
    if (constraint_value > opt.rho_progress_ratio * prev_round_constraint) {
      rho = std::min(rho * opt.rho_growth, opt.rho_max);
    }
    prev_round_constraint = constraint_value;
  }

  result.constraint_value = constraint_value;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3e", constraint_value);
  return finish(Status::NotConverged(
      std::string("constraint ") + buf + " above tolerance after " +
      std::to_string(result.outer_iterations) + " outer rounds"));
}

}  // namespace least
