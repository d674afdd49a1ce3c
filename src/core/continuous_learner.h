/// \file continuous_learner.h
/// \brief Dense augmented-Lagrangian structure learner (paper Fig. 3).
///
/// Runs the augmented-Lagrangian driver shared with LEAST-SP
/// (`core/augmented_lagrangian.h`, which also documents the deliberate
/// deviations from the paper's pseudocode) over a dense W, with c any
/// pluggable `AcyclicityConstraint`. With the spectral bound this is LEAST
/// (dense, the LEAST-TF analog); with the expm-trace constraint it is the
/// NOTEARS baseline under an identical optimization harness, which is
/// exactly the fair-comparison setup of the paper's Section V.

#pragma once

#include <functional>
#include <memory>

#include "constraint/acyclicity_constraint.h"
#include "core/data_source.h"
#include "core/learn_options.h"
#include "core/least_squares_loss.h"
#include "core/train_state.h"

namespace least {

/// \brief Augmented-Lagrangian learner over a dense W.
///
/// Thread safety: `Fit` is `const` and reentrant. All per-run mutable state
/// (the optimizer's Adam moments, the RNG, the loss scratch buffers, W
/// itself) lives on the `Fit` stack, and `AcyclicityConstraint::Evaluate`
/// implementations are stateless, so one learner may serve concurrent `Fit`
/// calls from multiple fleet-scheduler threads; identical options + data
/// yield bitwise-identical results regardless of interleaving. The
/// setters, `set_snapshot_callback` included, are NOT synchronized (see
/// `TrainHooks`).
class ContinuousLearner : public TrainHooks {
 public:
  /// Called at the end of every outer round with the current raw W and the
  /// constraint value; used by the evaluation harness to snapshot W at
  /// tolerance crossings (the paper's ε grid search).
  using SnapshotCallback =
      std::function<void(int outer, const DenseMatrix& w, double constraint)>;

  /// Takes ownership of `constraint`.
  ContinuousLearner(std::unique_ptr<AcyclicityConstraint> constraint,
                    const LearnOptions& options);

  void set_snapshot_callback(SnapshotCallback cb) {
    snapshot_ = std::move(cb);
  }

  /// Learns a weighted DAG from the n x d sample matrix.
  /// Fails with `kInvalidArgument` on shape errors; returns
  /// `kNotConverged` (with the best W found) when the constraint never
  /// reaches the tolerance within the outer-iteration budget, and
  /// `kCancelled` (again with the current W, plus a resumable
  /// `LearnResult::train_state`) when the stop predicate fires.
  LearnResult Fit(const DenseMatrix& x) const;

  /// Learns from a `DataSource`: the source is `Prepare()`d and its dense
  /// materialization fitted. Preparation/materialization failures (an
  /// unreadable or malformed lazy dataset) surface as the result's status.
  /// The dense handle is held for the duration of the fit.
  LearnResult Fit(const DataSource& data) const;

  /// Continues an interrupted run from `state` (a `train_state` captured by
  /// a cancelled `Fit`, or a periodic checkpoint). Given the same options
  /// and the same `x` the original run saw, the continuation is
  /// bit-identical to the uninterrupted run — same final weights, counts,
  /// and status. A state of the wrong kind or shape fails with
  /// `kInvalidArgument`.
  LearnResult ResumeFit(const TrainState& state, const DenseMatrix& x) const;

  /// `ResumeFit` over a `DataSource` (see the `Fit` overload above).
  LearnResult ResumeFit(const TrainState& state, const DataSource& data) const;

  const AcyclicityConstraint& constraint() const { return *constraint_; }
  const LearnOptions& options() const { return options_; }

 private:
  LearnResult FitInternal(const DenseMatrix& x, const TrainState* resume) const;
  LearnResult FitInternal(const DataSource& data,
                          const TrainState* resume) const;

  std::unique_ptr<AcyclicityConstraint> constraint_;
  LearnOptions options_;
  SnapshotCallback snapshot_;
};

}  // namespace least
