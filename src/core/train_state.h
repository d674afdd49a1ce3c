/// \file train_state.h
/// \brief Mid-run optimizer state for checkpoint/resume of the learners.
///
/// A `TrainState` is everything a learner needs to continue an interrupted
/// `Fit` and reach a final W that is **bit-identical** to the uninterrupted
/// run: the working weights (dense or CSR), the Adam moments and step
/// counter, the augmented-Lagrangian ρ/η schedule, the loop position, the
/// accumulated trace, and the exact RNG stream position. States are captured
/// at the cooperative cancellation points (outer-round boundaries and the
/// inner convergence-check cadence), so resuming re-enters the optimization
/// at precisely the step where the stop predicate fired.
///
/// Contract: `ResumeFit` must be given the same `LearnOptions` and the same
/// data the original run used — the state stores *position*, not inputs.
/// States round-trip through `io/model_serializer.h` (format v2) so a
/// cancelled fleet job can resume in another process.

#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/learn_options.h"
#include "linalg/csr_matrix.h"
#include "linalg/dense_matrix.h"
#include "util/check.h"

namespace least {

/// \brief Serializable snapshot of an in-flight structure-learning run.
struct TrainState {
  /// Which learner family produced the state (selects the W field below).
  bool sparse = false;
  DenseMatrix dense_w;  ///< working W of the dense learners
  CsrMatrix sparse_w;   ///< working W (pattern + values) of LEAST-SP

  // Adam state of the current outer round (empty when the state was taken
  // at a round boundary, where the uninterrupted run builds a fresh Adam).
  std::vector<double> adam_m;
  std::vector<double> adam_v;
  int64_t adam_t = 0;

  // Augmented-Lagrangian schedule.
  double rho = 0.0;
  double eta = 0.0;
  double prev_round_constraint = std::numeric_limits<double>::infinity();

  // Loop position: `outer` is the round being executed (1-based);
  // `inner_steps` counts optimizer steps already taken inside it, 0 meaning
  // the state was captured at the top of the round.
  int outer = 1;
  int inner_steps = 0;
  double prev_objective = std::numeric_limits<double>::infinity();
  double last_loss = 0.0;
  double constraint_value = 0.0;
  long long total_inner = 0;  ///< inner steps accumulated by completed rounds

  std::vector<TracePoint> trace;  ///< per-round trace up to the snapshot
  double elapsed_seconds = 0.0;   ///< wall time consumed before the snapshot
  std::string rng_state;          ///< textual mt19937_64 state (Rng::SaveState)
};

/// \brief The cooperative-stop and periodic-checkpoint hooks both learners
/// expose; `core/augmented_lagrangian.h` polls them. The setters are NOT
/// synchronized — configure a learner before sharing it, and make the
/// callbacks themselves thread-safe when `Fit` runs concurrently.
class TrainHooks {
 public:
  /// Polled at outer-round boundaries and at the inner convergence-check
  /// cadence; returning true stops `Fit` early with `kCancelled` and a
  /// resumable `train_state` in the result. Used by the fleet runtime for
  /// cooperative job cancellation.
  using StopPredicate = std::function<bool()>;

  /// Receives a resumable `TrainState` at outer-round boundaries (see
  /// `set_checkpoint_callback`); the state may be serialized and later fed
  /// to `ResumeFit` — in this or another process.
  using CheckpointCallback = std::function<void(const TrainState&)>;

  void set_stop_predicate(StopPredicate stop) { stop_ = std::move(stop); }

  /// Installs a periodic checkpoint sink: invoked at the top of an outer
  /// round whenever `every_n_outer` rounds have completed since the last
  /// snapshot point. The callback runs on the `Fit` thread.
  void set_checkpoint_callback(CheckpointCallback cb, int every_n_outer = 1) {
    LEAST_CHECK(every_n_outer >= 1);
    checkpoint_ = std::move(cb);
    checkpoint_every_ = every_n_outer;
  }

 protected:
  StopPredicate stop_;
  CheckpointCallback checkpoint_;
  int checkpoint_every_ = 1;
};

}  // namespace least
