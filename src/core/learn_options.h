/// \file learn_options.h
/// \brief Options and result types shared by the continuous structure
/// learners (LEAST dense/sparse and the NOTEARS baseline).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/dense_matrix.h"
#include "util/status.h"

namespace least {

struct TrainState;  // core/train_state.h — mid-run checkpoint payload

/// \brief Hyper-parameters of the augmented-Lagrangian learner (Fig. 3 of
/// the paper). Defaults follow the paper's Section V settings.
struct LearnOptions {
  // --- Acyclicity bound (LEAST only; ignored by NOTEARS). ---
  int k = 5;           ///< tightening iterations of the spectral bound
  double alpha = 0.9;  ///< row/column balancing factor

  // --- Loss. ---
  double lambda1 = 0.1;  ///< L1 regularization weight λ

  // --- Optimizer (Adam, paper lr = 0.01). ---
  double learning_rate = 0.01;
  /// Geometric decay of the learning rate per outer round (floored at 5%
  /// of the base rate). Late rounds carry large penalty weights ρ; smaller
  /// steps lower Adam's oscillation floor on near-zero entries so the
  /// constraint can keep shrinking without eroding true edges.
  double lr_decay = 0.9;
  int batch_size = 0;  ///< B; 0 = full batch (paper: B = n on benchmarks)

  // --- Augmented Lagrangian schedule. ---
  double rho_init = 1.0;      ///< initial penalty ρ
  double eta_init = 1.0;      ///< initial multiplier η
  /// Penalty growth per outer round. The paper says "enlarge ρ by a small
  /// factor" with up to 1000 outer rounds; with the tighter outer budgets
  /// used here, the standard NOTEARS factor of 10 reaches the same terminal
  /// penalty in far fewer rounds.
  double rho_growth = 10.0;
  /// NOTEARS progress rule: ρ only grows when the constraint failed to
  /// shrink below `rho_progress_ratio` x its previous outer-round value.
  /// Prevents the dual variable from exploding on rounds where the
  /// constraint merely jitters around its floor.
  double rho_progress_ratio = 0.25;
  double rho_max = 1e16;      ///< penalty cap
  int max_outer_iterations = 100;  ///< T_o
  int max_inner_iterations = 200;  ///< T_i
  double tolerance = 1e-8;    ///< ε: stop when the constraint falls below

  // --- Inner-loop convergence. ---
  double inner_rtol = 1e-4;  ///< relative objective change declaring
                             ///< convergence of the INNER procedure
  int inner_check_every = 10;

  // --- Thresholding. ---
  /// θ: zero small |W| during optimization (paper Fig. 3 INNER line 9).
  /// The paper reports θ = 0 for the artificial benchmarks and 1e-3 at
  /// scale; this library defaults to 0.05 because with an Adam inner
  /// solver the θ-culling (after warmup, see below) is what lets the
  /// spectral bound reach exactly zero — parasite 2-cycle entries are
  /// removed instead of oscillating at the step-size floor. Benchmarks
  /// that replicate the paper's exact protocol override this to 0 and
  /// terminate on h(W) instead.
  double filter_threshold = 0.05;
  /// Outer rounds during which θ-filtering is suspended. Entries grow from
  /// zero one optimizer step at a time, so filtering from the very first
  /// round would strangle every edge whose per-step growth is below θ;
  /// after warmup, true edges sit far above θ while cycle-inducing
  /// parasites (bounded by the decayed step size) are culled for good.
  int threshold_warmup_rounds = 2;
  double prune_threshold = 0.3;   ///< τ: final pruning of the returned W

  // --- Sparse learner (LEAST-SP) only. ---
  double init_density = 1e-4;  ///< ζ: density of the random initial pattern

  // --- Misc. ---
  uint64_t seed = 1;
  bool verbose = false;
  /// Also evaluate the exact NOTEARS h(W) at the end of every outer round
  /// (dense learner only; used by the Fig. 4 correlation study and by the
  /// paper's modified termination rule).
  bool track_exact_h = false;
  /// Terminate when h(W) <= tolerance *instead of* testing the spectral
  /// bound (requires `track_exact_h`). This is the paper's Section V-A
  /// setup: "at the end of each outer loop, we also compute the value of
  /// h(W) and terminate when h(W) is smaller than the tolerance ε". It
  /// matters because δ̄ is non-Lipschitz in near-zero entries — a parasite
  /// 2-cycle edge at Adam's oscillation floor keeps δ̄ ~ |w|^{2(1-α)}
  /// large even when the graph is effectively acyclic, while h sees the
  /// *product* of the cycle weights and vanishes quadratically. The sparse
  /// learner instead relies on θ-thresholding + pattern compaction, which
  /// removes such entries outright (paper Section IV).
  bool terminate_on_h = false;
  /// Estimate h(W) via Hutchinson sparse trace estimation per outer round
  /// (sparse learner; powers the Fig. 5 curves).
  bool track_estimated_h = false;
};

/// One record per outer iteration, for convergence curves (Fig. 5) and the
/// δ̄-vs-h correlation study (Fig. 4 row 3).
struct TracePoint {
  int outer = 0;
  double seconds = 0.0;          ///< wall time since Fit() started
  double constraint_value = 0.0; ///< δ̄(W) (LEAST) or h(W) (NOTEARS)
  double loss = 0.0;             ///< data loss incl. L1 term
  double h_value = -1.0;         ///< exact/estimated h(W); -1 if untracked
  int64_t nnz = 0;               ///< support size of W at that point
};

/// \brief Outcome of a structure-learning run over weight storage `W`: a
/// `DenseMatrix` (`LearnResult`) or, for LEAST-SP, a `CsrMatrix`
/// (`SparseLearnResult`, whose pruned weights are also compacted).
template <typename W>
struct BasicLearnResult {
  Status status;              ///< OK, or kNotConverged with diagnostics
  W weights;                  ///< learned W after final τ-pruning
  W raw_weights;              ///< W before final pruning
  double constraint_value = 0.0;  ///< constraint at exit
  int outer_iterations = 0;
  long long inner_iterations = 0;
  double seconds = 0.0;
  std::vector<TracePoint> trace;
  /// Set on `kCancelled`: resumable snapshot of the interrupted run (see
  /// `core/train_state.h`); null on every other status.
  std::shared_ptr<const TrainState> train_state;
};

using LearnResult = BasicLearnResult<DenseMatrix>;

}  // namespace least
