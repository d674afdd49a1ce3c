/// \file least_sparse.h
/// \brief LEAST-SP: the sparse-matrix implementation of LEAST.
///
/// This is the variant that scales to 10^4–10^5 variables (paper Sections IV
/// and V-B). W lives in CSR form; the learnable support is a random pattern
/// of density ζ (Glorot-initialized, paper Fig. 3 INNER line 1) optionally
/// united with caller-provided candidate edges (domain knowledge, or the
/// full true-support superset in tests). Per inner step the cost is
///   O(k·nnz)            spectral-bound value + gradient,
///   O(B·nnz + B·d)      mini-batch loss value + pattern gradient,
/// and memory never exceeds O(k·nnz + B·d): no d x d object is ever formed.
/// The O(B·nnz) batch loops (residual accumulation, pattern gradient) split
/// across the optional global `ParallelExecutor` (see `linalg/parallel.h`)
/// as pure output partitions, so results are bitwise identical with and
/// without an installed executor.
/// Thresholded entries are physically removed (pattern compaction) at outer
/// round boundaries, which keeps later rounds proportionally cheaper — the
/// "W remains sparse throughout the optimization" property of Section IV.
/// The outer loop, including its deliberate deviations from the paper's
/// pseudocode, lives in `core/augmented_lagrangian.h`, shared with the
/// dense learner.

#pragma once

#include <utility>
#include <vector>

#include "core/data_source.h"
#include "core/learn_options.h"
#include "core/train_state.h"
#include "linalg/csr_matrix.h"
#include "util/status.h"

namespace least {

using SparseLearnResult = BasicLearnResult<CsrMatrix>;

/// \brief Sparse LEAST learner.
///
/// Thread safety: `Fit` is `const` and reentrant (all mutable state is
/// per-call); one learner may serve concurrent `Fit` calls. Configure via
/// the setters before sharing across threads.
class LeastSparseLearner : public TrainHooks {
 public:
  explicit LeastSparseLearner(const LearnOptions& options);

  /// Extra (from, to) entries merged into the random initial pattern.
  /// Useful for injecting prior knowledge; tests use it to make tiny
  /// problems identifiable (a random ζ pattern on a 10-node graph would be
  /// empty).
  void set_candidate_edges(std::vector<std::pair<int, int>> edges) {
    candidate_edges_ = std::move(edges);
  }

  /// Learns a sparse weighted DAG from the data source. The source is
  /// `Prepare()`d first; preparation failures (unreadable/malformed lazy
  /// datasets) surface as the result's status.
  SparseLearnResult Fit(const DataSource& data) const;

  /// Continues an interrupted run from `state`. Given the same options,
  /// candidate edges, and data the original run saw, the continuation is
  /// bit-identical to the uninterrupted run. Wrong-kind or wrong-shape
  /// states fail with `kInvalidArgument`.
  SparseLearnResult ResumeFit(const TrainState& state,
                              const DataSource& data) const;

  const LearnOptions& options() const { return options_; }

 private:
  SparseLearnResult FitInternal(const DataSource& data,
                                const TrainState* resume) const;

  LearnOptions options_;
  std::vector<std::pair<int, int>> candidate_edges_;
};

/// Convenience: runs LEAST-SP over an in-memory dense sample matrix.
SparseLearnResult FitLeastSparse(const DenseMatrix& x,
                                 const LearnOptions& options);

}  // namespace least
