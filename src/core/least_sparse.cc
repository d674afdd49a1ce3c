#include "core/least_sparse.h"

#include <cmath>
#include <unordered_set>

#include "constraint/spectral_bound.h"
#include "core/augmented_lagrangian.h"
#include "linalg/hutchinson.h"
#include "linalg/parallel.h"

namespace least {

namespace {

// S = W ∘ W on the same pattern (for the Hutchinson h estimate).
CsrMatrix SquaredValues(const CsrMatrix& w) {
  CsrMatrix s = w;
  for (double& v : s.values()) v = v * v;
  return s;
}

// CSR parameter storage for `RunAugmentedLagrangian`: W's values on a
// pattern that only shrinks (thresholded entries are compacted away at
// round ends), the spectral bound in its sparse form, and a mini-batch
// loss gathered from the data source one batch at a time.
class SparseStorage {
 public:
  using Weights = CsrMatrix;
  static constexpr bool kSparse = true;
  static constexpr CsrMatrix TrainState::* kStored = &TrainState::sparse_w;
  static constexpr const char* kWrongKind =
      "cannot resume the sparse learner from a dense train state";
  static constexpr const char* kWrongShape =
      "train state shape does not match the data source";
  static constexpr const char* kWrongMoments =
      "train state Adam moments do not match the stored pattern";

  static size_t NumParams(const CsrMatrix& w) {
    return static_cast<size_t>(w.nnz());
  }

  SparseStorage(const DataSource& data, const LearnOptions& opt,
                const std::vector<std::pair<int, int>>& candidates)
      : data_(data),
        opt_(opt),
        candidates_(candidates),
        d_(data.num_cols()),
        n_(data.num_rows()),
        batch_(opt.batch_size > 0 ? std::min(opt.batch_size, n_)
                                  : std::min(n_, 1000)),
        bound_{.k = opt.k, .alpha = opt.alpha},
        w_(d_, d_),
        xt_(d_, batch_),
        rt_(d_, batch_),
        batch_rows_(batch_) {}

  std::string_view name() const { return "least-sp"; }
  CsrMatrix& weights() { return w_; }
  std::span<double> params() { return w_.values(); }
  std::span<const double> gradient() const { return total_grad_; }

  // The initial pattern: ζ-density random off-diagonal support plus the
  // candidate edges, Glorot-uniform values.
  void Init(Rng& rng) {
    const int d = d_;
    std::unordered_set<int64_t> seen;
    std::vector<Triplet> triplets;
    auto add = [&](int i, int j) {
      if (i == j) return;
      const int64_t key = static_cast<int64_t>(i) * d + j;
      if (!seen.insert(key).second) return;
      triplets.push_back({i, j, rng.GlorotUniform(d, d)});
    };
    for (const auto& [i, j] : candidates_) {
      LEAST_CHECK(i >= 0 && i < d && j >= 0 && j < d);
      add(i, j);
    }
    const long long want =
        static_cast<long long>(opt_.init_density * static_cast<double>(d) * d);
    // Rejection sampling is fine: ζ ≪ 1 in every intended configuration.
    for (long long t = 0; t < want; ++t) {
      add(rng.UniformInt(d), rng.UniformInt(d));
    }
    w_ = CsrMatrix::FromTriplets(d, d, std::move(triplets));
  }

  Status Step(double rho, double eta, Rng& rng, double* constraint,
              double* loss) {
    const int64_t nnz = w_.nnz();
    *constraint =
        SpectralBoundSparse(w_, bound_, &constraint_grad_, &bound_ws_);

    // --- Mini-batch residual Rt = (X_B W − X_B)ᵀ, kept transposed. ---
    // An unsharded lazy source materializes the whole dataset here; a
    // sharded one streams only the row-range shards this batch touches,
    // so a dataset larger than its cache budget still fits the run.
    for (int b = 0; b < batch_; ++b) batch_rows_[b] = rng.UniformInt(n_);
    // A lazy source that lost its backing mid-run (file deleted/mutated)
    // fails the run cleanly with the best weights so far, never a crash.
    LEAST_RETURN_IF_ERROR(
        data_.GatherTransposed(batch_rows_, &xt_, &gather_scratch_));
    rt_ = xt_;
    rt_.Scale(-1.0);
    const int d = d_;
    const int batch = batch_;
    const auto& row_ptr = w_.row_ptr();
    const auto& col = w_.col_idx();
    const auto& values = w_.values();
    const int64_t batch_flops = nnz * batch;
    // O(B·nnz) accumulation, split over batch columns: each output column
    // rt(:, b) is written by exactly one chunk, in the same (i, e) order
    // as the serial loop, so results are bitwise identical with and
    // without an installed executor.
    MaybeParallelForFlops(batch_flops, 0, batch, /*grain=*/-1,
                          [&](int64_t b_lo, int64_t b_hi) {
      for (int i = 0; i < d; ++i) {
        const double* x_row = xt_.row(i);
        for (int64_t e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
          const double wv = values[e];
          if (wv == 0.0) continue;
          double* r_row = rt_.row(col[e]);
          for (int64_t b = b_lo; b < b_hi; ++b) r_row[b] += wv * x_row[b];
        }
      }
    });
    const double inv_b = 1.0 / batch;
    double smooth = DeterministicSumSquares(
        rt_.data().data(), static_cast<int64_t>(rt_.data().size()));
    smooth *= inv_b;

    // --- Pattern-restricted gradient, split over pattern rows (each
    // total_grad[e] belongs to exactly one row i; per-edge dots reduce
    // serially within their chunk, so the partition is pure).
    total_grad_.resize(nnz);
    const double lagrange = rho * *constraint + eta;
    const double lambda1 = opt_.lambda1;
    MaybeParallelForFlops(batch_flops, 0, d, /*grain=*/-1,
                          [&](int64_t i_lo, int64_t i_hi) {
      for (int64_t i = i_lo; i < i_hi; ++i) {
        const double* x_row = xt_.row(static_cast<int>(i));
        for (int64_t e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
          const double* r_row = rt_.row(col[e]);
          double dot = 0.0;
          for (int b = 0; b < batch; ++b) dot += x_row[b] * r_row[b];
          const double wv = values[e];
          double g = 2.0 * inv_b * dot + lagrange * constraint_grad_[e];
          if (wv != 0.0) g += wv > 0.0 ? lambda1 : -lambda1;
          total_grad_[e] = g;
        }
      }
    });
    // L1 term, hoisted out of the parallel loop: a deterministic chunked
    // reduction in storage order — the chunk layout depends only on nnz,
    // so the sum is bit-identical across thread counts.
    const double* vp = values.data();
    const double l1 = DeterministicSum(0, nnz, [vp](int64_t lo, int64_t hi) {
      double s = 0.0;
      for (int64_t i = lo; i < hi; ++i) s += std::fabs(vp[i]);
      return s;
    });
    *loss = smooth + lambda1 * l1;
    return Status::Ok();
  }

  void Project(bool cull) {
    if (cull) w_.ThresholdValues(opt_.filter_threshold);
  }

  // Physically drops thresholded entries, so later rounds shrink with nnz.
  double EndRound() {
    w_.Compact(nullptr);
    return w_.nnz() == 0 ? 0.0
                         : SpectralBoundSparse(w_, bound_, nullptr, &bound_ws_);
  }

  void Record(int /*outer*/, double /*constraint*/, TracePoint* tp) {
    tp->nnz = w_.nnz();
    if (opt_.track_estimated_h && w_.nnz() > 0) {
      tp->h_value = EstimateExpmTraceMinusDim(SquaredValues(w_));
    }
  }

  void Prune() {
    w_.ThresholdValues(opt_.prune_threshold);
    w_.Compact(nullptr);
  }

 private:
  const DataSource& data_;
  const LearnOptions& opt_;
  const std::vector<std::pair<int, int>>& candidates_;
  const int d_;
  const int n_;
  const int batch_;
  const SpectralBoundOptions bound_;
  SparseBoundWorkspace bound_ws_;
  CsrMatrix w_;
  DenseMatrix xt_;  // batch, transposed: row v = variable v
  DenseMatrix rt_;  // residual, transposed
  std::vector<int> batch_rows_;
  // One scratch for the whole fit: sharded sources group each batch by
  // row-range shard in here, so steady-state gathers allocate nothing.
  GatherScratch gather_scratch_;
  std::vector<double> constraint_grad_;
  std::vector<double> total_grad_;
};

}  // namespace

LeastSparseLearner::LeastSparseLearner(const LearnOptions& options)
    : options_(options) {}

SparseLearnResult LeastSparseLearner::Fit(const DataSource& data) const {
  return FitInternal(data, nullptr);
}

SparseLearnResult LeastSparseLearner::ResumeFit(const TrainState& state,
                                                const DataSource& data) const {
  return FitInternal(data, &state);
}

SparseLearnResult LeastSparseLearner::FitInternal(
    const DataSource& data, const TrainState* resume) const {
  SparseLearnResult result;
  // Prepared before any resume validation: a lazy source reports its
  // shape only once prepared.
  const Status prepared = data.Prepare();
  if (!prepared.ok()) {
    result.status = prepared;
    return result;
  }
  if (data.num_cols() == 0 || data.num_rows() == 0) {
    result.status = Status::InvalidArgument("empty data source");
    return result;
  }
  SparseStorage storage(data, options_, candidate_edges_);
  return RunAugmentedLagrangian(storage, options_, stop_, checkpoint_,
                                checkpoint_every_, resume);
}

SparseLearnResult FitLeastSparse(const DenseMatrix& x,
                                 const LearnOptions& options) {
  // Strictly synchronous call, so a non-owning alias of `x` is safe here —
  // the source never outlives this frame.
  OwningDenseDataSource source(
      std::shared_ptr<const DenseMatrix>(std::shared_ptr<const DenseMatrix>(),
                                         &x));
  return LeastSparseLearner(options).Fit(source);
}

}  // namespace least
