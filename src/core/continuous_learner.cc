#include "core/continuous_learner.h"

#include "constraint/expm_trace.h"
#include "core/augmented_lagrangian.h"

namespace least {

namespace {

// Dense parameter storage for `RunAugmentedLagrangian`: W is a d x d matrix,
// the constraint any `AcyclicityConstraint` (evaluated through its virtual
// interface, so decorators see every call).
class DenseStorage {
 public:
  using Weights = DenseMatrix;
  static constexpr bool kSparse = false;
  static constexpr DenseMatrix TrainState::* kStored = &TrainState::dense_w;
  static constexpr const char* kWrongKind =
      "cannot resume a dense learner from a sparse train state";
  static constexpr const char* kWrongShape =
      "train state shape does not match the sample matrix";
  static constexpr const char* kWrongMoments =
      "train state Adam moments do not match the weight matrix";

  static size_t NumParams(const DenseMatrix& w) { return w.size(); }

  DenseStorage(const DenseMatrix& x, const AcyclicityConstraint& constraint,
               const LearnOptions& opt,
               const ContinuousLearner::SnapshotCallback& snapshot)
      : opt_(opt),
        constraint_(constraint),
        snapshot_(snapshot),
        loss_(&x, opt.lambda1, opt.batch_size, &ws_),
        w_(x.cols(), x.cols()),
        loss_grad_(x.cols(), x.cols()),
        constraint_grad_(x.cols(), x.cols()) {}

  std::string_view name() const { return constraint_.name(); }
  DenseMatrix& weights() { return w_; }
  std::span<double> params() { return w_.data(); }
  std::span<const double> gradient() const { return loss_grad_.data(); }

  void Init(Rng& rng) {
    const int d = w_.cols();
    if (opt_.init_density > 0.0 && opt_.init_density < 1.0) {
      // Glorot-uniform values on a random sparse support (paper Fig. 3
      // INNER line 1); the mass vanishes for tiny ζ·d², which reduces to the
      // standard zero start used by NOTEARS.
      const long long cells = static_cast<long long>(d) * (d - 1);
      long long want = static_cast<long long>(opt_.init_density * cells);
      for (long long t = 0; t < want; ++t) {
        const int i = rng.UniformInt(d);
        const int j = rng.UniformInt(d);
        if (i != j) w_(i, j) = rng.GlorotUniform(d, d);
      }
    }
  }

  Status Step(double rho, double eta, Rng& rng, double* constraint,
              double* loss) {
    *constraint = constraint_.Evaluate(w_, &constraint_grad_, &ws_);
    *loss = loss_.ValueAndGradient(w_, &loss_grad_, rng);
    // ∇ℓ = ∇L + (ρ·δ + η)·∇δ   (see the driver header on the Fig. 3 typo).
    loss_grad_.AddScaled(constraint_grad_, rho * *constraint + eta);
    return Status::Ok();
  }

  void Project(bool cull) {
    w_.FillDiagonal(0.0);  // no self-loops
    if (cull) w_.ApplyThreshold(opt_.filter_threshold);
  }

  double EndRound() { return constraint_.Evaluate(w_, nullptr, &ws_); }

  void Record(int outer, double constraint, TracePoint* tp) {
    tp->nnz = w_.CountNonZeros();
    if (opt_.track_exact_h) tp->h_value = exact_h_.Evaluate(w_, nullptr, &ws_);
    if (snapshot_) snapshot_(outer, w_, constraint);
  }

  void Prune() { w_.ApplyThreshold(opt_.prune_threshold); }

 private:
  const LearnOptions& opt_;
  const AcyclicityConstraint& constraint_;
  const ContinuousLearner::SnapshotCallback& snapshot_;
  // Per-Fit scratch arena: the loss checks its persistent buffers out here,
  // and every constraint evaluation draws its temporaries from scoped
  // checkouts above them — steady-state iterations allocate nothing (the
  // zero-allocation proof lives in tests/test_workspace.cc). Local to the
  // call, so Fit stays const + reentrant.
  Workspace ws_;
  LeastSquaresLoss loss_;
  ExpmTraceConstraint exact_h_;  // optional tracker (small d only)
  DenseMatrix w_;
  DenseMatrix loss_grad_;
  DenseMatrix constraint_grad_;
};

}  // namespace

ContinuousLearner::ContinuousLearner(
    std::unique_ptr<AcyclicityConstraint> constraint,
    const LearnOptions& options)
    : constraint_(std::move(constraint)), options_(options) {
  LEAST_CHECK(constraint_ != nullptr);
}

LearnResult ContinuousLearner::Fit(const DenseMatrix& x) const {
  return FitInternal(x, nullptr);
}

LearnResult ContinuousLearner::Fit(const DataSource& data) const {
  return FitInternal(data, nullptr);
}

LearnResult ContinuousLearner::ResumeFit(const TrainState& state,
                                         const DenseMatrix& x) const {
  return FitInternal(x, &state);
}

LearnResult ContinuousLearner::ResumeFit(const TrainState& state,
                                         const DataSource& data) const {
  return FitInternal(data, &state);
}

LearnResult ContinuousLearner::FitInternal(const DataSource& data,
                                           const TrainState* resume) const {
  LearnResult result;
  result.status = data.Prepare();
  if (!result.status.ok()) return result;
  Result<std::shared_ptr<const DenseMatrix>> dense = data.Dense();
  if (!dense.ok()) {
    result.status = dense.status();
    return result;
  }
  return FitInternal(*dense.value(), resume);
}

LearnResult ContinuousLearner::FitInternal(const DenseMatrix& x,
                                           const TrainState* resume) const {
  if (x.rows() == 0 || x.cols() == 0) {
    LearnResult result;
    result.status = Status::InvalidArgument("empty sample matrix");
    return result;
  }
  DenseStorage storage(x, *constraint_, options_, snapshot_);
  return RunAugmentedLagrangian(storage, options_, stop_, checkpoint_,
                                checkpoint_every_, resume);
}

}  // namespace least
