/// \file timed.h
/// \brief Timing decorators for the traced run: a `DataSource` and an
/// `AcyclicityConstraint` that forward every call to the object they wrap
/// and time the calls that do work.
///
/// They are used only in the traced run, and they must not change what the
/// learner computes: the benchmark checks that a fit through them yields
/// weights bitwise equal to the same fit without them. Each decorator adds
/// its calls and nanoseconds to a `LayerClock` and, when given a
/// `SpanRecorder`, records one span per call under the current request.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>

#include "constraint/acyclicity_constraint.h"
#include "core/data_source.h"
#include "trace_spans.h"

namespace lbench {

/// Calls and busy time of one layer, summed over threads.
struct LayerClock {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> ns{0};

  void Add(int64_t elapsed_ns) {
    calls.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  }
  double ms() const { return static_cast<double>(ns.load()) / 1e6; }
};

/// Where a decorator's spans go: the recorder (null = no spans), and the
/// request and parent span the next calls belong to. The owner changes the
/// request and parent only between fits, while no call is in flight.
struct SpanContext {
  SpanRecorder* recorder = nullptr;
  int64_t request = 0;
  int64_t parent = 0;
};

/// Times one call into a layer: adds to `clock` and records a span.
class TimedCall {
 public:
  TimedCall(LayerClock* clock, const SpanContext& context, const char* name)
      : clock_(clock), context_(context), name_(name), start_(NowNs()) {}
  ~TimedCall() {
    const int64_t end = NowNs();
    clock_->Add(end - start_);
    if (context_.recorder != nullptr) {
      context_.recorder->Add(name_, start_, end, context_.parent,
                             context_.request);
    }
  }
  TimedCall(const TimedCall&) = delete;
  TimedCall& operator=(const TimedCall&) = delete;

 private:
  LayerClock* clock_;
  const SpanContext& context_;
  const char* name_;
  int64_t start_;
};

/// A `DataSource` that forwards every method. `Prepare` is timed into
/// `prepare`; every data access (`Dense`, `Csr`, both `GatherTransposed`
/// overloads) into `gather`. Metadata calls are forwarded untimed.
class TimedSource final : public least::DataSource {
 public:
  TimedSource(std::shared_ptr<const least::DataSource> inner,
              LayerClock* prepare, LayerClock* gather, SpanContext context)
      : inner_(std::move(inner)),
        prepare_(prepare),
        gather_(gather),
        context_(context) {}

  void set_context(SpanContext context) { context_ = context; }

  least::Status Prepare() const override {
    TimedCall t(prepare_, context_, "core.source.prepare");
    return inner_->Prepare();
  }
  least::DatasetSpec spec() const override { return inner_->spec(); }
  int num_rows() const override { return inner_->num_rows(); }
  int num_cols() const override { return inner_->num_cols(); }
  least::Result<std::shared_ptr<const least::DenseMatrix>> Dense()
      const override {
    TimedCall t(gather_, context_, "core.source.gather");
    return inner_->Dense();
  }
  least::Result<std::shared_ptr<const least::CsrMatrix>> Csr()
      const override {
    TimedCall t(gather_, context_, "core.source.gather");
    return inner_->Csr();
  }
  least::Status GatherTransposed(std::span<const int> rows,
                                 least::DenseMatrix* out) const override {
    TimedCall t(gather_, context_, "core.source.gather");
    return inner_->GatherTransposed(rows, out);
  }
  least::Status GatherTransposed(std::span<const int> rows,
                                 least::DenseMatrix* out,
                                 least::GatherScratch* scratch) const override {
    TimedCall t(gather_, context_, "core.source.gather");
    return inner_->GatherTransposed(rows, out, scratch);
  }
  double CacheResidency() const override { return inner_->CacheResidency(); }

 private:
  std::shared_ptr<const least::DataSource> inner_;
  LayerClock* prepare_;
  LayerClock* gather_;
  SpanContext context_;
};

/// An `AcyclicityConstraint` that forwards `Evaluate`, timed into `clock`.
class TimedConstraint final : public least::AcyclicityConstraint {
 public:
  using least::AcyclicityConstraint::Evaluate;

  TimedConstraint(std::unique_ptr<least::AcyclicityConstraint> inner,
                  LayerClock* clock, SpanContext context)
      : inner_(std::move(inner)), clock_(clock), context_(context) {}

  void set_context(SpanContext context) { context_ = context; }

  std::string_view name() const override { return inner_->name(); }
  double Evaluate(const least::DenseMatrix& w, least::DenseMatrix* grad_out,
                  least::Workspace* ws) const override {
    TimedCall t(clock_, context_, "constraint.eval");
    return inner_->Evaluate(w, grad_out, ws);
  }

 private:
  std::unique_ptr<least::AcyclicityConstraint> inner_;
  LayerClock* clock_;
  SpanContext context_;
};

}  // namespace lbench
