/// \file bench.h
/// \brief Shared pieces of `least_bench`: run options, the per-run report,
/// order statistics, and timed set-up.
///
/// Metric names, units, directions and bounds live in `BENCHMARK.json` at
/// the repository root; the report refuses a name that file does not
/// declare, and an untraced run must set every end-to-end metric it
/// declares. Per-layer metrics a workload does not exercise read 0 (the
/// layer is bypassed, which is the prediction for that workload).

#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "linalg/csr_matrix.h"
#include "linalg/dense_matrix.h"
#include "trace_spans.h"

namespace lbench {

/// Options of one workload run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  ///< span files go here in a traced run
  bool smoke = false;     ///< tiny sizes, for a quick end-to-end check
  std::string work_dir;   ///< private scratch directory for input files
};

/// Declared metric, from BENCHMARK.json.
struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
  double bound = 0;    ///< end-to-end only
};

/// Nearest-rank percentile of `v`, `p` in [0, 1]; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(index, v.size() - 1)];
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// First quartile, median, third quartile, computed like Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method).
inline std::array<double, 3> Quartiles(std::vector<double> v) {
  if (v.empty()) return {0, 0, 0};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  const double m = static_cast<double>(v.size()) + 1;
  std::array<double, 3> q{};
  for (int i = 1; i <= 3; ++i) {
    const double pos = m * i / 4.0;  // 1-based
    const int j = std::clamp(static_cast<int>(std::floor(pos)), 1,
                             static_cast<int>(v.size()) - 1);
    const double delta = pos - j;
    q[i - 1] = v[j - 1] + delta * (v[j] - v[j - 1]);
  }
  return q;
}

/// Tail percentile that one stall cannot own: samples are split into
/// `windows` equal spans of their start time, `p` is taken per window, and
/// the median over windows is returned.
inline double WindowedPercentile(const std::vector<int64_t>& start_ns,
                                 const std::vector<double>& values, double p,
                                 int windows) {
  if (values.empty()) return 0;
  const auto [lo, hi] = std::minmax_element(start_ns.begin(), start_ns.end());
  const double width =
      std::max(1.0, static_cast<double>(*hi - *lo + 1) / windows);
  std::vector<std::vector<double>> buckets(static_cast<size_t>(windows));
  for (size_t i = 0; i < values.size(); ++i) {
    const int w = std::min(
        windows - 1, static_cast<int>(static_cast<double>(start_ns[i] - *lo) /
                                      width));
    buckets[static_cast<size_t>(w)].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& b : buckets) {
    if (!b.empty()) per_window.push_back(Percentile(b, p));
  }
  return Median(per_window);
}

inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// What one workload run produced.
class Report {
 public:
  /// Sets a metric; `n` is the number of samples behind it.
  void Metric(const std::string& name, double value, int64_t n) {
    values_[name] = {value, n};
  }
  /// Records an output check; a failed one makes the run incorrect.
  void Check(bool ok, const std::string& what) {
    if (!ok) failed_checks_.push_back(what);
  }
  /// Operations the run attempted and how many of them failed (a non-OK
  /// fit or job, or a non-2xx response).
  void Ops(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A line describing the run's sizes, printed and stamped into results.
  void Describe(std::string sizes) { sizes_ = std::move(sizes); }

  struct Value {
    double value = 0;
    int64_t n = 0;
  };
  const std::map<std::string, Value>& values() const { return values_; }
  const std::vector<std::string>& failed_checks() const {
    return failed_checks_;
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::string& sizes() const { return sizes_; }

  /// Spans of the traced phase (empty in an untraced run).
  SpanRecorder& spans() { return spans_; }

 private:
  std::map<std::string, Value> values_;
  std::vector<std::string> failed_checks_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::string sizes_;
  SpanRecorder spans_;
};

/// Runs `make` (which builds the workload's program state and returns it
/// as a `unique_ptr`) `reps` times, keeps the last state, and reports the
/// median set-up time as `setup_s`. Earlier states are destroyed before the
/// next repetition, outside the timed region.
template <typename Make>
auto TimedSetup(int reps, Report* report, Make make) -> decltype(make()) {
  std::vector<double> seconds;
  decltype(make()) kept;
  for (int rep = 0; rep < reps; ++rep) {
    kept.reset();
    const auto t0 = std::chrono::steady_clock::now();
    kept = make();
    seconds.push_back(SecondsSince(t0));
  }
  report->Metric("setup_s", Median(seconds), reps);
  return kept;
}

/// Calls `fit(i)` for i = 0, 1, ... until `seconds` have passed and at
/// least `min_fits` calls were made; returns each call's wall time in ms.
template <typename Fit>
std::vector<double> TimedFits(double seconds, int min_fits, Fit fit) {
  std::vector<double> ms;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; static_cast<int>(ms.size()) < min_fits ||
                  SecondsSince(start) < seconds;
       ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fit(i);
    ms.push_back(SecondsSince(t0) * 1e3);
  }
  return ms;
}

/// Traced runs of the fit workloads: calls `plain(i)` and `traced(i)` in
/// pairs, swapping their order every pair so slow drift cancels out of the
/// comparison, until `seconds` have passed and at least `min_pairs` pairs
/// ran. Returns the wall times in ms of the plain and of the traced calls.
template <typename Plain, typename Traced>
std::pair<std::vector<double>, std::vector<double>> InterleavedFits(
    double seconds, int min_pairs, Plain plain, Traced traced) {
  std::vector<double> plain_ms, traced_ms;
  auto timed = [](auto& fn, int i, std::vector<double>* out) {
    const auto t0 = std::chrono::steady_clock::now();
    fn(i);
    out->push_back(SecondsSince(t0) * 1e3);
  };
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < min_pairs || SecondsSince(start) < seconds; ++i) {
    if (i % 2 == 0) {
      timed(plain, i, &plain_ms);
      timed(traced, i, &traced_ms);
    } else {
      timed(traced, i, &traced_ms);
      timed(plain, i, &plain_ms);
    }
  }
  return {plain_ms, traced_ms};
}

/// Input seed for item `i` of a run seeded with `seed` (SplitMix64), so
/// every generated input is a pure function of the run's `--seed`.
inline uint64_t InputSeed(uint64_t seed, uint64_t i) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + i + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ------------------------------------------------ reference probes (probes.cc)

/// Current value of a counter in the global metrics registry (0 when no
/// counter of that name exists).
double RegistryCounter(const std::string& name);

/// Rate of `MatmulInto` at the shape (n x d) * (d x d), in GFLOP/s, median
/// of a few calls through whatever executor is installed.
double GemmGflops(int n, int d);

/// Per-shard costs of the data plane's three steps on one CSV file, timed
/// outside any fit: `pread` of each shard's byte extent, `ParseCsvShardBuffer`
/// of it, and `HashShardContent` of the parsed shard. `shard_rows` slices
/// the file the way the workload's source does (the whole file when it is
/// at least the row count).
struct ShardCosts {
  double read_ms = 0;
  double parse_ms = 0;
  double hash_ms = 0;
  int64_t shards = 0;
};
ShardCosts MeasureShardCosts(const std::string& csv_path, int shard_rows);

/// True when two weight matrices are equal bit for bit (shape, pattern and
/// every value's bytes) — the oracle of the non-perturbation and
/// streaming checks.
bool SameBits(const least::DenseMatrix& a, const least::DenseMatrix& b);
bool SameBits(const least::CsrMatrix& a, const least::CsrMatrix& b);

/// Resident set high-water mark of this process, in MB.
double PeakRssMb();

// Workload entry points (one per file). Each runs set-up, a warm-up, and
// its measured loop for `seconds`. In a traced run the same loop mixes
// traced and untraced operations (see each workload for how), so the
// tracing overhead is measured under the same conditions.
void RunFleetSmall(const Options& options, Report* report);
void RunServiceCsv(const Options& options, Report* report);
void RunStreamLocal(const Options& options, Report* report);
void RunStreamRemote(const Options& options, Report* report);
void RunDenseFit(const Options& options, Report* report);

}  // namespace lbench
