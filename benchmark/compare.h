/// \file compare.h
/// \brief BENCHMARK.json declarations, result files, and the comparison of
/// two result files.

#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "net/json.h"
#include "util/status.h"

namespace lbench {

/// The parsed BENCHMARK.json.
struct BenchmarkSpec {
  int run_seconds = 10;
  std::vector<std::string> workloads;
  std::vector<MetricDef> end_to_end;
  std::vector<MetricDef> per_layer;

  const MetricDef* Find(const std::string& name) const;
};

least::Result<BenchmarkSpec> LoadBenchmarkSpec(const std::string& path);

/// The runs of one `least_bench --all` invocation: an array of
/// {"workload", "seed", "traced", "exit_code", "result"} objects, where
/// "result" is a run's last output line.
struct ResultSet {
  least::JsonValue stamp;
  least::JsonValue runs;
};

/// Prints, per workload and metric, the median and quartiles over the
/// set's runs (untraced runs for end-to-end metrics, traced runs for
/// per-layer ones).
void PrintSummary(const ResultSet& set, const BenchmarkSpec& spec);

/// `least_bench --compare A B`: one row per workload x end-to-end metric
/// with each side's median and quartiles and a verdict under the metric's
/// bound. Returns 1 when any row is `worse` or `unresolved`.
int CompareFiles(const std::string& a_path, const std::string& b_path,
                 const BenchmarkSpec& spec);

}  // namespace lbench
