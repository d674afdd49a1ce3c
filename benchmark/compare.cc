/// \file compare.cc
/// \brief Loading BENCHMARK.json, summarizing result files, and comparing
/// two of them.
///
/// Verdict rule for one workload x metric, with `bound` from
/// BENCHMARK.json as a share of A's median:
///  * spread = the wider of the two sides' (Q3 - Q1) / median. When it
///    exceeds the bound the runs cannot resolve a change of that size: the
///    row is `unresolved`, unless every run of B is better than every run
///    of A (`better`). `setup_s` skips this step.
///  * otherwise the change of B's median against A's, signed so that
///    positive is worse, decides: above the bound `worse`, below minus the
///    bound `better`, else `same`.

#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace lbench {
namespace {

least::Result<least::JsonValue> ReadJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return least::Status::IoError("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  least::JsonLimits limits;
  limits.max_depth = 16;
  least::Result<least::JsonValue> doc = least::ParseJson(text.str(), limits);
  if (!doc.ok()) {
    return least::Status::InvalidArgument(path + ": " +
                                          doc.status().message());
  }
  return doc;
}

least::Status ParseMetrics(const least::JsonValue& doc, const char* key,
                           std::vector<MetricDef>* out) {
  const least::JsonValue* list = doc.Find(key);
  if (list == nullptr || !list->is_array()) {
    return least::Status::InvalidArgument(
        std::string("BENCHMARK.json: missing ") + key);
  }
  for (const least::JsonValue& m : list->items()) {
    const least::JsonValue* name = m.Find("name");
    const least::JsonValue* unit = m.Find("unit");
    const least::JsonValue* better = m.Find("better");
    if (name == nullptr || unit == nullptr || better == nullptr) {
      return least::Status::InvalidArgument(
          "BENCHMARK.json: a metric lacks name/unit/better");
    }
    MetricDef def;
    def.name = name->as_string();
    def.unit = unit->as_string();
    def.better = better->as_string();
    if (const least::JsonValue* bound = m.Find("bound")) {
      def.bound = bound->as_number();
    }
    out->push_back(std::move(def));
  }
  return least::Status::Ok();
}

least::Result<ResultSet> LoadResultSet(const std::string& path) {
  least::Result<least::JsonValue> doc = ReadJsonFile(path);
  if (!doc.ok()) return doc.status();
  const least::JsonValue* runs = doc.value().Find("runs");
  if (runs == nullptr || !runs->is_array()) {
    return least::Status::InvalidArgument(path + ": no \"runs\" array");
  }
  ResultSet set;
  if (const least::JsonValue* stamp = doc.value().Find("stamp")) {
    set.stamp = *stamp;
  }
  set.runs = *runs;
  return set;
}

/// Values of `metric` over the set's correct runs of `workload`.
std::vector<double> Values(const ResultSet& set, const std::string& workload,
                           const std::string& metric, bool traced) {
  std::vector<double> values;
  for (const least::JsonValue& run : set.runs.items()) {
    const least::JsonValue* w = run.Find("workload");
    const least::JsonValue* t = run.Find("traced");
    const least::JsonValue* result = run.Find("result");
    if (w == nullptr || w->as_string() != workload || t == nullptr ||
        t->as_bool() != traced || result == nullptr ||
        !result->is_object()) {
      continue;
    }
    const least::JsonValue* correct = result->Find("correct");
    const least::JsonValue* metrics = result->Find("metrics");
    if (correct == nullptr || !correct->as_bool() || metrics == nullptr) {
      continue;
    }
    const least::JsonValue* m = metrics->Find(metric);
    if (m != nullptr && m->Find("value") != nullptr) {
      values.push_back(m->Find("value")->as_number());
    }
  }
  return values;
}

double RelativeSpread(const std::vector<double>& v) {
  const std::array<double, 3> q = Quartiles(v);
  return q[1] != 0 ? (q[2] - q[0]) / std::fabs(q[1]) : INFINITY;
}

/// The verdict for one workload x metric (see the file comment); `change`
/// receives B's median against A's as a signed share.
std::string Verdict(const std::vector<double>& av,
                    const std::vector<double>& bv, const MetricDef& def,
                    double* change) {
  const double a_median = Quartiles(av)[1];
  if (av.empty() || bv.empty() || a_median == 0) return "unresolved";
  *change = (Quartiles(bv)[1] - a_median) / std::fabs(a_median);
  const double sign = def.better == "lower" ? 1.0 : -1.0;  // + is worse
  const double worse_by = sign * *change;
  // Set-up time is judged by its median alone: a pool start of tens of
  // microseconds jitters far more than its bound from run to run.
  const bool resolved =
      def.name == "setup_s" ||
      std::max(RelativeSpread(av), RelativeSpread(bv)) <= def.bound;
  if (!resolved) {
    const auto [a_lo, a_hi] = std::minmax_element(av.begin(), av.end());
    const auto [b_lo, b_hi] = std::minmax_element(bv.begin(), bv.end());
    const bool all_better = sign > 0 ? *b_hi < *a_lo : *b_lo > *a_hi;
    return all_better ? "better" : "unresolved";
  }
  if (worse_by > def.bound) return "worse";
  if (worse_by < -def.bound) return "better";
  return "same";
}

void PrintStamp(const char* label, const ResultSet& set) {
  std::printf("%s: %s\n", label,
              set.stamp.is_object() ? set.stamp.Dump().c_str() : "(no stamp)");
}

}  // namespace

const MetricDef* BenchmarkSpec::Find(const std::string& name) const {
  for (const MetricDef& def : end_to_end) {
    if (def.name == name) return &def;
  }
  for (const MetricDef& def : per_layer) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

least::Result<BenchmarkSpec> LoadBenchmarkSpec(const std::string& path) {
  least::Result<least::JsonValue> doc = ReadJsonFile(path);
  if (!doc.ok()) return doc.status();
  BenchmarkSpec spec;
  if (const least::JsonValue* s = doc.value().Find("run_seconds")) {
    spec.run_seconds = static_cast<int>(s->as_number());
  }
  if (const least::JsonValue* w = doc.value().Find("workloads")) {
    for (const least::JsonValue& item : w->items()) {
      if (const least::JsonValue* name = item.Find("name")) {
        spec.workloads.push_back(name->as_string());
      }
    }
  }
  LEAST_RETURN_IF_ERROR(
      ParseMetrics(doc.value(), "end_to_end", &spec.end_to_end));
  LEAST_RETURN_IF_ERROR(
      ParseMetrics(doc.value(), "per_layer", &spec.per_layer));
  return spec;
}

void PrintSummary(const ResultSet& set, const BenchmarkSpec& spec) {
  std::printf("\nsummary (median [Q1, Q3] over runs)\n");
  for (const std::string& workload : spec.workloads) {
    for (const bool traced : {false, true}) {
      const std::vector<MetricDef>& defs =
          traced ? spec.per_layer : spec.end_to_end;
      bool header = false;
      for (const MetricDef& def : defs) {
        const std::vector<double> v = Values(set, workload, def.name, traced);
        if (v.empty()) continue;
        if (!header) {
          std::printf("%s, %s:\n", workload.c_str(),
                      traced ? "per-layer (traced)" : "end-to-end");
          header = true;
        }
        const std::array<double, 3> q = Quartiles(v);
        std::printf("  %-34s %14.6g [%.6g, %.6g] %-8s runs=%zu\n",
                    def.name.c_str(), q[1], q[0], q[2], def.unit.c_str(),
                    v.size());
      }
    }
  }
}

int CompareFiles(const std::string& a_path, const std::string& b_path,
                 const BenchmarkSpec& spec) {
  least::Result<ResultSet> a = LoadResultSet(a_path);
  least::Result<ResultSet> b = LoadResultSet(b_path);
  if (!a.ok() || !b.ok()) {
    std::fprintf(stderr, "least_bench: %s\n",
                 (!a.ok() ? a.status() : b.status()).ToString().c_str());
    return 2;
  }
  PrintStamp("A", a.value());
  PrintStamp("B", b.value());
  std::printf("%-14s %-20s %12s %24s %12s %24s %8s %7s  %s\n", "workload",
              "metric", "A median", "A [Q1, Q3]", "B median", "B [Q1, Q3]",
              "change", "bound", "verdict");
  int bad = 0;
  for (const std::string& workload : spec.workloads) {
    for (const MetricDef& def : spec.end_to_end) {
      const std::vector<double> av = Values(a.value(), workload, def.name,
                                            false);
      const std::vector<double> bv = Values(b.value(), workload, def.name,
                                            false);
      const std::array<double, 3> qa = Quartiles(av), qb = Quartiles(bv);
      double change = 0;
      const std::string verdict = Verdict(av, bv, def, &change);
      if (verdict == "worse" || verdict == "unresolved") ++bad;
      char a_q[64], b_q[64];
      std::snprintf(a_q, sizeof a_q, "[%.5g, %.5g]", qa[0], qa[2]);
      std::snprintf(b_q, sizeof b_q, "[%.5g, %.5g]", qb[0], qb[2]);
      std::printf("%-14s %-20s %12.6g %24s %12.6g %24s %+7.2f%% %6.2f%%  %s\n",
                  workload.c_str(), def.name.c_str(), qa[1], a_q, qb[1], b_q,
                  100 * change, 100 * def.bound, verdict.c_str());
    }
  }
  std::printf("%d row(s) worse or unresolved\n", bad);
  return bad == 0 ? 0 : 1;
}

}  // namespace lbench
