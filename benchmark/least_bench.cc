/// \file least_bench.cc
/// \brief The LEAST benchmark driver. Three modes:
///
///   least_bench --workload W [--seed N] [--seconds S] [--trace 0|1|DIR]
///               [--smoke]
///       Runs one workload in this process and prints its metrics, one per
///       line with unit and sample count, then one JSON object as the last
///       line: {"correct", "attempted", "failed", "metrics"}. Untraced runs
///       report the end-to-end metrics; traced runs the per-layer metrics,
///       a self-time table, and span files. Exit 1 when an output check
///       fails.
///
///   least_bench [--seed N] [--runs R] [--seconds S] [--trace 0|1|DIR]
///               [--smoke] [--out FILE]
///       Runs every workload, each in its own child process, R times with
///       seeds N, N+1, ...; with tracing it adds a traced run after each
///       untraced one. Prints a summary (median and quartiles per metric)
///       and writes the results, stamped with the build and host, to FILE.
///       Exit 1 when any child fails or reports an incorrect output.
///
///   least_bench --compare A.json B.json
///       Compares two result files under the bounds in BENCHMARK.json; see
///       compare.cc.
///
/// Run from the repository root: metric declarations come from
/// ./BENCHMARK.json and scratch files go under ./.bench_build/.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "compare.h"
#include "net/json.h"

extern char** environ;

namespace lbench {
namespace {

namespace fs = std::filesystem;

using WorkloadFn = void (*)(const Options&, Report*);

WorkloadFn FindWorkload(const std::string& name) {
  static const std::map<std::string, WorkloadFn> kTable = {
      {"fleet_small", RunFleetSmall},   {"service_csv", RunServiceCsv},
      {"stream_local", RunStreamLocal}, {"stream_remote", RunStreamRemote},
      {"dense_fit", RunDenseFit},
  };
  auto it = kTable.find(name);
  return it == kTable.end() ? nullptr : it->second;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "least_bench: %s\n"
               "usage: least_bench --workload W [--seed N] [--seconds S] "
               "[--trace 0|1|DIR] [--smoke]\n"
               "       least_bench [--seed N] [--runs R] "
               "[--seconds S] [--trace 0|1|DIR] [--smoke] [--out FILE]\n"
               "       least_bench --compare A.json B.json\n",
               why);
  return 2;
}

std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Runs one workload in this process (see the file comment).
int RunOne(Options options, const BenchmarkSpec& spec) {
  const WorkloadFn fn = FindWorkload(options.workload);
  if (fn == nullptr) return Usage("unknown workload");
  options.work_dir = ".bench_build/work/" + options.workload + "-" +
                     std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(options.work_dir, ec);
  fs::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "least_bench: cannot create %s: %s\n",
                 options.work_dir.c_str(), ec.message().c_str());
    return 2;
  }

  Report report;
  fn(options, &report);
  report.Metric("peak_rss_mb", PeakRssMb(), 1);
  SelfTimeTable self_time;
  if (options.trace) {
    self_time = report.spans().SelfTime();
    report.Metric("obs.unattributed_share", self_time.Share("unattributed"),
                  self_time.requests);
  }
  fs::remove_all(options.work_dir, ec);

  for (const auto& [name, value] : report.values()) {
    report.Check(spec.Find(name) != nullptr,
                 "metric " + name + " is declared in BENCHMARK.json");
  }
  const std::vector<MetricDef>& wanted =
      options.trace ? spec.per_layer : spec.end_to_end;
  if (!options.trace) {
    for (const MetricDef& def : wanted) {
      report.Check(report.values().count(def.name) == 1,
                   "end-to-end metric " + def.name + " was measured");
    }
  }

  std::printf("workload %s, seed %llu, %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced");
  std::printf("sizes: %s\n", report.sizes().c_str());
  auto print_metrics = [&](const char* title,
                           const std::vector<MetricDef>& defs) {
    std::printf("%s\n", title);
    for (const MetricDef& def : defs) {
      auto it = report.values().find(def.name);
      if (it == report.values().end()) {
        std::printf("  %-34s %16s %-8s (not exercised)\n", def.name.c_str(),
                    "0", def.unit.c_str());
      } else {
        std::printf("  %-34s %16.6g %-8s n=%lld\n", def.name.c_str(),
                    it->second.value, def.unit.c_str(),
                    static_cast<long long>(it->second.n));
      }
    }
  };
  print_metrics("end-to-end:", spec.end_to_end);
  if (options.trace) {
    print_metrics("per-layer:", spec.per_layer);
    self_time.Print(stdout, options.workload);
    if (!options.trace_dir.empty()) {
      fs::create_directories(options.trace_dir, ec);
      const std::string path = options.trace_dir + "/" + options.workload +
                               "-seed" + std::to_string(options.seed) +
                               ".spans.jsonl";
      if (report.spans().WriteJsonLines(path)) {
        std::printf("spans: %zu written to %s\n", report.spans().size(),
                    path.c_str());
      } else {
        std::printf("spans: could not write %s\n", path.c_str());
      }
    }
  }
  std::printf("ops: %lld attempted, %lld failed (error rate %.6g)\n",
              static_cast<long long>(report.attempted()),
              static_cast<long long>(report.failed()),
              report.attempted() > 0
                  ? static_cast<double>(report.failed()) /
                        static_cast<double>(report.attempted())
                  : 0.0);
  for (const std::string& what : report.failed_checks()) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  const bool correct = report.failed_checks().empty();
  std::printf("checks: %s\n", correct ? "all passed" : "FAILED");

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : wanted) {
    auto it = report.values().find(def.name);
    const double value = it == report.values().end() ? 0 : it->second.value;
    json += (first ? "" : ", ") + least::JsonQuote(def.name) +
            ": {\"value\": " + FormatValue(value) +
            ", \"unit\": " + least::JsonQuote(def.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// One child run's captured output.
struct ChildRun {
  int exit_code = -1;
  std::string last_line;
  std::string sizes;
};

/// Runs this binary again with `args`, echoing its stdout as it arrives.
ChildRun SpawnSelf(const std::vector<std::string>& args) {
  ChildRun run;
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return run;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
  std::vector<char*> argv;
  std::string self = "/proc/self/exe";
  argv.push_back(self.data());
  std::vector<std::string> copies = args;
  for (std::string& a : copies) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = ::posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                    argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (spawned != 0) {
    ::close(pipe_fds[0]);
    return run;
  }
  std::string pending;
  char buf[4096];
  ssize_t got = 0;
  while ((got = ::read(pipe_fds[0], buf, sizeof buf)) != 0) {
    if (got < 0) {
      if (errno == EINTR) continue;
      break;
    }
    pending.append(buf, static_cast<size_t>(got));
    size_t nl = 0;
    while ((nl = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      std::printf("  | %s\n", line.c_str());
      if (!line.empty()) run.last_line = line;
      if (line.rfind("sizes: ", 0) == 0) run.sizes = line.substr(7);
    }
    std::fflush(stdout);
  }
  ::close(pipe_fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  return run;
}

std::string ReadFirstMatch(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Runs every workload in child processes (see the file comment).
int RunAll(const Options& base, int runs, const std::string& trace_arg,
           const std::string& out_path, const BenchmarkSpec& spec) {
  least::JsonValue results = least::JsonValue::Array();
  std::map<std::string, std::string> sizes;
  bool all_ok = true;
  for (int r = 0; r < runs; ++r) {
    const uint64_t seed = base.seed + static_cast<uint64_t>(r);
    for (const std::string& workload : spec.workloads) {
      for (const bool traced : {false, true}) {
        if (traced && trace_arg == "0") continue;
        std::vector<std::string> args = {
            "--workload", workload, "--seed", std::to_string(seed),
            "--seconds", FormatValue(base.seconds), "--trace",
            traced ? trace_arg : "0"};
        if (base.smoke) args.push_back("--smoke");
        std::printf("== %s seed %llu %s\n", workload.c_str(),
                    static_cast<unsigned long long>(seed),
                    traced ? "traced" : "untraced");
        std::fflush(stdout);
        const ChildRun child = SpawnSelf(args);
        least::Result<least::JsonValue> parsed =
            least::ParseJson(child.last_line);
        const bool parsed_ok = parsed.ok() && parsed.value().is_object() &&
                               parsed.value().Find("metrics") != nullptr;
        const bool correct = parsed_ok &&
                             parsed.value().Find("correct")->as_bool() &&
                             child.exit_code == 0;
        if (!correct) {
          all_ok = false;
          std::printf("== %s seed %llu: FAILED (exit %d)\n", workload.c_str(),
                      static_cast<unsigned long long>(seed), child.exit_code);
        }
        sizes[workload] = child.sizes;
        least::JsonValue entry = least::JsonValue::Object();
        entry.Set("workload", least::JsonValue::String(workload));
        entry.Set("seed", least::JsonValue::Number(static_cast<double>(seed)));
        entry.Set("traced", least::JsonValue::Bool(traced));
        entry.Set("exit_code", least::JsonValue::Number(child.exit_code));
        entry.Set("result",
                  parsed_ok ? parsed.value() : least::JsonValue::Null());
        results.Append(std::move(entry));
      }
    }
  }

  ResultSet set;
  set.runs = results;
  PrintSummary(set, spec);

  least::JsonValue stamp = least::JsonValue::Object();
  const char* commit = std::getenv("LBENCH_COMMIT");
  stamp.Set("commit", least::JsonValue::String(commit ? commit : "unknown"));
  stamp.Set("compiler", least::JsonValue::String(__VERSION__));
  stamp.Set("flags", least::JsonValue::String(LBENCH_CXX_FLAGS));
  stamp.Set("cpu", least::JsonValue::String(
                       ReadFirstMatch("/proc/cpuinfo", "model name")));
  stamp.Set("nproc", least::JsonValue::Number(static_cast<double>(
                         std::thread::hardware_concurrency())));
  stamp.Set("seed", least::JsonValue::Number(static_cast<double>(base.seed)));
  stamp.Set("runs", least::JsonValue::Number(runs));
  stamp.Set("seconds", least::JsonValue::Number(base.seconds));
  stamp.Set("smoke", least::JsonValue::Bool(base.smoke));
  least::JsonValue size_obj = least::JsonValue::Object();
  for (const auto& [workload, text] : sizes) {
    size_obj.Set(workload, least::JsonValue::String(text));
  }
  stamp.Set("sizes", std::move(size_obj));

  if (!out_path.empty()) {
    least::JsonValue doc = least::JsonValue::Object();
    doc.Set("stamp", std::move(stamp));
    doc.Set("runs", std::move(results));
    std::ofstream out(out_path);
    out << doc.Dump() << "\n";
    if (!out) {
      std::fprintf(stderr, "least_bench: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("results written to %s\n", out_path.c_str());
  }
  std::printf("%s\n", all_ok ? "all workloads passed their checks"
                             : "SOME WORKLOADS FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace lbench

int main(int argc, char** argv) {
  using namespace lbench;
  std::vector<std::string> args(argv + 1, argv + argc);
  Options options;
  std::string trace_arg = "0";
  std::string out_path;
  int runs = 1;
  bool seconds_given = false;
  std::vector<std::string> compare;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value = [&]() -> const std::string* {
      return i + 1 < args.size() ? &args[++i] : nullptr;
    };
    const std::string* v = nullptr;
    if (a == "--smoke") {
      options.smoke = true;
    } else if (a == "--compare") {
      const std::string* x = value();
      const std::string* y = value();
      if (x == nullptr || y == nullptr) return Usage("--compare needs A B");
      compare = {*x, *y};
    } else if ((v = value()) == nullptr) {
      return Usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      options.workload = *v;
    } else if (a == "--seed") {
      options.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      options.seconds = std::strtod(v->c_str(), nullptr);
      seconds_given = true;
    } else if (a == "--trace") {
      trace_arg = *v;
    } else if (a == "--runs") {
      runs = std::atoi(v->c_str());
    } else if (a == "--out") {
      out_path = *v;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }

  least::Result<BenchmarkSpec> spec = LoadBenchmarkSpec("BENCHMARK.json");
  if (!spec.ok()) {
    std::fprintf(stderr, "least_bench: %s\n",
                 spec.status().ToString().c_str());
    return 2;
  }
  if (!compare.empty()) {
    return CompareFiles(compare[0], compare[1], spec.value());
  }

  if (!seconds_given) options.seconds = spec.value().run_seconds;
  if (options.smoke && !seconds_given) options.seconds = 1;
  if (options.seconds <= 0 || runs < 1) return Usage("bad --seconds/--runs");
  options.trace = trace_arg != "0";
  if (options.trace) {
    options.trace_dir = trace_arg == "1" ? ".bench_build/trace" : trace_arg;
  }
  if (!options.workload.empty()) return RunOne(options, spec.value());
  return RunAll(options, runs, trace_arg, out_path, spec.value());
}
