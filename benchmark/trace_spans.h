/// \file trace_spans.h
/// \brief Header-only span recorder for the benchmark's traced runs.
///
/// A span is one timed interval at a layer boundary: a name, start and end
/// in steady-clock nanoseconds, the span that caused it (`parent`, 0 for a
/// request's root), and the id of the request it belongs to (a job or a
/// fit). Spans stay in memory while the workload runs; `WriteJsonLines`
/// writes them out when it ends, so recording never touches the disk on the
/// measured path.
///
/// `SelfTime` turns the spans into a per-layer table whose rows sum to the
/// end-to-end time of the requests. Every instant inside a root span is
/// charged to exactly one span: the deepest one active at that instant
/// (ties go to the one that started last). For properly nested spans this
/// is the usual self time — a span's duration minus the part its children
/// cover — and when concurrent siblings overlap, the split still sums to the
/// root's duration. Time inside a root that no child covers is the
/// `unattributed` row.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;   ///< 0 for a request's root span
  int64_t request = 0;  ///< job or fit id shared by every span of a request
};

/// One row of a self-time table.
struct SelfTimeRow {
  std::string name;
  double self_ms = 0;
  int64_t spans = 0;
};

struct SelfTimeTable {
  double total_ms = 0;  ///< summed duration of every root span
  int64_t requests = 0;
  std::vector<SelfTimeRow> rows;  ///< descending self time; includes
                                  ///< `unattributed`

  /// Prints the table; `title` names the workload.
  void Print(std::FILE* out, const std::string& title) const {
    std::fprintf(out, "self time, %s (%lld requests, %.3f ms in total)\n",
                 title.c_str(), static_cast<long long>(requests), total_ms);
    std::fprintf(out, "  %-28s %14s %8s %10s\n", "layer", "self ms", "share",
                 "spans");
    double sum = 0;
    for (const SelfTimeRow& row : rows) {
      sum += row.self_ms;
      std::fprintf(out, "  %-28s %14.3f %7.2f%% %10lld\n", row.name.c_str(),
                   row.self_ms,
                   total_ms > 0 ? 100.0 * row.self_ms / total_ms : 0.0,
                   static_cast<long long>(row.spans));
    }
    std::fprintf(out, "  %-28s %14.3f %7.2f%%\n", "sum of rows", sum,
                 total_ms > 0 ? 100.0 * sum / total_ms : 0.0);
  }

  double Share(const std::string& name) const {
    for (const SelfTimeRow& row : rows) {
      if (row.name == name) return total_ms > 0 ? row.self_ms / total_ms : 0;
    }
    return 0;
  }
};

/// Thread-safe in-memory span store.
class SpanRecorder {
 public:
  /// Reserves an id for a span that will be recorded later (a parent whose
  /// children finish before it does).
  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a finished span under a reserved id.
  void Record(int64_t id, const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, int64_t request) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start_ns, end_ns, id, parent, request});
  }

  /// Records a finished span under a fresh id, which it returns.
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, int64_t request) {
    const int64_t id = NewId();
    Record(id, name, start_ns, end_ns, parent, request);
    return id;
  }

  /// RAII span: starts on construction, records on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, int64_t parent,
          int64_t request)
        : recorder_(recorder),
          name_(name),
          parent_(parent),
          request_(request),
          id_(recorder != nullptr ? recorder->NewId() : 0),
          start_(recorder != nullptr ? NowNs() : 0) {}
    ~Scope() {
      if (recorder_ != nullptr) {
        recorder_->Record(id_, name_, start_, NowNs(), parent_,
                          request_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int64_t id() const { return id_; }

   private:
    SpanRecorder* recorder_;
    const char* name_;
    int64_t parent_;
    int64_t request_;
    int64_t id_;
    int64_t start_;
  };

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Writes one JSON object per line. Returns false when the file cannot
  /// be written.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"id\":%lld,\"parent\":%lld,\"request\":%lld}\n",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

  /// Per-layer self time over every request (see the file comment).
  SelfTimeTable SelfTime() const {
    const std::vector<Span> all = spans();
    std::unordered_map<int64_t, size_t> by_id;
    for (size_t i = 0; i < all.size(); ++i) by_id[all[i].id] = i;

    // Depth and root of every span, following parent links (trees are a
    // few levels deep). A span whose parent was never recorded is a root.
    std::vector<int> depth(all.size(), -1);
    std::vector<int64_t> root(all.size(), 0);
    std::function<void(size_t)> resolve = [&](size_t i) {
      if (depth[i] >= 0) return;
      auto it = by_id.find(all[i].parent);
      if (all[i].parent == 0 || it == by_id.end()) {
        depth[i] = 0;
        root[i] = all[i].id;
        return;
      }
      resolve(it->second);
      depth[i] = depth[it->second] + 1;
      root[i] = root[it->second];
    };
    for (size_t i = 0; i < all.size(); ++i) resolve(i);

    std::unordered_map<int64_t, std::vector<size_t>> members;
    for (size_t i = 0; i < all.size(); ++i) members[root[i]].push_back(i);

    std::map<std::string, SelfTimeRow> rows;
    SelfTimeTable table;
    for (const auto& [root_id, indices] : members) {
      const Span& r = all[by_id[root_id]];
      const int64_t lo = r.start_ns, hi = std::max(r.end_ns, r.start_ns);
      table.total_ms += static_cast<double>(hi - lo) / 1e6;
      ++table.requests;
      // Sweep the root's interval; at each boundary the active set changes.
      struct Edge {
        int64_t t;
        bool open;
        size_t span;
      };
      std::vector<Edge> edges;
      for (const size_t i : indices) {
        if (depth[i] == 0) continue;
        const int64_t s = std::clamp(all[i].start_ns, lo, hi);
        const int64_t e = std::clamp(all[i].end_ns, lo, hi);
        ++rows[all[i].name].spans;
        rows[all[i].name].name = all[i].name;
        if (e <= s) continue;
        edges.push_back({s, true, i});
        edges.push_back({e, false, i});
      }
      std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
        return std::tie(a.t, a.open) < std::tie(b.t, b.open);
      });
      // Active spans ordered by (depth, start, index); the last one owns
      // the current instant.
      std::set<std::tuple<int, int64_t, size_t>> active;
      int64_t cursor = lo;
      double unattributed_ns = 0;
      auto charge = [&](int64_t until) {
        if (until <= cursor) return;
        const double ns = static_cast<double>(until - cursor);
        if (active.empty()) {
          unattributed_ns += ns;
        } else {
          rows[all[std::get<2>(*active.rbegin())].name].self_ms += ns / 1e6;
        }
        cursor = until;
      };
      for (const Edge& edge : edges) {
        charge(edge.t);
        const auto key =
            std::make_tuple(depth[edge.span], all[edge.span].start_ns,
                            edge.span);
        if (edge.open) {
          active.insert(key);
        } else {
          active.erase(key);
        }
      }
      charge(hi);
      rows["unattributed"].name = "unattributed";
      rows["unattributed"].self_ms += unattributed_ns / 1e6;
    }
    for (auto& [name, row] : rows) table.rows.push_back(row);
    std::sort(table.rows.begin(), table.rows.end(),
              [](const SelfTimeRow& a, const SelfTimeRow& b) {
                return a.self_ms > b.self_ms;
              });
    return table;
  }

 private:
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace lbench
