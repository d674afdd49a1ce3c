/// \file probes.cc
/// \brief Reference measurements taken beside the workloads: registry
/// counters, gemm rate, and the per-shard read/parse/hash costs.

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "core/data_source.h"
#include "linalg/dense_matrix.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace lbench {

double RegistryCounter(const std::string& name) {
  for (const auto& row : least::MetricsRegistry::Global().Snapshot().counters) {
    if (row.name == name) return static_cast<double>(row.value);
  }
  return 0;
}

double GemmGflops(int n, int d) {
  least::Rng rng(7);
  const least::DenseMatrix a =
      least::DenseMatrix::RandomUniform(n, d, -1, 1, rng);
  const least::DenseMatrix b =
      least::DenseMatrix::RandomUniform(d, d, -1, 1, rng);
  least::DenseMatrix out(n, d);
  const double flops = 2.0 * n * d * d;
  // Enough calls for ~20 ms of work at 1 GFLOP/s, at least 5.
  const int calls = std::max(5, static_cast<int>(2e7 / flops));
  std::vector<double> rates;
  for (int i = 0; i < calls; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    least::MatmulInto(a, b, &out);
    rates.push_back(flops / SecondsSince(t0) / 1e9);
  }
  return Median(rates);
}

ShardCosts MeasureShardCosts(const std::string& csv_path, int shard_rows) {
  ShardCosts costs;
  least::CsvSourceOptions options;
  options.has_header = false;
  options.shard_rows = shard_rows;
  least::DatasetCache cache;  // private: the probe must not touch the
  options.cache = &cache;     // workload's cache counters
  const auto source = least::MakeCsvSource(csv_path, options);
  if (!source->Prepare().ok()) return costs;
  const least::DatasetSpec spec = source->spec();
  const int fd = ::open(csv_path.c_str(), O_RDONLY);
  if (fd < 0) return costs;
  std::vector<double> read_ms, parse_ms, hash_ms;
  for (int rep = 0; rep < 3; ++rep) {
    for (const least::DatasetShard& shard : spec.shards) {
      std::string buffer(shard.byte_size, '\0');
      auto t0 = std::chrono::steady_clock::now();
      const ssize_t got = ::pread(fd, buffer.data(), buffer.size(),
                                  static_cast<off_t>(shard.byte_offset));
      read_ms.push_back(SecondsSince(t0) * 1e3);
      if (got != static_cast<ssize_t>(buffer.size())) break;
      t0 = std::chrono::steady_clock::now();
      least::Result<least::DenseMatrix> parsed = least::ParseCsvShardBuffer(
          buffer, csv_path, shard.row_end - shard.row_begin, spec.cols);
      parse_ms.push_back(SecondsSince(t0) * 1e3);
      if (!parsed.ok()) break;
      t0 = std::chrono::steady_clock::now();
      const uint64_t hash = least::HashShardContent(
          shard.row_begin, shard.row_end, parsed.value());
      hash_ms.push_back(SecondsSince(t0) * 1e3);
      if (hash != shard.content_hash) break;
    }
  }
  ::close(fd);
  costs.read_ms = Median(read_ms);
  costs.parse_ms = Median(parse_ms);
  costs.hash_ms = Median(hash_ms);
  costs.shards = static_cast<int64_t>(hash_ms.size());
  return costs;
}

bool SameBits(const least::DenseMatrix& a, const least::DenseMatrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

bool SameBits(const least::CsrMatrix& a, const least::CsrMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         a.row_ptr() == b.row_ptr() && a.col_idx() == b.col_idx() &&
         a.values().size() == b.values().size() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(double)) == 0;
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

}  // namespace lbench
