// Pure helpers of the XMark benchmark: sample statistics and the output
// check against the reference interpreter. Kept free of the eXrQuy stack
// so the benchmark's own tests (selftest.cc) exercise them directly.
#ifndef PERFBENCH_BENCH_CORE_H_
#define PERFBENCH_BENCH_CORE_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

// Median of `v` (mean of the two middle samples when the count is even).
// 0 for an empty sample.
double Median(std::vector<double> v);

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it. 0 for an empty sample.
double Percentile(std::vector<double> v, double p);

// The percentile latency_tail_ms reports for `n` samples: the highest
// percentile of the ladder 99.9, 99.5, 99, 98, 95, 90, 80, 75 with at
// least ten samples beyond its nearest rank, and 50 when none has (fewer
// than 20 samples).
double TailPercentile(size_t n);

// Geometric mean of positive values; 0 when empty.
double GeoMean(const std::vector<double>& v);

// Compares rendered result items against the reference interpreter's.
// `exact_order` demands the same sequence; otherwise the two must be
// equal as multisets (unordered mode, and Q10 in ordered mode, whose
// order of equal sort keys is free). Returns "" when they agree, else a
// one-line diagnostic.
std::string CheckItems(const std::vector<std::string>& reference,
                       const std::vector<std::string>& got,
                       bool exact_order);

// Byte identity of two serialized results; "" when equal, else the first
// differing offset.
std::string CheckBytes(const std::string& expected, const std::string& got);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_CORE_H_
