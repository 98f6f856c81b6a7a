#include "bench_core.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

// 1-based nearest rank of percentile p among n samples.
size_t NearestRank(size_t n, double p) {
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

std::string Clip(const std::string& s) {
  return s.size() <= 80 ? s : s.substr(0, 77) + "...";
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  size_t k = NearestRank(v.size(), p) - 1;
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}

double TailPercentile(size_t n) {
  for (double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0}) {
    if (n >= 1 && n - NearestRank(n, p) >= 10) return p;
  }
  return 50.0;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / v.size());
}

std::string CheckItems(const std::vector<std::string>& reference,
                       const std::vector<std::string>& got,
                       bool exact_order) {
  if (reference.size() != got.size()) {
    return "item count " + std::to_string(got.size()) + ", reference has " +
           std::to_string(reference.size());
  }
  const std::vector<std::string>* a = &reference;
  const std::vector<std::string>* b = &got;
  std::vector<std::string> sorted_ref;
  std::vector<std::string> sorted_got;
  if (!exact_order) {
    sorted_ref = reference;
    sorted_got = got;
    std::sort(sorted_ref.begin(), sorted_ref.end());
    std::sort(sorted_got.begin(), sorted_got.end());
    a = &sorted_ref;
    b = &sorted_got;
  }
  for (size_t i = 0; i < a->size(); ++i) {
    if ((*a)[i] != (*b)[i]) {
      return std::string(exact_order ? "item " : "sorted item ") +
             std::to_string(i) + " is '" + Clip((*b)[i]) +
             "', reference has '" + Clip((*a)[i]) + "'";
    }
  }
  return "";
}

std::string CheckBytes(const std::string& expected, const std::string& got) {
  if (expected == got) return "";
  size_t n = std::min(expected.size(), got.size());
  size_t i = std::mismatch(expected.begin(), expected.begin() + n,
                           got.begin())
                 .first -
             expected.begin();
  return "serialized bytes differ at offset " + std::to_string(i) + " (" +
         std::to_string(got.size()) + " vs " +
         std::to_string(expected.size()) + " bytes)";
}

}  // namespace perfbench
