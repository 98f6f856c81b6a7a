// The benchmark's own tests: the output check rejects what it must, and
// latency_tail_ms picks the right percentile for a sample count. Exits
// non-zero on the first failed expectation.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_core.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

void TestCheckItems() {
  using perfbench::CheckItems;
  const std::vector<std::string> ref = {"<a>1</a>", "<b>2</b>", "3"};

  Expect(CheckItems(ref, ref, true).empty(), "identical result accepted");

  std::vector<std::string> reordered = {"<b>2</b>", "<a>1</a>", "3"};
  Expect(!CheckItems(ref, reordered, true).empty(),
         "reordered ordered-mode result rejected");
  Expect(CheckItems(ref, reordered, false).empty(),
         "reordered result accepted as a multiset");

  std::vector<std::string> dropped = {"<a>1</a>", "3"};
  Expect(!CheckItems(ref, dropped, true).empty(), "dropped item rejected");
  Expect(!CheckItems(ref, dropped, false).empty(),
         "dropped item rejected as a multiset");

  std::vector<std::string> changed = {"<a>1</a>", "<b>2</c>", "3"};
  Expect(!CheckItems(ref, changed, true).empty(), "changed byte rejected");
  Expect(!CheckItems(ref, changed, false).empty(),
         "changed byte rejected as a multiset");

  std::vector<std::string> duplicated = {"<a>1</a>", "<a>1</a>", "3"};
  Expect(!CheckItems(ref, duplicated, false).empty(),
         "multiset check counts duplicates");
}

void TestCheckBytes() {
  using perfbench::CheckBytes;
  Expect(CheckBytes("<a>1</a> 3", "<a>1</a> 3").empty(),
         "identical bytes accepted");
  Expect(!CheckBytes("<a>1</a> 3", "<a>1</a> 4").empty(),
         "changed byte rejected");
  Expect(!CheckBytes("<a>1</a> 3", "<a>1</a>").empty(),
         "truncated bytes rejected");
}

void TestTailPercentile() {
  using perfbench::TailPercentile;
  // Ten or more samples must lie beyond the percentile's nearest rank.
  Expect(TailPercentile(10000) == 99.9, "10000 samples -> p99.9");
  Expect(TailPercentile(9999) == 99.5, "9999 samples -> p99.5");
  Expect(TailPercentile(1000) == 99, "1000 samples -> p99");
  Expect(TailPercentile(999) == 98, "999 samples -> p98");
  Expect(TailPercentile(200) == 95, "200 samples -> p95");
  Expect(TailPercentile(120) == 90, "120 samples -> p90");
  Expect(TailPercentile(80) == 80, "80 samples -> p80");
  Expect(TailPercentile(40) == 75, "40 samples -> p75");
  Expect(TailPercentile(39) == 50, "39 samples -> p50");
  Expect(TailPercentile(0) == 50, "no samples -> p50");

  // The value it reports leaves at least ten samples above it.
  std::vector<double> v;
  for (int i = 1; i <= 120; ++i) v.push_back(i);
  double p = TailPercentile(v.size());
  Expect(perfbench::Percentile(v, p) == 108, "p90 of 1..120 is 108");
}

void TestStatistics() {
  Expect(perfbench::Median({3, 1, 2}) == 2, "odd median");
  Expect(perfbench::Median({4, 1, 3, 2}) == 2.5, "even median");
  Expect(perfbench::Percentile({5, 1, 4, 2, 3}, 50) == 3, "nearest rank p50");
  double g = perfbench::GeoMean({1, 100});
  Expect(g > 9.999 && g < 10.001, "geometric mean");
}

}  // namespace

int main() {
  TestCheckItems();
  TestCheckBytes();
  TestTailPercentile();
  TestStatistics();
  if (failures > 0) return 1;
  std::printf("perfbench selftest: all expectations hold\n");
  return 0;
}
