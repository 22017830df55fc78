// Self-tests of the benchmark's own arithmetic: supported percentiles,
// span self time, and seeded operation sequences. Exits nonzero on the
// first failed check. Run through `python3 perfbench/run.py --selftest`,
// which also checks the cache construction of the cold and warm
// workloads and the seed determinism of a whole run.

#include <cstdio>
#include <set>
#include <vector>

#include "perfbench/harness.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%-60s %s\n", what, ok ? "ok" : "FAILED");
  if (!ok) ++failures;
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Percentiles: at least ten samples must lie beyond the one reported.
  Check(!SupportedPercentile(Ramp(99), 0.9), "p90 refused with 99 samples");
  Check(SupportedPercentile(Ramp(100), 0.9) == 90.0,
        "p90 of 1..100 is 90 with 100 samples");
  Check(!SupportedPercentile(Ramp(19), 0.5), "p50 refused with 19 samples");
  Check(SupportedPercentile(Ramp(20), 0.5) == 10.0,
        "p50 of 1..20 is 10 with 20 samples");
  Check(!SupportedPercentile({}, 0.5), "no percentile of nothing");
  Check(Median({3, 1, 2}) == 2.0 && Median({4, 1, 3, 2}) == 2.5,
        "median of odd and even counts");

  // Self time: a span minus its children, nested or replayed.
  std::vector<Span> spans = {
      {"request", 0, 100, -1, 1},     // 0: the service call
      {"discovery", 5, 15, 0, 1},     // 1: nested child, 10
      {"expand", 20, 80, 0, 1},       // 2: nested child, 60
      {"traversal", 200, 212, 0, 1},  // 3: replayed child, 12
      {"integration", 90, 95, -1, 2}, // 4: another request's span
      {"request", 300, 310, -1, 2},   // 5: a second call, no children
  };
  Check(SelfNs(spans[0], spans, 0) == 100 - 10 - 60 - 12,
        "self time subtracts every child, nested or replayed");
  Check(SelfNs(spans[5], spans, 5) == 10, "a childless span is all self");
  Check(SelfNs(spans[1], spans, 1) == 10, "a leaf layer span is all self");

  Tracer tr;
  const int64_t parent = tr.Add("request", 0, 50, -1, 9);
  const int value = tr.Time("expand", parent, 9, [] { return 42; });
  Check(value == 42 && tr.spans().size() == 2 &&
            tr.spans()[1].parent == parent && tr.spans()[1].request == 9,
        "Tracer::Time records a child span and returns the result");

  // Seeded sequences: same seed, same order; a permutation; seeds differ.
  const auto a = SeededPermutation(26, 5), b = SeededPermutation(26, 5);
  const auto c = SeededPermutation(26, 6);
  Check(a == b && SequenceDigest(a) == SequenceDigest(b),
        "same seed gives the same sequence and digest");
  Check(std::set<size_t>(a.begin(), a.end()).size() == 26,
        "the sequence is a permutation of the sources");
  Check(a != c && SequenceDigest(a) != SequenceDigest(c),
        "another seed gives another order");

  std::printf("%s\n", failures ? "selftest FAILED" : "selftest units passed");
  return failures ? 1 : 0;
}
