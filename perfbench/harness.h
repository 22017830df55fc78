// Benchmark-side helpers shared by the service benchmark (perfbench.cc)
// and its self-tests (selftest.cc): seeded operation orders, supported
// percentiles, spans with self-time arithmetic, the environment stamp,
// and the JSON writer for the result line. Nothing here reaches into
// the program under test beyond its public headers.

#ifndef GENT_PERFBENCH_HARNESS_H_
#define GENT_PERFBENCH_HARNESS_H_

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/cpu_features.h"
#include "src/util/hash.h"
#include "src/util/simd.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- Seeded operation order ---------------------------------------------------

/// Fisher–Yates over [0, n) driven by SplitMix64, so the order depends
/// only on (n, seed) — not on the standard library's distributions.
inline std::vector<size_t> SeededPermutation(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  uint64_t state = gent::SplitMix64(seed ^ 0x5bd1e995ULL);
  for (size_t i = n; i > 1; --i) {
    state = gent::SplitMix64(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

/// Order-sensitive digest of an operation sequence (reported so two
/// runs can show they executed the same requests).
inline uint64_t SequenceDigest(const std::vector<size_t>& ops) {
  uint64_t h = 0x243f6a8885a308d3ULL ^ ops.size();
  for (size_t op : ops) h = gent::SplitMix64(h ^ op);
  return h;
}

// --- Percentiles ------------------------------------------------------------

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; below that it is one or two samples' noise.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile q ∈ (0, 1) of `samples`, or nullopt when
/// fewer than kMinSamplesBeyond samples lie beyond the chosen rank
/// (so p50 needs ≥ 20 samples and p90 needs ≥ 100).
inline std::optional<double> SupportedPercentile(std::vector<double> samples,
                                                 double q) {
  const size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::max<size_t>(1, std::min(rank, n));
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Plain median (mean of the middle pair for even counts). Used for
/// summaries of a handful of repeats, e.g. the set-up time over K
/// set-ups, where no tail is claimed.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// --- Spans ------------------------------------------------------------------

/// One timed interval at a layer boundary. `parent` is the index of the
/// span that caused it (-1 for a root); spans of one request share
/// `request`. Replayed layer calls are recorded with the service call
/// they explain as parent even though they run after it; a parent's
/// children never overlap each other.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of `parent`: its duration minus the time its children
/// account for. May be negative when replayed children ran slower than
/// the call they explain; callers report it as measured.
inline int64_t SelfNs(const Span& parent, const std::vector<Span>& spans,
                      int64_t parent_index) {
  int64_t self = parent.duration_ns();
  for (const Span& s : spans) {
    if (s.parent == parent_index) self -= s.duration_ns();
  }
  return self;
}

/// In-memory span log, written out once when the run ends.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  int64_t ToNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  int64_t Add(std::string name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t request) {
    spans_.push_back({std::move(name), start_ns, end_ns, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Times `fn` as a span; returns fn's result.
  template <typename Fn>
  auto Time(const std::string& name, int64_t parent, uint64_t request,
            Fn&& fn) {
    const int64_t start = Now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Add(name, start, Now(), parent, request);
    } else {
      auto result = fn();
      Add(name, start, Now(), parent, request);
      return result;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.duration_ns() / 1e6);
    }
    return out;
  }

  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}%s\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// --- Environment stamp ------------------------------------------------------

/// Filesystem type of `path` by statfs magic (the snapshot files live
/// there, and fsync cost differs by orders of magnitude between them).
inline std::string FilesystemType(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794c7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

/// JSON object text for the environment stamp: nproc, clients, the
/// SIMD dispatch fields of bench/bench_common.h's cpu block, the
/// snapshot filesystem type, and the seed.
inline std::string EnvironmentJson(size_t clients, const std::string& fs,
                                   uint64_t seed) {
  const gent::CpuFeatures& cpu = gent::DetectCpuFeatures();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %ld, \"clients\": %zu, \"cpu\": {\"popcnt\": %s, "
      "\"avx2\": %s, \"bmi2\": %s, \"dispatch\": \"%s\", "
      "\"force_scalar\": %s}, \"snapshot_fs\": \"%s\", \"seed\": %llu}",
      sysconf(_SC_NPROCESSORS_ONLN), clients, cpu.popcnt ? "true" : "false",
      cpu.avx2 ? "true" : "false", cpu.bmi2 ? "true" : "false",
      gent::DispatchLevelName(gent::simd::ActiveDispatchLevel()),
      gent::ForceScalarRequested() ? "true" : "false", fs.c_str(),
      static_cast<unsigned long long>(seed));
  return buf;
}

/// Host speed probe: the best of five runs of a fixed 2^20-step
/// SplitMix64 chain, in ms. A shared host's CPU speed drifts by tens of
/// percent over minutes; stamping this beside a run's figures shows how
/// much of a run-to-run difference is the host rather than the program.
inline double HostCalibrationMs() {
  uint64_t x = 1;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < (1 << 20); ++i) x = gent::SplitMix64(x);
    const double ms = MsBetween(t0, Clock::now());
    if (rep == 0 || ms < best) best = ms;
  }
  return x == 0 ? -best : best;  // consumes x so the loop stays
}

// --- Result JSON ------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

inline std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench

#endif  // GENT_PERFBENCH_HARNESS_H_
