// Tail-latency harness for ReclaimService's deadline-aware admission
// (DESIGN.md §5.9).
//
// An open-loop load generator replays a zipf-popular source mix against
// one resident service at a fixed arrival rate — arrivals are scheduled
// on a clock, not gated on completions, so queue delay is charged to
// the request (no coordinated omission): latency = completion −
// INTENDED arrival. Requests carry a priority mix (10% kHigh /
// 60% kNormal / 30% kBatch) and a registry-churn thread reloads the
// shard from a snapshot throughout, exactly the production shape the
// admission queue exists for. Two modes run back to back:
//
//   baseline:  AdmissionPolicy::kBlock, no deadlines — the pre-§5.9
//              service. Overload backs up the queue and the generator,
//              and every request eventually runs.
//   treatment: AdmissionPolicy::kShedOldest + per-class deadlines
//              (kHigh 0.5s, kNormal 1.0s, kBatch none). Overload sheds
//              the oldest low-priority work and expires dead-on-arrival
//              requests instead of running them.
//
// Per-priority latency percentiles (HDR-style recorder, bench/recorder.h)
// and outcome counts go to BENCH_tail.json (schema in bench/README.md).
// The headline number: treatment kHigh p99 vs baseline kHigh p99.
//
// Environment knobs:
//   GENT_TAIL_SECONDS  seconds of open-loop load per mode (default 8)
//   GENT_TAIL_RATE     arrival rate, req/s (default 0 = calibrate to
//                      ~1.5x measured service throughput)
//   GENT_TAIL_THREADS  service pool threads (default 4)
//   GENT_TAIL_QCAP     admission queue capacity (default 32)
//   GENT_TAIL_NOISE    distractor tables in the lake (default 40)
//   GENT_TAIL_ALPHA    zipf exponent over sources (default 1.1)
//   GENT_TAIL_CHURN_MS snapshot-reload period, 0 = no churn (default 500)
//   GENT_TAIL_SEED     rng seed (default 42)

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/recorder.h"
#include "src/engine/reclaim_service.h"
#include "src/lake/snapshot.h"

using namespace gent;
using namespace gent::bench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kClasses = kNumPriorityClasses;
const char* kClassName[kClasses] = {"high", "normal", "batch"};

struct ModeConfig {
  std::string name;
  AdmissionPolicy policy = AdmissionPolicy::kBlock;
  // Per-class end-to-end deadline, seconds (0 = none), indexed by
  // RequestPriority.
  double deadline_s[kClasses] = {0.0, 0.0, 0.0};
};

struct ClassOutcome {
  Recorder latency;  // OK completions only, ns since intended arrival
  uint64_t submitted = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;      // ResourceExhausted (shed or rejected at admission)
  uint64_t timeout = 0;   // kTimeout (in queue or mid-flight)
  uint64_t other = 0;
};

struct ModeResult {
  ClassOutcome per_class[kClasses];
  double wall_s = 0.0;
  double offered_rate = 0.0;  // intended arrivals / wall
  ReclaimService::AdmissionStats admission;
};

struct Flight {
  ReclaimTicket ticket;
  Clock::time_point intended;
  size_t pri = 1;
  bool rejected_at_submit = false;
};

// Zipf CDF over the source set: source i has weight (i+1)^-alpha.
std::vector<double> ZipfCdf(size_t n, double alpha) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -alpha);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

size_t SampleCdf(const std::vector<double>& cdf, double u) {
  return static_cast<size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

// 10% high / 60% normal / 30% batch.
size_t SamplePriority(double u) {
  if (u < 0.10) return 0;
  if (u < 0.70) return 1;
  return 2;
}

ModeResult RunMode(const ModeConfig& mode, const TpTrBenchmark& bench,
                   const std::vector<Table>& sources,
                   const std::string& churn_snapshot, size_t threads,
                   size_t qcap, double rate, double seconds, double alpha,
                   size_t churn_ms, uint64_t seed) {
  ServiceOptions options;
  options.dict = bench.lake->dict();
  options.num_threads = threads;
  options.cache_capacity = 0;  // measure the pipeline, not the cache
  options.admission_capacity = qcap;
  options.admission_policy = mode.policy;
  ReclaimService service(std::move(options));
  if (Status s = service.AddLakeView("lake", *bench.lake); !s.ok()) {
    std::fprintf(stderr, "AddLakeView: %s\n", s.ToString().c_str());
    std::exit(1);
  }

  // Registry churn: reload the shard from its snapshot for the whole
  // run. Every reload retires the old shard (in-flight requests drain
  // on their pinned snapshot) and invalidates its uid.
  std::atomic<bool> stop_churn{false};
  std::thread churn;
  if (churn_ms > 0) {
    churn = std::thread([&]() {
      while (!stop_churn.load(std::memory_order_relaxed)) {
        Status s = service.ReloadLakeFromSnapshot("lake", churn_snapshot);
        if (!s.ok()) {
          std::fprintf(stderr, "churn reload: %s\n", s.ToString().c_str());
          return;
        }
        for (size_t slept = 0;
             slept < churn_ms && !stop_churn.load(std::memory_order_relaxed);
             slept += 20) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
    });
  }

  const std::vector<double> cdf = ZipfCdf(sources.size(), alpha);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::exponential_distribution<double> interarrival(rate);

  std::vector<Flight> flights;
  flights.reserve(static_cast<size_t>(rate * seconds) + 16);

  ModeResult out;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point next = start;
  while (next < end) {
    // Open loop: the arrival schedule never waits for completions.
    // (Under kBlock an overloaded SubmitReclaim stalls this thread —
    // that queue-full delay is precisely the baseline's cost, and it
    // is charged to every later intended arrival.)
    std::this_thread::sleep_until(next);
    Flight flight;
    flight.intended = next;
    flight.pri = SamplePriority(uni(rng));
    const size_t src = SampleCdf(cdf, uni(rng));

    ReclaimRequest request;
    request.lake = "lake";
    request.max_rows = 2'000'000;
    request.priority = static_cast<RequestPriority>(flight.pri);
    request.deadline_seconds = mode.deadline_s[flight.pri];
    auto ticket = service.SubmitReclaim(sources[src].Clone(), request);
    if (ticket.ok()) {
      flight.ticket = std::move(*ticket);
    } else {
      flight.rejected_at_submit = true;  // kShedOldest: outranked newcomer
    }
    flights.push_back(std::move(flight));
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(interarrival(rng)));
  }
  const double gen_wall = std::chrono::duration<double>(Clock::now() - start)
                              .count();

  // Drain: every ticket resolves (run, shed, timed out, or cancelled).
  for (Flight& flight : flights) {
    ClassOutcome& c = out.per_class[flight.pri];
    ++c.submitted;
    if (flight.rejected_at_submit) {
      ++c.shed;
      continue;
    }
    const auto& result = flight.ticket.Wait();
    if (result.ok()) {
      ++c.ok;
      const auto done = flight.ticket.completed_at();
      const uint64_t ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              done - flight.intended)
              .count());
      c.latency.Record(ns);
    } else if (result.status().code() == StatusCode::kResourceExhausted) {
      ++c.shed;
    } else if (result.status().code() == StatusCode::kTimeout) {
      ++c.timeout;
    } else {
      ++c.other;
    }
  }
  out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  out.offered_rate =
      gen_wall > 0 ? static_cast<double>(flights.size()) / gen_wall : 0.0;
  out.admission = service.admission_stats();

  stop_churn.store(true, std::memory_order_relaxed);
  if (churn.joinable()) churn.join();
  return out;
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

void PrintMode(const ModeConfig& mode, const ModeResult& r) {
  std::printf("\n--- %s (wall %.2fs, offered %.1f req/s) ---\n",
              mode.name.c_str(), r.wall_s, r.offered_rate);
  std::printf("%-7s %6s %6s %5s %5s %5s %9s %9s %9s %9s\n", "class", "sub",
              "ok", "shed", "t/o", "other", "p50ms", "p90ms", "p99ms",
              "p999ms");
  for (size_t p = 0; p < kClasses; ++p) {
    const ClassOutcome& c = r.per_class[p];
    std::printf("%-7s %6llu %6llu %5llu %5llu %5llu %9.1f %9.1f %9.1f %9.1f\n",
                kClassName[p], static_cast<unsigned long long>(c.submitted),
                static_cast<unsigned long long>(c.ok),
                static_cast<unsigned long long>(c.shed),
                static_cast<unsigned long long>(c.timeout),
                static_cast<unsigned long long>(c.other),
                Ms(c.latency.Percentile(0.50)), Ms(c.latency.Percentile(0.90)),
                Ms(c.latency.Percentile(0.99)),
                Ms(c.latency.Percentile(0.999)));
  }
  std::printf("admission: shed=%llu doa=%llu rejected=%llu\n",
              static_cast<unsigned long long>(r.admission.shed),
              static_cast<unsigned long long>(
                  r.admission.deadline_expired_in_queue),
              static_cast<unsigned long long>(r.admission.rejected));
}

void WriteModeJson(std::FILE* f, const ModeConfig& mode, const ModeResult& r,
                   bool last) {
  std::fprintf(f, "  \"%s\": {\n", mode.name.c_str());
  std::fprintf(f, "    \"wall_seconds\": %.3f,\n", r.wall_s);
  std::fprintf(f, "    \"offered_rate\": %.2f,\n", r.offered_rate);
  std::fprintf(
      f, "    \"admission\": {\"shed\": %llu, \"doa\": %llu, \"rejected\": %llu},\n",
      static_cast<unsigned long long>(r.admission.shed),
      static_cast<unsigned long long>(r.admission.deadline_expired_in_queue),
      static_cast<unsigned long long>(r.admission.rejected));
  for (size_t p = 0; p < kClasses; ++p) {
    const ClassOutcome& c = r.per_class[p];
    std::fprintf(
        f,
        "    \"%s\": {\"submitted\": %llu, \"ok\": %llu, \"shed\": %llu, "
        "\"timeout\": %llu, \"other\": %llu, \"p50_ms\": %.3f, "
        "\"p90_ms\": %.3f, \"p99_ms\": %.3f, \"p999_ms\": %.3f, "
        "\"max_ms\": %.3f}%s\n",
        kClassName[p], static_cast<unsigned long long>(c.submitted),
        static_cast<unsigned long long>(c.ok),
        static_cast<unsigned long long>(c.shed),
        static_cast<unsigned long long>(c.timeout),
        static_cast<unsigned long long>(c.other),
        Ms(c.latency.Percentile(0.50)), Ms(c.latency.Percentile(0.90)),
        Ms(c.latency.Percentile(0.99)), Ms(c.latency.Percentile(0.999)),
        Ms(c.latency.max()), p + 1 < kClasses ? "," : "");
  }
  std::fprintf(f, "  }%s\n", last ? "" : ",");
}

}  // namespace

int main() {
  const double seconds = EnvDouble("GENT_TAIL_SECONDS", 8.0);
  double rate = EnvDouble("GENT_TAIL_RATE", 0.0);
  const size_t threads = EnvSize("GENT_TAIL_THREADS", 4);
  const size_t qcap = EnvSize("GENT_TAIL_QCAP", 32);
  const size_t noise = EnvSize("GENT_TAIL_NOISE", 40);
  const double alpha = EnvDouble("GENT_TAIL_ALPHA", 1.1);
  const size_t churn_ms = EnvSize("GENT_TAIL_CHURN_MS", 500);
  const uint64_t seed = EnvSize("GENT_TAIL_SEED", 42);

  auto bench = MakeTpTrBenchmark("TP-TR Small", TpTrSmallConfig());
  if (!bench.ok()) {
    std::fprintf(stderr, "benchmark generation failed: %s\n",
                 bench.status().ToString().c_str());
    return 1;
  }
  if (noise > 0) {
    auto embedded = EmbedInNoiseLake(*bench, noise, 99);
    if (embedded.ok()) bench = std::move(embedded);
  }
  std::vector<Table> sources;
  for (const auto& spec : bench->sources) {
    sources.push_back(spec.source.Clone());
  }

  // The churn thread reloads the shard from this snapshot of the lake.
  const std::string snapshot_path = "/tmp/gent_bench_tail.snapshot";
  if (Status s = SaveSnapshotV2(*bench->lake,
                                GenT(*bench->lake).catalog().section_views(),
                                snapshot_path);
      !s.ok()) {
    std::fprintf(stderr, "SaveSnapshotV2: %s\n", s.ToString().c_str());
    return 1;
  }

  // Calibrate the offered rate to ~1.5x service throughput so both
  // modes run in sustained overload (where admission policy matters).
  double mean_service_s = 0.0;
  {
    ServiceOptions options;
    options.dict = bench->lake->dict();
    options.num_threads = threads;
    options.cache_capacity = 0;
    ReclaimService service(std::move(options));
    if (!service.AddLakeView("lake", *bench->lake).ok()) return 1;
    ReclaimRequest request;
    request.lake = "lake";
    request.max_rows = 2'000'000;
    const size_t probes = std::min<size_t>(6, sources.size());
    auto t0 = Clock::now();
    for (size_t i = 0; i < probes; ++i) {
      (void)service.Reclaim(sources[i], request);
    }
    mean_service_s = std::chrono::duration<double>(Clock::now() - t0).count() /
                     static_cast<double>(probes);
  }
  if (rate <= 0.0) {
    rate = mean_service_s > 0
               ? 1.5 * static_cast<double>(threads) / mean_service_s
               : 50.0;
  }
  std::printf("=== ReclaimService tail latency (%s, %zu sources, "
              "%zu threads, qcap %zu) ===\n",
              bench->name.c_str(), sources.size(), threads, qcap);
  std::printf("mean service time %.1f ms → offered rate %.1f req/s, "
              "%.0fs per mode, churn every %zums\n",
              1e3 * mean_service_s, rate, seconds, churn_ms);

  ModeConfig baseline;
  baseline.name = "baseline_block";
  baseline.policy = AdmissionPolicy::kBlock;

  ModeConfig treatment;
  treatment.name = "shed_deadline";
  treatment.policy = AdmissionPolicy::kShedOldest;
  treatment.deadline_s[0] = 0.5;  // kHigh
  treatment.deadline_s[1] = 1.0;  // kNormal
  treatment.deadline_s[2] = 0.0;  // kBatch: best-effort, no deadline

  ModeResult base = RunMode(baseline, *bench, sources, snapshot_path, threads,
                            qcap, rate, seconds, alpha, churn_ms, seed);
  ModeResult shed = RunMode(treatment, *bench, sources, snapshot_path, threads,
                            qcap, rate, seconds, alpha, churn_ms, seed);
  PrintMode(baseline, base);
  PrintMode(treatment, shed);

  const double base_p99 = Ms(base.per_class[0].latency.Percentile(0.99));
  const double shed_p99 = Ms(shed.per_class[0].latency.Percentile(0.99));
  std::printf("\nkHigh p99: baseline %.1f ms → shed+deadline %.1f ms\n",
              base_p99, shed_p99);

  std::FILE* f = std::fopen("BENCH_tail.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_tail.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"tail\",\n");
  WriteCpuMetadataJson(f);
  std::fprintf(f, "  \"benchmark\": \"%s\",\n", bench->name.c_str());
  std::fprintf(f,
               "  \"threads\": %zu,\n  \"queue_capacity\": %zu,\n"
               "  \"offered_rate\": %.2f,\n  \"seconds_per_mode\": %.1f,\n"
               "  \"zipf_alpha\": %.2f,\n  \"churn_ms\": %zu,\n"
               "  \"mean_service_ms\": %.3f,\n",
               threads, qcap, rate, seconds, alpha, churn_ms,
               1e3 * mean_service_s);
  WriteModeJson(f, baseline, base, /*last=*/false);
  WriteModeJson(f, treatment, shed, /*last=*/true);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_tail.json\n");

  // Sanity gate only: both modes must have completed work. The p99
  // comparison is reported, not asserted (machine-speed dependent).
  const bool sane = base.per_class[1].ok > 0 && shed.per_class[1].ok > 0;
  if (!sane) std::fprintf(stderr, "sanity: no OK completions in a mode\n");
  std::remove(snapshot_path.c_str());
  return sane ? 0 : 1;
}
