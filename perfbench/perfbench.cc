// Service benchmark for ReclaimService: four seeded workloads driven
// through the public API from one process, every answer checked, and a
// separate traced mode that replays the same operations and times each
// layer's public entry point. Usage (normally through run.py):
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --run-dir <dir>
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; a "# detail" line before it carries the environment stamp,
// the operation counts, workload-only metrics and the cache counters.
// perfbench/README.md documents the workloads, the metrics and the
// steadiness rules.

#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "src/benchgen/benchmarks.h"
#include "src/benchgen/noise_lake.h"
#include "src/engine/column_stats_catalog.h"
#include "src/engine/reclaim_service.h"
#include "src/gent/gent.h"
#include "src/integration/integrator.h"
#include "src/lake/snapshot.h"
#include "src/matrix/expand.h"
#include "src/matrix/traversal.h"
#include "src/metrics/similarity.h"
#include "src/storage/io.h"

namespace perfbench {
namespace {

using gent::DataLake;
using gent::DictionaryPtr;
using gent::ReclaimRequest;
using gent::ReclaimService;
using gent::ReclamationResult;
using gent::ServiceOptions;
using gent::Status;
using gent::Table;

// --- Fixed workload shape (see README.md for why each value) ----------------

constexpr size_t kNoiseTables = 400;       // distractors around TP-TR Small
constexpr uint64_t kNoiseSeed = 29;        // fixed: every seed runs one lake
constexpr uint64_t kMaxRows = 2'000'000;   // row budget, no deadline
constexpr size_t kColdCacheCapacity = 16;  // < 26 sources: LRU always misses
constexpr size_t kWarmCacheCapacity = 64;  // ≥ 26 sources: always hits
constexpr size_t kColdMinPasses = 4;       // 104 requests: p90 supported
constexpr double kColdPerSecond = 12;      // cold requests per --second
constexpr size_t kReadsPerSecond = 600;    // warm / ingest reads per --second
constexpr size_t kReadsMin = 2000;
constexpr size_t kRestartsPerSecond = 2;
constexpr size_t kRestartsMin = 20;        // p50 supported (≥ 20)
constexpr size_t kRestartProbe = 22;       // cheapest TP-TR Med source
constexpr size_t kAppends = 104;           // p90 of append latency supported
constexpr size_t kCompactEvery = 8;        // the default compaction policy
constexpr size_t kStreamInitialTables = 8;
constexpr size_t kColdSetups = 15;         // set-ups per run (median)
constexpr size_t kWarmSetups = 3;
constexpr size_t kRestartSetups = 5;
constexpr size_t kProbeRepeats = 3;        // traced restart probe repeats
constexpr size_t kProbeAppends = 16;       // traced append probe: two folds

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir = ".bench_run";
};

size_t Clients() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<size_t>(std::max<long>(1, std::min<long>(2, n / 2)));
}

ServiceOptions MakeOptions(size_t threads, size_t cache_capacity,
                           DictionaryPtr dict) {
  ServiceOptions o;
  o.num_threads = threads;
  o.cache_capacity = cache_capacity;
  o.dict = std::move(dict);
  o.config.expand.num_threads = 1;
  o.config.traversal.num_threads = 1;
  o.storage.compact_after_runs = 0;  // the harness compacts at fixed points
  return o;
}

/// The pipeline configuration every service here runs with.
gent::GenTConfig ServiceConfig() { return MakeOptions(1, 0, nullptr).config; }

ReclaimRequest Request(const std::string& lake) {
  ReclaimRequest r;
  r.lake = lake;
  r.max_rows = kMaxRows;
  return r;
}

double HeapMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / 1e6;
}

double Seconds(Clock::time_point t0) {
  return MsBetween(t0, Clock::now()) / 1e3;
}

[[noreturn]] void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(2);
}

template <typename T>
T Must(gent::Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what, r.status());
  return std::move(*r);
}

void MustOk(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what, s);
}

// --- Inputs -----------------------------------------------------------------

struct Lake {
  std::unique_ptr<DataLake> lake;
  std::vector<Table> sources;
};

Lake SmallNoiseLake() {
  auto base = Must(gent::MakeTpTrBenchmark("TP-TR Small",
                                           gent::TpTrSmallConfig()),
                   "TP-TR Small");
  auto noisy = Must(gent::EmbedInNoiseLake(base, kNoiseTables, kNoiseSeed),
                    "noise lake");
  Lake out;
  out.lake = std::move(noisy.lake);
  for (const auto& spec : noisy.sources) out.sources.push_back(spec.source.Clone());
  return out;
}

Lake MedLake() {
  auto med = Must(gent::MakeTpTrBenchmark("TP-TR Med", gent::TpTrMedConfig()),
                  "TP-TR Med");
  Lake out;
  out.lake = std::move(med.lake);
  for (const auto& spec : med.sources) out.sources.push_back(spec.source.Clone());
  return out;
}

/// Seeded distractor stream for a stream shard: an initial lake plus
/// kAppends batches of one or two tables, generated in `lake`'s
/// dictionary from slices of its tables.
struct Stream {
  std::vector<Table> initial;
  std::vector<std::vector<Table>> batches;
  size_t appended_tables = 0;
};

Stream MakeStream(const DataLake& lake, uint64_t seed) {
  std::vector<size_t> sizes(kAppends);
  uint64_t state = gent::SplitMix64(seed ^ 0x9e37ULL);
  size_t total = kStreamInitialTables;
  for (size_t& s : sizes) {
    state = gent::SplitMix64(state);
    s = 1 + (state & 1);
    total += s;
  }
  gent::NoiseLakeConfig cfg;
  cfg.num_tables = total;
  cfg.seed = gent::SplitMix64(seed);
  std::vector<Table> tables = gent::GenerateNoiseLake(lake.dict(),
                                                      lake.tables(), cfg);
  Stream out;
  size_t next = 0;
  for (; next < kStreamInitialTables; ++next) {
    tables[next].set_name("stream_init_" + std::to_string(next));
    out.initial.push_back(std::move(tables[next]));
  }
  for (size_t b = 0; b < sizes.size(); ++b) {
    std::vector<Table> batch;
    for (size_t i = 0; i < sizes[b]; ++i, ++next) {
      tables[next].set_name("stream_" + std::to_string(b) + "_" +
                            std::to_string(i));
      batch.push_back(std::move(tables[next]));
    }
    out.appended_tables += batch.size();
    out.batches.push_back(std::move(batch));
  }
  return out;
}

/// Writes `lake` as a v2 snapshot (body + built catalog) to `path`.
void SaveV2(const DataLake& lake, const std::string& path) {
  gent::ColumnStatsCatalog catalog(lake);
  MustOk(gent::SaveSnapshotV2(lake, catalog.section_views(), path), path);
}

// --- Answers and their checks -------------------------------------------------

struct Answer {
  Table reclaimed;
  std::vector<std::string> names;
};

bool SameAnswer(const Answer& a, const Table& reclaimed,
                const std::vector<std::string>& names) {
  return gent::TablesBitIdentical(a.reclaimed, reclaimed) && a.names == names;
}

/// The first answer per source; every later answer for the same source
/// must be bit-identical to it.
class AnswerBook {
 public:
  explicit AnswerBook(size_t sources) : slots_(sources) {}

  /// Records or checks `r` for source `s`; false on a mismatch.
  bool Check(size_t s, const ReclamationResult& r) {
    Slot& slot = slots_[s];
    std::lock_guard<std::mutex> lock(slot.mu);
    if (!slot.answer) {
      slot.answer.emplace(Answer{r.reclaimed.Clone(), r.originating_names});
      return true;
    }
    return SameAnswer(*slot.answer, r.reclaimed, r.originating_names);
  }

  const std::optional<Answer>& at(size_t s) const { return slots_[s].answer; }

 private:
  struct Slot {
    std::mutex mu;
    std::optional<Answer> answer;
  };
  std::vector<Slot> slots_;
};

// --- Closed-loop clients ------------------------------------------------------

struct LoopResult {
  std::vector<double> latency_ms;  // per completed operation
  size_t failed = 0;
  double wall_s = 0.0;
  std::vector<std::string> errors;
};

/// `clients` closed-loop clients take operations from `ops` in order
/// (each op is a source index); each submits, waits, and checks the
/// answer.
LoopResult RunClosedLoop(const ReclaimService& service,
                         const ReclaimRequest& request,
                         const std::vector<Table>& sources,
                         const std::vector<size_t>& ops, size_t clients,
                         AnswerBook* book) {
  std::atomic<size_t> next{0};
  std::vector<double> latency(ops.size(), -1.0);
  std::atomic<size_t> failed{0};
  std::mutex errors_mu;
  std::vector<std::string> errors;
  auto client = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= ops.size()) return;
      const size_t s = ops[i];
      Table source = sources[s].Clone();
      const Clock::time_point t0 = Clock::now();
      auto ticket = service.SubmitReclaim(std::move(source), request);
      std::string error;
      if (!ticket.ok()) {
        error = ticket.status().ToString();
      } else {
        const auto& r = ticket->Wait();
        latency[i] = MsBetween(t0, ticket->completed_at());
        if (!r.ok()) {
          error = r.status().ToString();
        } else if (!book->Check(s, *r)) {
          error = "answer differs from the first answer for source " +
                  std::to_string(s);
        }
      }
      if (!error.empty()) {
        failed.fetch_add(1);
        std::lock_guard<std::mutex> lock(errors_mu);
        if (errors.size() < 4) errors.push_back(std::move(error));
      }
    }
  };
  LoopResult out;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(client);
  for (auto& t : threads) t.join();
  out.wall_s = Seconds(start);
  for (double l : latency) {
    if (l >= 0) out.latency_ms.push_back(l);
  }
  out.failed = failed.load();
  out.errors = std::move(errors);
  return out;
}

/// `count` operations cycling one seeded permutation of the sources: a
/// source recurs exactly `sources` operations after itself.
std::vector<size_t> CyclicOps(size_t sources, uint64_t seed, size_t count) {
  const std::vector<size_t> order = SeededPermutation(sources, seed);
  std::vector<size_t> ops(count);
  for (size_t i = 0; i < count; ++i) ops[i] = order[i % sources];
  return ops;
}

size_t OpsFor(double seconds, size_t per_second, size_t minimum) {
  return std::max(minimum,
                  static_cast<size_t>(std::ceil(seconds * per_second)));
}

// --- Pipeline replay (the exact composition of GenT::Reclaim) ---------------

struct ReplayStats {
  size_t candidates = 0;
  size_t tables_out = 0;
  size_t dropped = 0;
  size_t selected = 0;
  size_t rows_out = 0;
};

/// Runs Discovery → Expand → MatrixTraversal → IntegrateTables for
/// `source` on `gent`, one span per layer under (parent, request) when
/// `tracer` is set. `expanded` (optional) receives clones of the
/// expanded tables for later hit replays.
gent::Result<Answer> ReplayMiss(const gent::GenT& gent, const Table& source,
                                Tracer* tracer, int64_t parent,
                                uint64_t request, ReplayStats* stats,
                                std::vector<Table>* expanded);

/// Traversal + integration over already-expanded tables: what the
/// service runs on a discovery-cache hit.
gent::Result<Answer> ReplayHit(const gent::GenT& gent, const Table& source,
                               const std::vector<Table>& expanded,
                               Tracer* tracer, int64_t parent,
                               uint64_t request, ReplayStats* stats) {
  gent::OpLimits limits;
  limits.MaxRows(kMaxRows);
  std::vector<Table> tables;
  tables.reserve(expanded.size());
  for (const Table& t : expanded) tables.push_back(t.Clone());
  Tracer scratch;
  Tracer& tr = tracer != nullptr ? *tracer : scratch;
  auto traversal = tr.Time("traversal", parent, request, [&] {
    return gent::MatrixTraversal(source, tables, gent.config().traversal,
                                 limits);
  });
  if (!traversal.ok()) return traversal.status();
  std::vector<Table> originating;
  for (size_t i : traversal->selected) originating.push_back(tables[i].Clone());
  gent::IntegrationOptions integration = gent.config().integration;
  integration.limits = limits;
  auto reclaimed = tr.Time("integration", parent, request, [&] {
    return gent::IntegrateTables(source, originating, integration);
  });
  if (!reclaimed.ok()) return reclaimed.status();
  if (stats != nullptr) {
    stats->selected = traversal->selected.size();
    stats->rows_out = reclaimed->num_rows();
  }
  Answer answer{std::move(*reclaimed), {}};
  for (const Table& t : originating) answer.names.push_back(t.name());
  return answer;
}

gent::Result<Answer> ReplayMiss(const gent::GenT& gent, const Table& source,
                                Tracer* tracer, int64_t parent,
                                uint64_t request, ReplayStats* stats,
                                std::vector<Table>* expanded) {
  gent::OpLimits limits;
  limits.MaxRows(kMaxRows);
  Tracer scratch;
  Tracer& tr = tracer != nullptr ? *tracer : scratch;
  auto candidates = tr.Time("discovery", parent, request, [&] {
    return gent.DiscoverCandidates(source, gent.config().discovery, limits);
  });
  if (!candidates.ok()) return candidates.status();
  auto expand = tr.Time("expand", parent, request, [&] {
    return gent::Expand(source, *candidates, limits, gent.config().expand);
  });
  if (!expand.ok()) return expand.status();
  if (stats != nullptr) {
    stats->candidates = candidates->size();
    stats->tables_out = expand->tables.size();
    stats->dropped = expand->num_dropped;
  }
  if (expanded != nullptr) {
    expanded->clear();
    for (const Table& t : expand->tables) expanded->push_back(t.Clone());
  }
  return ReplayHit(gent, source, expand->tables, tracer, parent, request,
                   stats);
}

double Eis(const Table& source, const Table& reclaimed) {
  auto eis = gent::EisScore(source, reclaimed);
  return eis.ok() ? *eis : -1.0;
}

/// Output check: for every distinct source, replays the pipeline on a
/// GenT over the shard's lake and compares it with the service's
/// answer (bit-identical table, same originating names, same EIS).
/// Returns the number of mismatching sources and fills `eis_mean` with
/// the mean EIS of the service's answers.
size_t VerifyAgainstReplay(const gent::GenT& gent,
                           const std::vector<Table>& sources,
                           const AnswerBook& book, double* eis_mean,
                           std::vector<std::string>* errors) {
  const size_t n = sources.size();
  std::vector<int> bad(n, 0);
  std::vector<double> eis(n, 0.0);
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t s; (s = next.fetch_add(1)) < n;) {
      const auto& answer = book.at(s);
      if (!answer) continue;  // never asked: nothing to check
      auto replay =
          ReplayMiss(gent, sources[s], nullptr, -1, s, nullptr, nullptr);
      eis[s] = Eis(sources[s], answer->reclaimed);
      bad[s] = !replay.ok() ||
               !SameAnswer(*answer, replay->reclaimed, replay->names) ||
               Eis(sources[s], replay->reclaimed) != eis[s];
    }
  };
  const size_t threads = std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::min(threads, n); ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  size_t mismatches = 0, asked = 0;
  double sum = 0.0;
  for (size_t s = 0; s < n; ++s) {
    if (!book.at(s)) continue;
    ++asked;
    sum += eis[s];
    if (bad[s]) {
      ++mismatches;
      errors->push_back("source " + std::to_string(s) +
                        ": service answer differs from the replay");
    }
  }
  *eis_mean = asked ? sum / asked : 0.0;
  return mismatches;
}

// --- Results ------------------------------------------------------------------

struct RunResult {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  Metrics metrics;             // the result line
  std::string detail = "{";    // the "# detail" line, JSON object body
  std::vector<std::string> errors;

  void Detail(const std::string& key, const std::string& json_value) {
    if (detail.size() > 1) detail += ", ";
    detail += "\"" + key + "\": " + json_value;
  }
  void DetailNum(const std::string& key, double v) { Detail(key, Number(v)); }
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

/// Puts the p50 / p90 of `latency_ms` (when supported) and the sample
/// count on the detail line under `prefix`.
void AddLatency(RunResult* out, const std::string& prefix,
                const std::vector<double>& latency_ms) {
  const auto p50 = SupportedPercentile(latency_ms, 0.5);
  const auto p90 = SupportedPercentile(latency_ms, 0.9);
  out->DetailNum(prefix + "_samples", static_cast<double>(latency_ms.size()));
  if (p50) out->DetailNum(prefix + "_p50_ms", *p50);
  if (p90) out->DetailNum(prefix + "_p90_ms", *p90);
}

std::string JsonList(const std::vector<double>& v) {
  std::string list = "[";
  for (size_t i = 0; i < v.size(); ++i) list += (i ? ", " : "") + Number(v[i]);
  return list + "]";
}

/// latency_p50_ms of a read workload (every timed request) plus the
/// detail-line percentiles. Returns completed requests per second of
/// timed wall time.
double AddReads(RunResult* out, const LoopResult& loop) {
  AddLatency(out, "latency", loop.latency_ms);
  const auto p50 = SupportedPercentile(loop.latency_ms, 0.5);
  if (!p50) out->Fail("too few requests for a supported p50");
  out->metrics["latency_p50_ms"] = {p50.value_or(0.0), "ms"};
  return loop.latency_ms.size() / loop.wall_s;
}

void AddCommon(RunResult* out, double throughput, double eis_mean,
               const std::vector<double>& setup_s, double heap_mb) {
  out->metrics["throughput_rps"] = {throughput, "1/s"};
  out->metrics["eis_mean"] = {eis_mean, "score"};
  out->metrics["setup_s"] = {Median(setup_s), "s"};
  out->metrics["heap_mb"] = {heap_mb, "MB"};
  out->Detail("setup_runs_s", JsonList(setup_s));
}

void AddCacheDetail(RunResult* out, const gent::DiscoveryCache::Stats& before,
                    const gent::DiscoveryCache::Stats& after) {
  out->DetailNum("cache_hits", static_cast<double>(after.hits - before.hits));
  out->DetailNum("cache_misses",
                 static_cast<double>(after.misses - before.misses));
  out->DetailNum("cache_evictions",
                 static_cast<double>(after.evictions - before.evictions));
}

void AddLoop(RunResult* out, const LoopResult& loop, size_t ops) {
  out->attempted += ops;
  out->failed += loop.failed;
  for (const auto& e : loop.errors) out->errors.push_back(e);
}


// --- Traced-run layer summary -----------------------------------------------

constexpr const char* kPipelineLayers[] = {"discovery", "expand", "traversal",
                                           "integration"};

/// Per-layer metrics from the spans of the traced operations (`ops`
/// are their span indices): per-layer medians over every replay, each
/// pipeline layer's share of the operation time it explains, and the
/// service's self time (each "request" span minus its layer replays).
void AddLayerMetrics(RunResult* out, const Tracer& tr,
                     const std::vector<int64_t>& ops,
                     const std::vector<ReplayStats>& stats) {
  const auto& spans = tr.spans();
  std::vector<char> is_op(spans.size(), 0);
  double op_ns = 0.0;
  for (int64_t i : ops) {
    is_op[i] = 1;
    op_ns += spans[i].duration_ns();
  }
  auto under_op = [&](int64_t i) {
    for (int64_t p = spans[i].parent; p >= 0; p = spans[p].parent) {
      if (is_op[p]) return true;
    }
    return is_op[i] != 0;
  };
  std::map<std::string, double> layer_ns;
  std::vector<double> self_ms;
  double self_ns = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!under_op(static_cast<int64_t>(i))) continue;
    if (spans[i].name == "request") {
      const int64_t self = SelfNs(spans[i], spans, static_cast<int64_t>(i));
      self_ms.push_back(self / 1e6);
      self_ns += self;
    } else if (!is_op[i]) {
      layer_ns[spans[i].name] += spans[i].duration_ns();
    }
  }
  out->metrics["service.self_ms"] = {Median(self_ms), "ms"};
  out->metrics["service.self_share"] = {op_ns > 0 ? self_ns / op_ns : 0.0,
                                        "ratio"};
  for (const char* layer : kPipelineLayers) {
    const std::string name(layer);
    out->metrics[name + ".ms"] = {Median(tr.DurationsMs(name)), "ms"};
    out->metrics[name + ".share"] = {op_ns > 0 ? layer_ns[name] / op_ns : 0.0,
                                     "ratio"};
  }
  std::vector<double> candidates, tables_out, dropped, selected, rows_out;
  for (const ReplayStats& s : stats) {
    candidates.push_back(s.candidates);
    tables_out.push_back(s.tables_out);
    dropped.push_back(s.dropped);
    selected.push_back(s.selected);
    rows_out.push_back(s.rows_out);
  }
  out->metrics["discovery.candidates"] = {Median(candidates), "count"};
  out->metrics["expand.tables_out"] = {Median(tables_out), "count"};
  out->metrics["expand.dropped"] = {Median(dropped), "count"};
  out->metrics["traversal.selected"] = {Median(selected), "count"};
  out->metrics["integration.rows_out"] = {Median(rows_out), "count"};
}

void AddOverhead(RunResult* out, const std::vector<double>& untraced_ms,
                 const std::vector<double>& traced_ms) {
  const double a = Median(untraced_ms), b = Median(traced_ms);
  out->metrics["trace.overhead_pct"] = {a > 0 ? (b / a - 1.0) * 100.0 : 0.0,
                                        "%"};
}

// --- Storage layer probes (traced runs) -------------------------------------

/// One traced restart against the v2 snapshot at `path`: construct +
/// AddLakeFromSnapshot + first answer for `probe`, then, attributed to
/// the set-up call, LoadSnapshotBody / VerifySnapshotIntegrity /
/// OpenMapped, and attributed to the first answer, the pipeline replay
/// on the mapped catalog.
struct RestartTrace {
  int64_t span = -1;
  gent::DiscoveryCache::Stats cache;
  size_t queued = 0;
  double faults = 0.0;
  double bytes_resident = 0.0;
  std::optional<Answer> answer;
  ReplayStats stats;
  std::string error;
};

RestartTrace TracedRestart(const std::string& path, const Table& probe,
                           Tracer* tr, uint64_t request) {
  RestartTrace out;
  const int64_t t0 = tr->Now();
  auto service = std::make_unique<ReclaimService>(MakeOptions(1, 16, nullptr));
  const int64_t t1 = tr->Now();
  const Status add = service->AddLakeFromSnapshot("lake", path);
  const int64_t t2 = tr->Now();
  if (!add.ok()) {
    out.error = add.ToString();
    return out;
  }
  auto ticket = service->SubmitReclaim(probe.Clone(), Request("lake"));
  if (!ticket.ok()) {
    out.error = ticket.status().ToString();
    return out;
  }
  out.queued = service->admission_stats().queued;
  const auto& r = ticket->Wait();
  if (!r.ok()) {
    out.error = r.status().ToString();
    return out;
  }
  const int64_t t3 = tr->ToNs(ticket->completed_at());
  out.cache = service->cache_stats();
  out.span = tr->Add("restart", t0, t3, -1, request);
  tr->Add("service.construct", t0, t1, out.span, request);
  const int64_t add_span =
      tr->Add("add_lake_from_snapshot", t1, t2, out.span, request);
  const int64_t answer_span = tr->Add("request", t2, t3, out.span, request);
  const auto residency = service->residency_stats();
  if (!residency.empty()) {
    out.faults = static_cast<double>(residency[0].catalog.pool_faults);
    out.bytes_resident =
        static_cast<double>(residency[0].catalog.bytes_resident);
  }
  out.answer.emplace(Answer{r->reclaimed.Clone(), r->originating_names});

  DataLake scratch;
  const Status load = tr->Time("snapshot.load", add_span, request, [&] {
    return gent::LoadSnapshotBody(scratch, path);
  });
  const Status verify = tr->Time("snapshot.verify", add_span, request, [&] {
    return gent::VerifySnapshotIntegrity(path);
  });
  const DataLake* lake = service->lake("lake").value();
  gent::storage::MappedCatalog::Options mopts;
  mopts.verify_checksums = false;
  auto mapped = tr->Time("catalog.open", add_span, request, [&] {
    return gent::ColumnStatsCatalog::OpenMapped(*lake, path, mopts);
  });
  if (!load.ok() || !verify.ok() || !mapped.ok()) {
    out.error = "snapshot layer replay failed";
    return out;
  }
  gent::GenT replay_gent(std::move(*mapped), ServiceConfig());
  const Table source = gent::TranslateToDictionary(probe, service->dict());
  auto replay = ReplayMiss(replay_gent, source, tr, answer_span, request,
                           &out.stats, nullptr);
  if (!replay.ok() ||
      !SameAnswer(*out.answer, replay->reclaimed, replay->names)) {
    out.error = "restart answer differs from the replay";
  }
  return out;
}

/// Storage reads one restart makes (buffer-pool prefault probes),
/// counted with a disarmed fault injector. Not a timing pass: the
/// injector turns off stdio buffering.
double MapReadsPerRestart(const std::string& path, const Table& probe) {
  gent::io::FaultInjector injector;
  gent::io::ScopedFaultInjector scope(&injector);
  injector.ResetCounts();
  ReclaimService service(MakeOptions(1, 16, nullptr));
  if (!service.AddLakeFromSnapshot("lake", path).ok()) return -1.0;
  auto ticket = service.SubmitReclaim(probe.Clone(), Request("lake"));
  if (!ticket.ok() || !ticket->Wait().ok()) return -1.0;
  return static_cast<double>(injector.CountOf(gent::io::Op::kMapRead));
}

void AddRestartLayers(RunResult* out, const Tracer& tr,
                      const std::vector<double>& faults,
                      const std::vector<double>& resident,
                      double map_reads) {
  out->metrics["snapshot.load_ms"] = {Median(tr.DurationsMs("snapshot.load")),
                                      "ms"};
  out->metrics["snapshot.verify_ms"] = {
      Median(tr.DurationsMs("snapshot.verify")), "ms"};
  out->metrics["catalog.open_ms"] = {Median(tr.DurationsMs("catalog.open")),
                                     "ms"};
  out->metrics["pool.faults"] = {Median(faults), "count"};
  out->metrics["pool.bytes_resident"] = {Median(resident), "bytes"};
  out->metrics["io.map_reads_per_restart"] = {map_reads, "count"};
}

/// Replays a stream shard's appends and folds directly on the snapshot
/// layer: the same tables, the same file format, the calls the
/// service's AppendTablesToLake / CompactShardSnapshot make inside.
class ShadowStream {
 public:
  ShadowStream(const std::vector<Table>& initial, const DictionaryPtr& dict,
               std::string path)
      : lake_(dict), path_(std::move(path)) {
    for (const Table& t : initial) MustOk(lake_.AddTable(t.Clone()), path_);
    SaveV2(lake_, path_);
  }

  Status Append(const std::vector<Table>& batch, Tracer* tr, int64_t parent,
                uint64_t request) {
    const size_t first = lake_.size();
    for (const Table& t : batch) {
      GENT_RETURN_IF_ERROR(lake_.AddTable(t.Clone()));
    }
    const auto run = gent::ColumnStatsCatalog::BuildDeltaRun(lake_, first);
    auto call = [&] {
      return gent::AppendSnapshotDelta(lake_, first, run.views(), path_);
    };
    return tr != nullptr ? tr->Time("snapshot.append", parent, request, call)
                         : call();
  }

  /// Region count and OverlapCounts cost of the layered catalog, the
  /// fold itself, and the OverlapCounts cost after it.
  Status Fold(const Table& query, Tracer* tr, int64_t parent,
              uint64_t request, std::vector<double>* regions,
              std::vector<double>* overlap_us,
              std::vector<double>* overlap_folded_us) {
    GENT_RETURN_IF_ERROR(Probe(query, regions, overlap_us));
    GENT_RETURN_IF_ERROR(tr->Time("snapshot.compact", parent, request, [&] {
      return gent::CompactSnapshotV2(path_);
    }));
    return Probe(query, nullptr, overlap_folded_us);
  }

 private:
  Status Probe(const Table& query, std::vector<double>* regions,
               std::vector<double>* overlap_us) const {
    DataLake opened;
    GENT_RETURN_IF_ERROR(gent::LoadSnapshot(opened, path_));
    gent::storage::MappedCatalog::Options mopts;
    mopts.verify_checksums = false;
    GENT_ASSIGN_OR_RETURN(
        auto catalog, gent::ColumnStatsCatalog::OpenMapped(opened, path_, mopts));
    const std::vector<gent::ValueId> q = gent::SortedQueryValues(
        gent::TranslateToDictionary(query, opened.dict()));
    catalog->OverlapCounts(q);  // fault the postings in once
    std::vector<double> us;
    size_t sink = 0;
    for (int rep = 0; rep < 64; ++rep) {
      const Clock::time_point t0 = Clock::now();
      sink += catalog->OverlapCounts(q).size();
      us.push_back(MsBetween(t0, Clock::now()) * 1e3);
    }
    if (sink == 0 && q.empty()) return Status::Internal("empty query");
    if (regions != nullptr) regions->push_back(catalog->num_regions());
    overlap_us->push_back(Median(us));
    return Status::OK();
  }

  DataLake lake_;
  std::string path_;
};

/// fsyncs and write calls per append, counted with a disarmed fault
/// injector over the first four batches on a private copy of the stream.
void AppendIoCounts(const Stream& stream, const DictionaryPtr& dict,
                    const std::string& path, double* syncs, double* writes) {
  ShadowStream shadow(stream.initial, dict, path);
  gent::io::FaultInjector injector;
  gent::io::ScopedFaultInjector scope(&injector);
  injector.ResetCounts();
  constexpr size_t kBatches = 4;
  for (size_t b = 0; b < kBatches; ++b) {
    MustOk(shadow.Append(stream.batches[b], nullptr, -1, 0), "counting append");
  }
  *syncs = static_cast<double>(injector.CountOf(gent::io::Op::kSync)) / kBatches;
  *writes =
      static_cast<double>(injector.CountOf(gent::io::Op::kWrite)) / kBatches;
}

struct AppendLayers {
  std::vector<double> regions, overlap_us, overlap_folded_us;
};

void AddAppendLayers(RunResult* out, const Tracer& tr, const AppendLayers& a,
                     const Stream& stream, const DictionaryPtr& dict,
                     const std::string& count_path) {
  out->metrics["snapshot.append_ms"] = {
      Median(tr.DurationsMs("snapshot.append")), "ms"};
  out->metrics["snapshot.compact_ms"] = {
      Median(tr.DurationsMs("snapshot.compact")), "ms"};
  out->metrics["catalog.regions"] = {Median(a.regions), "count"};
  out->metrics["catalog.overlap_us"] = {Median(a.overlap_us), "us"};
  out->metrics["catalog.overlap_folded_us"] = {Median(a.overlap_folded_us),
                                               "us"};
  double syncs = 0, writes = 0;
  AppendIoCounts(stream, dict, count_path, &syncs, &writes);
  out->metrics["io.syncs_per_append"] = {syncs, "count"};
  out->metrics["io.writes_per_append"] = {writes, "count"};
}

/// Storage probe for workloads whose operations never append: the first
/// kProbeAppends appends and their folds of the seeded stream, replayed
/// on a shadow snapshot (the start of the ingest writer's sequence).
void ProbeAppends(RunResult* out, Tracer* tr, const Stream& stream,
                  const DictionaryPtr& dict, const Table& query,
                  const std::string& dir) {
  ShadowStream shadow(stream.initial, dict, dir + "/probe_stream.snap");
  AppendLayers a;
  for (size_t b = 0; b < kProbeAppends; ++b) {
    MustOk(shadow.Append(stream.batches[b], tr, -1, b), "probe append");
    if ((b + 1) % kCompactEvery == 0) {
      MustOk(shadow.Fold(query, tr, -1, b, &a.regions, &a.overlap_us,
                         &a.overlap_folded_us),
             "probe fold");
    }
  }
  AddAppendLayers(out, *tr, a, stream, dict, dir + "/count_stream.snap");
}

/// Storage probe for workloads that never restart: kProbeRepeats traced
/// restarts against a v2 snapshot of the workload's lake.
void ProbeRestarts(RunResult* out, Tracer* tr, const std::string& path,
                   const Table& probe) {
  std::vector<double> faults, resident;
  for (size_t i = 0; i < kProbeRepeats; ++i) {
    RestartTrace r = TracedRestart(path, probe, tr, 1'000'000 + i);
    if (!r.error.empty()) out->Fail("restart probe: " + r.error);
    faults.push_back(r.faults);
    resident.push_back(r.bytes_resident);
  }
  AddRestartLayers(out, *tr, faults, resident,
                   MapReadsPerRestart(path, probe));
}

void AddCacheLayers(RunResult* out, const gent::DiscoveryCache::Stats& before,
                    const gent::DiscoveryCache::Stats& after,
                    size_t queue_depth_max) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  out->metrics["cache.hit_ratio"] = {
      hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
  out->metrics["cache.evictions"] = {
      static_cast<double>(after.evictions - before.evictions), "count"};
  out->metrics["admission.queue_depth_max"] = {
      static_cast<double>(queue_depth_max), "count"};
}

struct TracedReads {
  std::vector<int64_t> ops;
  std::vector<ReplayStats> stats;
  std::vector<double> latency_ms;
  size_t queue_depth_max = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
};

class ReadTracer {
 public:
  ReadTracer(const ReclaimService& service, const gent::GenT& replay,
             const std::vector<Table>& sources, const std::string& lake,
             Tracer* tr)
      : service_(service),
        replay_(replay),
        sources_(sources),
        request_(Request(lake)),
        tr_(tr),
        expanded_(sources.size()),
        miss_stats_(sources.size()) {}

  /// One traced read of source `s`: the service call as a "request"
  /// span, then the layer replay attributed to it — the full pipeline on
  /// a cache miss, traversal + integration over the source's expanded
  /// tables on a hit. A failure or a service/replay mismatch counts as
  /// a failed operation in `out`.
  void Read(size_t s, uint64_t id, AnswerBook* book, TracedReads* out) {
    const auto before = service_.cache_stats();
    Table source = sources_[s].Clone();
    const Clock::time_point t0 = Clock::now();
    auto ticket = service_.SubmitReclaim(std::move(source), request_);
    if (!ticket.ok()) return Failed(out, ticket.status().ToString());
    out->queue_depth_max =
        std::max(out->queue_depth_max, service_.admission_stats().queued);
    const auto& r = ticket->Wait();
    if (!r.ok()) return Failed(out, r.status().ToString());
    const int64_t span = tr_->Add("request", tr_->ToNs(t0),
                                  tr_->ToNs(ticket->completed_at()), -1, id);
    out->ops.push_back(span);
    out->latency_ms.push_back(MsBetween(t0, ticket->completed_at()));
    if (!book->Check(s, *r)) return Failed(out, "answer changed");
    const bool hit = service_.cache_stats().hits > before.hits;
    ReplayStats stats;
    gent::Result<Answer> replay = Status::Internal("unset");
    if (hit) {
      if (expanded_[s].empty()) {  // expansions for the hit replay
        MustOk(ReplayMiss(replay_, sources_[s], tr_, -1, id, &miss_stats_[s],
                          &expanded_[s])
                   .status(),
               "expansion replay");
      }
      stats = miss_stats_[s];
      replay = ReplayHit(replay_, sources_[s], expanded_[s], tr_, span, id,
                         &stats);
    } else {
      replay = ReplayMiss(replay_, sources_[s], tr_, span, id, &stats,
                          &expanded_[s]);
      miss_stats_[s] = stats;
    }
    out->stats.push_back(stats);
    if (!replay.ok() || !SameAnswer(*replay, r->reclaimed,
                                    r->originating_names)) {
      Failed(out, "service answer differs from the traced replay");
    }
  }

 private:
  static void Failed(TracedReads* out, std::string why) {
    ++out->failed;
    if (out->errors.size() < 4) out->errors.push_back(std::move(why));
  }

  const ReclaimService& service_;
  const gent::GenT& replay_;
  const std::vector<Table>& sources_;
  const ReclaimRequest request_;
  Tracer* tr_;
  std::vector<std::vector<Table>> expanded_;
  std::vector<ReplayStats> miss_stats_;
};

void AddTracedReads(RunResult* out, const TracedReads& reads) {
  out->attempted += reads.latency_ms.size() + reads.failed;
  out->failed += reads.failed;
  for (const auto& e : reads.errors) out->errors.push_back(e);
}

/// Builds the replay GenT over a shard's lake (a RAM catalog build,
/// reported as catalog.build_ms in traced runs).
std::unique_ptr<gent::GenT> ReplayGenT(const ReclaimService& service,
                                       const std::string& lake,
                                       double* build_ms) {
  const Clock::time_point t0 = Clock::now();
  auto g = std::make_unique<gent::GenT>(*Must(service.lake(lake), lake),
                                        ServiceConfig());
  if (build_ms != nullptr) *build_ms = MsBetween(t0, Clock::now());
  return g;
}

void Verify(RunResult* out, const gent::GenT& replay,
            const std::vector<Table>& sources, const AnswerBook& book,
            double* eis_mean) {
  std::vector<std::string> errors;
  const size_t bad =
      VerifyAgainstReplay(replay, sources, book, eis_mean, &errors);
  out->failed += bad;
  for (auto& e : errors) out->Fail(e);
}

// --- Workloads ----------------------------------------------------------------

/// cold_small_noise / warm_small_noise: TP-TR Small in 400 distractors,
/// closed-loop clients cycling one seeded permutation of the 26 sources.
/// Cold: cache capacity 16 < 26 and a source recurs every 26 requests,
/// so the LRU misses on every request. Warm: capacity 64, one priming
/// pass inside set-up, every timed request hits.
RunResult ReadWorkload(const Args& args, bool warm) {
  Lake in = SmallNoiseLake();
  const size_t n = in.sources.size();
  const size_t clients = Clients();
  const size_t count =
      warm ? OpsFor(args.seconds, kReadsPerSecond, kReadsMin)
           : n * std::max<size_t>(kColdMinPasses,
                                  static_cast<size_t>(std::ceil(
                                      args.seconds * kColdPerSecond / n)));
  const std::vector<size_t> ops = CyclicOps(n, args.seed, count);
  const std::vector<size_t> prime = CyclicOps(n, 0, n);
  const ReclaimRequest request = Request("lake");
  RunResult out;
  out.DetailNum("ops_digest", static_cast<double>(SequenceDigest(ops) >> 11));
  out.DetailNum("ops", static_cast<double>(ops.size()));

  std::unique_ptr<ReclaimService> service;
  std::unique_ptr<AnswerBook> book;
  std::vector<double> setup_s;
  const size_t setups = args.trace ? 1 : warm ? kWarmSetups : kColdSetups;
  for (size_t k = 0; k < setups; ++k) {
    service.reset();
    book = std::make_unique<AnswerBook>(n);
    const Clock::time_point t0 = Clock::now();
    service = std::make_unique<ReclaimService>(MakeOptions(
        clients, warm ? kWarmCacheCapacity : kColdCacheCapacity,
        in.lake->dict()));
    MustOk(service->AddLakeView("lake", *in.lake), "AddLakeView");
    if (warm) {
      const LoopResult p = RunClosedLoop(*service, request, in.sources, prime,
                                         clients, book.get());
      if (p.failed > 0) out.Fail("priming failed: " + p.errors[0]);
    }
    setup_s.push_back(Seconds(t0));
  }

  if (!args.trace) {
    const auto before = service->cache_stats();
    const LoopResult loop =
        RunClosedLoop(*service, request, in.sources, ops, clients, book.get());
    const auto after = service->cache_stats();
    const double heap = HeapMb();
    AddLoop(&out, loop, ops.size());
    const double rps = AddReads(&out, loop);
    AddCacheDetail(&out, before, after);
    if (warm && after.misses != before.misses) {
      out.Fail("warm: a timed request missed the discovery cache");
    }
    if (!warm && after.hits != before.hits) {
      out.Fail("cold: a timed request hit the discovery cache");
    }
    auto replay = ReplayGenT(*service, "lake", nullptr);
    double eis_mean = 0.0;
    Verify(&out, *replay, in.sources, *book, &eis_mean);
    AddCommon(&out, rps, eis_mean, setup_s, heap);
    return out;
  }

  // Traced run: one client. The untraced pass gives the overhead base.
  Tracer tr;
  double build_ms = 0.0;
  auto replay = ReplayGenT(*service, "lake", &build_ms);
  out.metrics["catalog.build_ms"] = {build_ms, "ms"};
  const std::vector<size_t> base_ops(
      ops.begin(), ops.begin() + (warm ? ops.size() : n));
  const LoopResult untraced =
      RunClosedLoop(*service, request, in.sources, base_ops, 1, book.get());
  AddLoop(&out, untraced, base_ops.size());
  const auto before = service->cache_stats();
  ReadTracer reader(*service, *replay, in.sources, "lake", &tr);
  TracedReads reads;
  for (size_t i = 0; i < ops.size(); ++i) reader.Read(ops[i], i, book.get(), &reads);
  const auto after = service->cache_stats();
  AddTracedReads(&out, reads);
  AddCacheLayers(&out, before, after, reads.queue_depth_max);
  AddLayerMetrics(&out, tr, reads.ops, reads.stats);
  AddOverhead(&out, untraced.latency_ms,
              std::vector<double>(reads.latency_ms.begin(),
                                  reads.latency_ms.begin() + base_ops.size()));

  const std::string snap = args.run_dir + "/lake.snap";
  SaveV2(*in.lake, snap);
  ProbeRestarts(&out, &tr, snap, in.sources[prime[0]]);
  const Stream stream = MakeStream(*in.lake, args.seed);
  ProbeAppends(&out, &tr, stream, in.lake->dict(), in.sources[prime[0]],
               args.run_dir);
  if (!tr.WriteJson(args.run_dir + "/spans.json")) out.Fail("spans.json");
  return out;
}

/// restart_med: each operation builds a fresh ReclaimService, opens the
/// TP-TR Med v2 snapshot (mapped catalog) and answers one fixed probe.
RunResult RestartWorkload(const Args& args) {
  Lake in = MedLake();
  const std::string path = args.run_dir + "/med.snap";
  SaveV2(*in.lake, path);
  const Table& probe = in.sources[kRestartProbe];
  const size_t count = OpsFor(args.seconds, kRestartsPerSecond, kRestartsMin);
  RunResult out;
  out.DetailNum("ops", static_cast<double>(count));
  AnswerBook book(1);

  // Warm-up restarts: their set-up calls are setup_s.
  std::vector<double> setup_s;
  for (size_t k = 0; k < (args.trace ? 1 : kRestartSetups); ++k) {
    const Clock::time_point t0 = Clock::now();
    ReclaimService service(MakeOptions(1, 16, nullptr));
    MustOk(service.AddLakeFromSnapshot("lake", path), "AddLakeFromSnapshot");
    setup_s.push_back(Seconds(t0));
    auto r = Must(service.Reclaim(probe, Request("lake")), "warm-up answer");
    book.Check(0, r);
  }

  if (!args.trace) {
    // latency_p50_ms: start of restart -> first answer. throughput_rps:
    // restarts per second of the loop's wall time, which also holds each
    // service's teardown, so it counts the whole open/answer/close cycle.
    std::vector<double> latency_ms;
    LoopResult loop;
    double heap = 0.0;
    bool mapped = false;
    const Clock::time_point loop_start = Clock::now();
    for (size_t i = 0; i < count; ++i) {
      Table source = probe.Clone();
      const Clock::time_point t0 = Clock::now();
      ReclaimService service(MakeOptions(1, 16, nullptr));
      Status add = service.AddLakeFromSnapshot("lake", path);
      if (!add.ok()) {
        ++loop.failed;
        loop.errors.push_back(add.ToString());
        continue;
      }
      auto ticket = service.SubmitReclaim(std::move(source), Request("lake"));
      if (!ticket.ok() || !ticket->Wait().ok() ||
          !book.Check(0, *ticket->Wait())) {
        ++loop.failed;
        loop.errors.push_back("restart answer failed or changed");
        continue;
      }
      latency_ms.push_back(MsBetween(t0, ticket->completed_at()));
      if (i + 1 == count) {  // the end of the timed phase
        heap = HeapMb();
        const auto residency = service.residency_stats();
        mapped = !residency.empty() && residency[0].catalog.mapped;
      }
    }
    const double wall_s = Seconds(loop_start);
    out.Detail("mapped", mapped ? "true" : "false");
    loop.latency_ms = latency_ms;
    AddLoop(&out, loop, count);
    AddLatency(&out, "latency", latency_ms);
    const auto p50 = SupportedPercentile(latency_ms, 0.5);
    if (!p50) out.Fail("restart: too few samples for p50");
    out.metrics["latency_p50_ms"] = {p50.value_or(0.0), "ms"};
    ReclaimService service(MakeOptions(1, 16, nullptr));
    MustOk(service.AddLakeFromSnapshot("lake", path), "AddLakeFromSnapshot");
    auto replay = ReplayGenT(service, "lake", nullptr);
    double eis_mean = 0.0;
    Verify(&out, *replay, {gent::TranslateToDictionary(probe, service.dict())},
           book, &eis_mean);
    AddCommon(&out, latency_ms.size() / wall_s, eis_mean, setup_s, heap);
    return out;
  }

  Tracer tr;
  std::vector<double> untraced_ms, traced_ms, faults, resident;
  const size_t base_count = std::min<size_t>(count, 8);
  for (size_t i = 0; i < base_count; ++i) {
    const Clock::time_point t0 = Clock::now();
    ReclaimService fresh(MakeOptions(1, 16, nullptr));
    MustOk(fresh.AddLakeFromSnapshot("lake", path), "AddLakeFromSnapshot");
    auto ticket = Must(fresh.SubmitReclaim(probe.Clone(), Request("lake")),
                       "submit");
    if (!ticket.Wait().ok()) out.Fail("untraced restart failed");
    untraced_ms.push_back(MsBetween(t0, ticket.completed_at()));
  }
  std::vector<int64_t> ops;
  std::vector<ReplayStats> stats;
  gent::DiscoveryCache::Stats cache_sum;
  size_t queue_depth_max = 0;
  for (size_t i = 0; i < count; ++i) {
    RestartTrace r = TracedRestart(path, probe, &tr, i);
    cache_sum.hits += r.cache.hits;
    cache_sum.misses += r.cache.misses;
    cache_sum.evictions += r.cache.evictions;
    queue_depth_max = std::max(queue_depth_max, r.queued);
    ++out.attempted;
    if (!r.error.empty() || !r.answer) {
      ++out.failed;
      out.errors.push_back(r.error);
      continue;
    }
    ops.push_back(r.span);
    stats.push_back(r.stats);
    traced_ms.push_back(tr.spans()[r.span].duration_ns() / 1e6);
    faults.push_back(r.faults);
    resident.push_back(r.bytes_resident);
  }
  AddLayerMetrics(&out, tr, ops, stats);
  AddOverhead(&out, untraced_ms,
              std::vector<double>(traced_ms.begin(),
                                  traced_ms.begin() +
                                      std::min(base_count, traced_ms.size())));
  AddRestartLayers(&out, tr, faults, resident, MapReadsPerRestart(path, probe));
  AddCacheLayers(&out, {}, cache_sum, queue_depth_max);
  {
    ReclaimService service(MakeOptions(1, 16, nullptr));
    MustOk(service.AddLakeFromSnapshot("lake", path), "AddLakeFromSnapshot");
    double build_ms = 0.0;
    ReplayGenT(service, "lake", &build_ms);
    out.metrics["catalog.build_ms"] = {build_ms, "ms"};
  }
  const Stream stream = MakeStream(*in.lake, args.seed);
  ProbeAppends(&out, &tr, stream, in.lake->dict(), probe, args.run_dir);
  if (!tr.WriteJson(args.run_dir + "/spans.json")) out.Fail("spans.json");
  return out;
}

/// ingest_small_noise: two v2 mapped shards in one service. `base` is
/// the cold/warm lake with a warm cache, read by closed-loop clients;
/// `stream` takes kAppends seeded batches of one or two tables from the
/// harness thread, compacted after every kCompactEvery appends. Append i
/// comes right before read i·reads/kAppends, so the interleave is fixed
/// by position, not by time.
RunResult IngestWorkload(const Args& args) {
  Lake in = SmallNoiseLake();
  const DictionaryPtr dict = in.lake->dict();
  Stream stream = MakeStream(*in.lake, args.seed);
  const std::string base_path = args.run_dir + "/base.snap";
  const std::string stream_path = args.run_dir + "/stream.snap";
  SaveV2(*in.lake, base_path);
  {
    DataLake initial(dict);
    for (const Table& t : stream.initial) MustOk(initial.AddTable(t.Clone()), "stream");
    SaveV2(initial, stream_path);
  }
  const size_t n = in.sources.size();
  const size_t clients = Clients();
  const size_t reads = OpsFor(args.seconds, kReadsPerSecond, kReadsMin);
  const std::vector<size_t> ops = CyclicOps(n, args.seed, reads);
  const std::vector<size_t> prime = CyclicOps(n, 0, n);
  const ReclaimRequest request = Request("base");
  RunResult out;
  out.DetailNum("ops_digest", static_cast<double>(SequenceDigest(ops) >> 11));
  out.DetailNum("ops", static_cast<double>(reads));
  out.DetailNum("appends", static_cast<double>(kAppends));

  std::unique_ptr<ReclaimService> service;
  std::unique_ptr<AnswerBook> book;
  std::vector<double> setup_s;
  for (size_t k = 0; k < (args.trace ? 1 : kWarmSetups); ++k) {
    service.reset();
    book = std::make_unique<AnswerBook>(n);
    const Clock::time_point t0 = Clock::now();
    service = std::make_unique<ReclaimService>(
        MakeOptions(clients, kWarmCacheCapacity, dict));
    MustOk(service->AddLakeFromSnapshot("base", base_path), "base");
    MustOk(service->AddLakeFromSnapshot("stream", stream_path), "stream");
    const LoopResult p = RunClosedLoop(*service, request, in.sources, prime,
                                       clients, book.get());
    if (p.failed > 0) out.Fail("priming failed: " + p.errors[0]);
    setup_s.push_back(Seconds(t0));
  }
  bool mapped = true;
  for (const auto& r : service->residency_stats()) mapped &= r.catalog.mapped;
  out.Detail("mapped", mapped ? "true" : "false");

  std::vector<std::string> expected_names;
  for (const Table& t : stream.initial) expected_names.push_back(t.name());
  for (const auto& batch : stream.batches) {
    for (const Table& t : batch) expected_names.push_back(t.name());
  }
  auto due = [&](size_t a) { return a * reads / kAppends; };

  if (!args.trace) {
    std::vector<std::vector<Table>> batches;
    for (const auto& batch : stream.batches) {
      std::vector<Table> copy;
      for (const Table& t : batch) copy.push_back(t.Clone());
      batches.push_back(std::move(copy));
    }
    // Append a (and a fold after every kCompactEvery-th), then reads
    // [due(a), due(a+1)) by the clients: the writer is on the phase's
    // critical path, so append and fold cost moves throughput_rps, while
    // no read is in flight while `stream` changes.
    std::vector<double> append_ms, compact_ms;
    double writer_busy_s = 0.0;
    std::vector<std::string> writer_errors;
    LoopResult loop;
    const auto before = service->cache_stats();
    const Clock::time_point start = Clock::now();
    for (size_t a = 0; a < kAppends; ++a) {
      Clock::time_point t0 = Clock::now();
      const Status s =
          service->AppendTablesToLake("stream", std::move(batches[a]));
      append_ms.push_back(MsBetween(t0, Clock::now()));
      writer_busy_s += append_ms.back() / 1e3;
      if (!s.ok()) writer_errors.push_back("append: " + s.ToString());
      if ((a + 1) % kCompactEvery == 0) {
        t0 = Clock::now();
        const Status c = service->CompactShardSnapshot("stream");
        compact_ms.push_back(MsBetween(t0, Clock::now()));
        writer_busy_s += compact_ms.back() / 1e3;
        if (!c.ok()) writer_errors.push_back("compact: " + c.ToString());
      }
      const std::vector<size_t> block(ops.begin() + due(a),
                                      ops.begin() + due(a + 1));
      LoopResult part =
          RunClosedLoop(*service, request, in.sources, block, clients,
                        book.get());
      loop.latency_ms.insert(loop.latency_ms.end(), part.latency_ms.begin(),
                             part.latency_ms.end());
      loop.failed += part.failed;
      for (auto& e : part.errors) loop.errors.push_back(std::move(e));
    }
    loop.wall_s = Seconds(start);
    const auto after = service->cache_stats();
    const double heap = HeapMb();
    AddLoop(&out, loop, ops.size());
    out.attempted += kAppends;
    out.failed += writer_errors.size();
    for (auto& e : writer_errors) out.Fail(e);
    const double rps = AddReads(&out, loop);
    AddLatency(&out, "append", append_ms);
    out.DetailNum("compact_p50_ms", Median(compact_ms));
    out.DetailNum("ingest_tables_per_s",
                  stream.appended_tables / writer_busy_s);
    AddCacheDetail(&out, before, after);
    if (after.misses != before.misses) {
      out.Fail("ingest: a base read missed the cache after a stream append");
    }
    // The stream shard and its file hold every table, in order.
    const DataLake* grown = Must(service->lake("stream"), "stream");
    std::vector<std::string> names;
    for (const Table& t : grown->tables()) names.push_back(t.name());
    if (names != expected_names) out.Fail("stream shard tables differ");
    DataLake reloaded;
    MustOk(gent::VerifySnapshotIntegrity(stream_path), "stream verify");
    MustOk(gent::LoadSnapshot(reloaded, stream_path), "stream reload");
    names.clear();
    for (const Table& t : reloaded.tables()) names.push_back(t.name());
    if (names != expected_names) out.Fail("stream snapshot tables differ");
    auto replay = ReplayGenT(*service, "base", nullptr);
    double eis_mean = 0.0;
    Verify(&out, *replay, in.sources, *book, &eis_mean);
    AddCommon(&out, rps, eis_mean, setup_s, heap);
    return out;
  }

  // Traced run: the same sequence from one thread; each service append
  // and fold is replayed on a shadow copy of the stream snapshot.
  Tracer tr;
  double build_ms = 0.0;
  auto replay = ReplayGenT(*service, "base", &build_ms);
  out.metrics["catalog.build_ms"] = {build_ms, "ms"};
  const std::vector<size_t> base_ops(ops.begin(),
                                     ops.begin() + std::min<size_t>(reads, 1000));
  const LoopResult untraced =
      RunClosedLoop(*service, request, in.sources, base_ops, 1, book.get());
  AddLoop(&out, untraced, base_ops.size());
  ShadowStream shadow(stream.initial, dict, args.run_dir + "/shadow.snap");
  AppendLayers layers;
  ReadTracer reader(*service, *replay, in.sources, "base", &tr);
  TracedReads traced;
  const auto before = service->cache_stats();
  size_t a = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    for (; a < kAppends && due(a) <= i; ++a) {
      std::vector<Table> batch;
      for (const Table& t : stream.batches[a]) batch.push_back(t.Clone());
      const int64_t t0 = tr.Now();
      const Status s = service->AppendTablesToLake("stream", std::move(batch));
      const int64_t span = tr.Add("append", t0, tr.Now(), -1, a);
      ++out.attempted;
      if (!s.ok()) out.Fail("append: " + s.ToString());
      MustOk(shadow.Append(stream.batches[a], &tr, span, a), "shadow append");
      if ((a + 1) % kCompactEvery == 0) {
        const int64_t c0 = tr.Now();
        const Status c = service->CompactShardSnapshot("stream");
        const int64_t cspan = tr.Add("compact", c0, tr.Now(), -1, a);
        if (!c.ok()) out.Fail("compact: " + c.ToString());
        MustOk(shadow.Fold(in.sources[prime[0]], &tr, cspan, a, &layers.regions,
                           &layers.overlap_us, &layers.overlap_folded_us),
               "shadow fold");
      }
    }
    reader.Read(ops[i], i, book.get(), &traced);
  }
  const auto after = service->cache_stats();
  AddTracedReads(&out, traced);
  AddCacheLayers(&out, before, after, traced.queue_depth_max);
  AddLayerMetrics(&out, tr, traced.ops, traced.stats);
  AddOverhead(&out, untraced.latency_ms,
              std::vector<double>(traced.latency_ms.begin(),
                                  traced.latency_ms.begin() +
                                      std::min(base_ops.size(),
                                               traced.latency_ms.size())));
  AddAppendLayers(&out, tr, layers, stream, dict,
                  args.run_dir + "/count_stream.snap");
  ProbeRestarts(&out, &tr, base_path, in.sources[prime[0]]);
  if (!tr.WriteJson(args.run_dir + "/spans.json")) out.Fail("spans.json");
  return out;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--run-dir") {
      args->run_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--run-dir <dir>]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.run_dir.c_str());
    return 2;
  }
  const double calib_before = HostCalibrationMs();
  RunResult out;
  if (args.workload == "cold_small_noise") {
    out = ReadWorkload(args, /*warm=*/false);
  } else if (args.workload == "warm_small_noise") {
    out = ReadWorkload(args, /*warm=*/true);
  } else if (args.workload == "restart_med") {
    out = RestartWorkload(args);
  } else if (args.workload == "ingest_small_noise") {
    out = IngestWorkload(args);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  out.Detail("host_calib_ms",
             JsonList({calib_before, HostCalibrationMs()}));
  out.Detail("workload", "\"" + args.workload + "\"");
  out.Detail("trace", args.trace ? "1" : "0");
  out.Detail("env", EnvironmentJson(Clients(), FilesystemType(args.run_dir),
                                    args.seed));
  for (const auto& e : out.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }
  const bool correct = out.correct && out.failed == 0;
  std::printf("# detail %s}\n", out.detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", std::max<size_t>(1, out.attempted),
              out.failed, MetricsJson(out.metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
