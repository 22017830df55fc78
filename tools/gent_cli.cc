// gent — the command-line front end of the library.
//
// Everything operates on CSV files (one table per file, header row,
// empty fields = nulls), so the tool composes with ordinary data-science
// workflows:
//
//   gent reclaim   --lake DIR --source S.csv [--keys k1,k2] [--out OUT.csv]
//                  [--clean] [--fuzzy] [--explain ROW] [--timeout SECS]
//   gent discover  --lake DIR --source S.csv [--keys k1,k2]
//   gent mine-keys --table T.csv
//   gent diagnose  --source S.csv --keys k1,k2 --reclaimed R.csv
//   gent compare   --source S.csv --target T.csv      (keyless similarity)
//   gent benchgen  --out DIR [--scale N] [--sources N]
//   gent snapshot  --lake DIR --out FILE    (or --from FILE --out DIR)
//
// `reclaim` mines the source key automatically when --keys is omitted
// and accepts --lake pointing at either a CSV directory or a .snap file.
// Exit codes: 0 success, 1 runtime failure, 2 usage error.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/cleaning/cleaning.h"
#include "src/explain/provenance.h"
#include "src/benchgen/benchmarks.h"
#include "src/gent/gent.h"
#include "src/gent/report.h"
#include "src/keymining/key_miner.h"
#include "src/metrics/incomplete_similarity.h"
#include "src/metrics/precision_recall.h"
#include "src/metrics/similarity.h"
#include "src/lake/snapshot.h"
#include "src/semantic/value_map.h"
#include "src/table/table_io.h"
#include "src/util/string_util.h"

namespace gent {
namespace {

// --- tiny flag parser -------------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        error_ = "unexpected positional argument '" + arg + "'";
        return;
      }
      std::string name = arg.substr(2);
      std::string value;
      auto eq = name.find('=');
      if (eq != std::string::npos) {
        value = name.substr(eq + 1);
        name = name.substr(0, eq);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      values_[name] = value;
    }
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  /// Parses --name as a finite number into *out (untouched when the flag
  /// is absent). Returns false, after printing "invalid value for
  /// --name", unless the whole value parses.
  bool GetDouble(const std::string& name, double* out) const {
    auto it = values_.find(name);
    if (it == values_.end()) return true;
    const char* text = it->second.c_str();
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(value)) {
      return Invalid(name);
    }
    *out = value;
    return true;
  }

  /// Same, for a non-negative decimal integer.
  bool GetSize(const std::string& name, size_t* out) const {
    auto it = values_.find(name);
    if (it == values_.end()) return true;
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
        errno == ERANGE || value > std::numeric_limits<size_t>::max()) {
      return Invalid(name);
    }
    *out = static_cast<size_t>(value);
    return true;
  }

  /// All flags consumed must be in `known`; returns false and prints the
  /// offender otherwise (catches typos like --key vs --keys).
  bool Expect(const std::vector<std::string>& known) const {
    for (const auto& [name, value] : values_) {
      bool found = false;
      for (const auto& k : known) found |= (k == name);
      if (!found) {
        std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
        return false;
      }
    }
    return true;
  }

 private:
  static bool Invalid(const std::string& name) {
    std::fprintf(stderr, "invalid value for --%s\n", name.c_str());
    return false;
  }

  std::map<std::string, std::string> values_;
  std::string error_;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  gent reclaim   --lake DIR --source S.csv [--keys k1,k2]\n"
      "                 [--out OUT.csv] [--clean] [--fuzzy]\n"
      "                 [--explain ROW] [--timeout SECS] [--tau T]\n"
      "  gent discover  --lake DIR --source S.csv [--keys k1,k2] [--tau T]\n"
      "  gent mine-keys --table T.csv [--max-arity N]\n"
      "  gent diagnose  --source S.csv --keys k1,k2 --reclaimed R.csv\n"
      "  gent compare   --source S.csv --target T.csv [--exact]\n"
      "  gent benchgen  --out DIR [--scale N] [--sources N] [--seed N]\n"
      "  gent snapshot  --lake DIR --out FILE | --from FILE "
      "--out DIR\n"
      "                 | --append DIR --out FILE   (delta run, in place)\n");
  return 2;
}

bool EndsWithSnap(const std::string& path) {
  return path.size() >= 5 && path.rfind(".snap") == path.size() - 5;
}

// Loads a lake from a CSV directory or a .snap snapshot file.
Status LoadLake(DataLake& lake, const std::string& path) {
  if (EndsWithSnap(path)) return LoadSnapshot(lake, path);
  return lake.LoadDirectory(path);
}

// Loads a CSV source and installs its key: --keys if given, otherwise the
// best mined candidate key.
Result<Table> LoadSource(const DictionaryPtr& dict, const Flags& flags) {
  GENT_ASSIGN_OR_RETURN(Table source,
                        ReadCsv(dict, "source", flags.Get("source")));
  if (flags.Has("keys")) {
    GENT_RETURN_IF_ERROR(
        source.SetKeyColumnsByName(Split(flags.Get("keys"), ',')));
  } else {
    KeyMiner miner;
    GENT_RETURN_IF_ERROR(miner.AssignBestKey(source));
    std::fprintf(stderr, "mined key: {");
    for (size_t i = 0; i < source.key_columns().size(); ++i) {
      std::fprintf(stderr, "%s%s", i ? ", " : "",
                   source.column_name(source.key_columns()[i]).c_str());
    }
    std::fprintf(stderr, "}\n");
  }
  return source;
}

// --- subcommands -------------------------------------------------------------

int CmdReclaim(const Flags& flags) {
  if (!flags.Expect({"lake", "source", "keys", "out", "clean", "fuzzy",
                     "explain", "timeout", "tau"}) ||
      !flags.Has("lake") || !flags.Has("source")) {
    return Usage();
  }
  GenTConfig config;
  double timeout = 120;
  size_t explain_row = 0;
  if (!flags.GetDouble("tau", &config.discovery.tau) ||
      !flags.GetDouble("timeout", &timeout) ||
      !flags.GetSize("explain", &explain_row)) {
    return 2;
  }
  DataLake lake;
  if (Status s = LoadLake(lake, flags.Get("lake")); !s.ok()) {
    std::fprintf(stderr, "loading lake: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "lake: %zu tables\n", lake.size());
  auto source = LoadSource(lake.dict(), flags);
  if (!source.ok()) {
    std::fprintf(stderr, "source: %s\n", source.status().ToString().c_str());
    return 1;
  }

  // Optional fuzzy alignment of the lake onto the source's spellings.
  std::unique_ptr<DataLake> aligned;
  const DataLake* active = &lake;
  if (flags.Has("fuzzy")) {
    FuzzyValueMap map = FuzzyValueMap::Build(*source);
    ValueMapStats stats;
    aligned = std::make_unique<DataLake>(lake.dict());
    for (const Table& t : lake.tables()) {
      if (Status s = aligned->AddTable(map.Apply(t, &stats)); !s.ok()) {
        std::fprintf(stderr, "aligning lake: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    std::fprintf(stderr, "fuzzy alignment rewrote %zu cells\n",
                 stats.cells_rewritten);
    active = aligned.get();
  }

  GenT gent(*active, config);
  auto result = gent.Reclaim(*source, OpLimits::WithTimeout(timeout));
  if (!result.ok()) {
    std::fprintf(stderr, "reclamation: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  Table reclaimed = std::move(result->reclaimed);

  if (flags.Has("clean")) {
    CleaningStats stats;
    auto cleaned =
        CleanReclaimed(reclaimed, *source, result->originating, {}, &stats);
    if (!cleaned.ok()) {
      std::fprintf(stderr, "cleaning: %s\n",
                   cleaned.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "cleaning fused %zu tuples, imputed %zu cells\n",
                 stats.tuples_fused, stats.cells_imputed);
    reclaimed = std::move(*cleaned);
  }

  std::printf("originating tables (%zu):\n", result->originating.size());
  for (const auto& name : result->originating_names) {
    std::printf("  - %s\n", name.c_str());
  }
  auto report = DiagnoseReclamation(*source, reclaimed);
  if (report.ok()) {
    std::printf("\n%s", report->Summarize(*source).c_str());
    std::printf("verdict: %s (EIS %.3f)\n",
                report->perfect() ? "PERFECT RECLAMATION"
                                  : "partial reclamation",
                EisScore(*source, reclaimed).value_or(0));
  }
  auto provenance =
      TraceProvenance(reclaimed, *source, result->originating);
  if (provenance.ok()) {
    std::printf("\n%s", provenance->Summarize().c_str());
  }
  if (flags.Has("explain")) {
    auto explanation =
        ExplainSourceRow(*source, explain_row, result->originating);
    if (!explanation.ok()) {
      std::fprintf(stderr, "explain: %s\n",
                   explanation.status().ToString().c_str());
      return 1;
    }
    std::printf("\n%s", explanation->ToString().c_str());
  }
  if (flags.Has("out")) {
    if (Status s = WriteCsv(reclaimed, flags.Get("out")); !s.ok()) {
      std::fprintf(stderr, "writing: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("\nreclaimed table written to %s\n",
                flags.Get("out").c_str());
  }
  return 0;
}

int CmdDiscover(const Flags& flags) {
  if (!flags.Expect({"lake", "source", "keys", "tau"}) ||
      !flags.Has("lake") || !flags.Has("source")) {
    return Usage();
  }
  DiscoveryConfig config;
  if (!flags.GetDouble("tau", &config.tau)) return 2;
  DataLake lake;
  if (Status s = LoadLake(lake, flags.Get("lake")); !s.ok()) {
    std::fprintf(stderr, "loading lake: %s\n", s.ToString().c_str());
    return 1;
  }
  auto source = LoadSource(lake.dict(), flags);
  if (!source.ok()) {
    std::fprintf(stderr, "source: %s\n", source.status().ToString().c_str());
    return 1;
  }
  const ColumnStatsCatalog catalog(lake);
  auto candidates = Discovery(catalog, config).FindCandidates(*source);
  if (!candidates.ok()) {
    std::fprintf(stderr, "discovery: %s\n",
                 candidates.status().ToString().c_str());
    return 1;
  }
  std::printf("%-32s %8s %10s %8s %8s\n", "candidate", "score", "covers_key",
              "rows", "mapped");
  for (const Candidate& c : *candidates) {
    std::printf("%-32s %8.3f %10s %8zu %8zu\n",
                lake.table(c.lake_index).name().c_str(), c.score,
                c.covers_key ? "yes" : "no", c.table.num_rows(),
                c.mapping.size());
  }
  return 0;
}

int CmdMineKeys(const Flags& flags) {
  if (!flags.Expect({"table", "max-arity"}) || !flags.Has("table")) {
    return Usage();
  }
  KeyMinerOptions options;
  if (!flags.GetSize("max-arity", &options.max_key_arity)) return 2;
  auto dict = MakeDictionary();
  auto table = ReadCsv(dict, "table", flags.Get("table"));
  if (!table.ok()) {
    std::fprintf(stderr, "reading table: %s\n",
                 table.status().ToString().c_str());
    return 1;
  }
  std::vector<CandidateKey> keys = KeyMiner(options).Mine(*table);
  if (keys.empty()) {
    std::printf("no candidate key within arity %zu\n", options.max_key_arity);
    return 1;
  }
  std::printf("%-40s %8s %8s %10s\n", "key", "score", "unique", "non-null");
  for (const CandidateKey& key : keys) {
    std::string cols;
    for (size_t i = 0; i < key.columns.size(); ++i) {
      if (i) cols += ",";
      cols += table->column_name(key.columns[i]);
    }
    std::printf("%-40s %8.3f %8.3f %10.3f\n", cols.c_str(), key.score,
                key.uniqueness, key.non_null_fraction);
  }
  return 0;
}

int CmdDiagnose(const Flags& flags) {
  if (!flags.Expect({"source", "keys", "reclaimed"}) ||
      !flags.Has("source") || !flags.Has("reclaimed")) {
    return Usage();
  }
  auto dict = MakeDictionary();
  auto source = LoadSource(dict, flags);
  if (!source.ok()) {
    std::fprintf(stderr, "source: %s\n", source.status().ToString().c_str());
    return 1;
  }
  auto reclaimed = ReadCsv(dict, "reclaimed", flags.Get("reclaimed"));
  if (!reclaimed.ok()) {
    std::fprintf(stderr, "reclaimed: %s\n",
                 reclaimed.status().ToString().c_str());
    return 1;
  }
  auto report = DiagnoseReclamation(*source, *reclaimed);
  if (!report.ok()) {
    std::fprintf(stderr, "diagnose: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", report->Summarize(*source).c_str());
  auto pr = ComputePrecisionRecall(*source, *reclaimed);
  std::printf("EIS %.3f  instance-sim %.3f  recall %.3f  precision %.3f\n",
              EisScore(*source, *reclaimed).value_or(0),
              InstanceSimilarity(*source, *reclaimed).value_or(0), pr.recall,
              pr.precision);
  return report->perfect() ? 0 : 1;
}

int CmdCompare(const Flags& flags) {
  if (!flags.Expect({"source", "target", "exact"}) || !flags.Has("source") ||
      !flags.Has("target")) {
    return Usage();
  }
  auto dict = MakeDictionary();
  auto source = ReadCsv(dict, "source", flags.Get("source"));
  auto target = ReadCsv(dict, "target", flags.Get("target"));
  if (!source.ok() || !target.ok()) {
    std::fprintf(stderr, "reading inputs failed\n");
    return 1;
  }
  IncompleteSimilarityOptions options;
  if (flags.Has("exact")) options.algorithm = MatchAlgorithm::kExact;
  auto result = IncompleteInstanceSimilarity(*source, *target, options);
  if (!result.ok()) {
    std::fprintf(stderr, "compare: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("keyless instance similarity: %.4f (%s matching, %zu/%zu "
              "tuples matched)\n",
              result->similarity, result->exact ? "exact" : "greedy",
              result->matches.size(), source->num_rows());
  return 0;
}

int CmdSnapshot(const Flags& flags) {
  if (!flags.Expect({"lake", "from", "out", "append"}) ||
      !flags.Has("out") ||
      (flags.Has("lake") + flags.Has("from") + flags.Has("append")) != 1) {
    return Usage();
  }
  if (flags.Has("append")) {
    // CSV directory → one delta run appended in place to the v2
    // snapshot at --out (crash-atomic; see AppendSnapshotDelta).
    DataLake lake;
    if (Status s = LoadSnapshot(lake, flags.Get("out")); !s.ok()) {
      std::fprintf(stderr, "loading snapshot: %s\n", s.ToString().c_str());
      return 1;
    }
    const size_t first = lake.size();
    if (Status s = lake.LoadDirectory(flags.Get("append")); !s.ok()) {
      std::fprintf(stderr, "loading tables: %s\n", s.ToString().c_str());
      return 1;
    }
    const auto run = ColumnStatsCatalog::BuildDeltaRun(lake, first);
    size_t runs_total = 0;
    if (Status s = AppendSnapshotDelta(lake, first, run.views(),
                                       flags.Get("out"), &runs_total);
        !s.ok()) {
      std::fprintf(stderr, "appending delta run: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("appended %zu tables to %s as delta run %zu\n",
                lake.size() - first, flags.Get("out").c_str(), runs_total);
    return 0;
  }
  if (flags.Has("lake")) {
    // CSV directory (or .snap) → v2 snapshot file, with the built
    // catalog embedded so services open it without a rebuild.
    DataLake lake;
    if (Status s = LoadLake(lake, flags.Get("lake")); !s.ok()) {
      std::fprintf(stderr, "loading lake: %s\n", s.ToString().c_str());
      return 1;
    }
    GenT gent(lake);
    if (Status s = SaveSnapshotV2(lake, gent.catalog().section_views(),
                                  flags.Get("out"));
        !s.ok()) {
      std::fprintf(stderr, "saving snapshot: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("snapshot of %zu tables written to %s (v2, catalog "
                "embedded)\n",
                lake.size(), flags.Get("out").c_str());
    return 0;
  }
  // Snapshot file → CSV directory.
  DataLake lake;
  if (Status s = LoadSnapshot(lake, flags.Get("from")); !s.ok()) {
    std::fprintf(stderr, "loading snapshot: %s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = WriteTableDirectory(lake.tables(), flags.Get("out"));
      !s.ok()) {
    std::fprintf(stderr, "writing tables: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("%zu tables unpacked into %s\n", lake.size(),
              flags.Get("out").c_str());
  return 0;
}

int CmdBenchgen(const Flags& flags) {
  if (!flags.Expect({"out", "scale", "sources", "seed"}) ||
      !flags.Has("out")) {
    return Usage();
  }
  TpTrConfig config = TpTrSmallConfig();
  config.queries.num_sources = 8;
  size_t seed = config.seed;
  if (!flags.GetDouble("scale", &config.scale) ||
      !flags.GetSize("sources", &config.queries.num_sources) ||
      !flags.GetSize("seed", &seed)) {
    return 2;
  }
  config.seed = seed;
  auto bench = MakeTpTrBenchmark("tptr", config);
  if (!bench.ok()) {
    std::fprintf(stderr, "benchgen: %s\n",
                 bench.status().ToString().c_str());
    return 1;
  }
  const std::string out = flags.Get("out");
  if (Status s = WriteTableDirectory(bench->lake->tables(), out + "/lake");
      !s.ok()) {
    std::fprintf(stderr, "writing lake: %s\n", s.ToString().c_str());
    return 1;
  }
  std::vector<Table> sources;
  for (const SourceSpec& spec : bench->sources) {
    sources.push_back(spec.source.Clone());
  }
  if (Status s = WriteTableDirectory(sources, out + "/sources"); !s.ok()) {
    std::fprintf(stderr, "writing sources: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu lake tables and %zu sources under %s\n",
              bench->lake->size(), sources.size(), out.c_str());
  std::printf("try:  gent reclaim --lake %s/lake --source %s/sources/%s.csv\n",
              out.c_str(), out.c_str(), sources.front().name().c_str());
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  Flags flags(argc, argv, 2);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return Usage();
  }
  if (cmd == "reclaim") return CmdReclaim(flags);
  if (cmd == "discover") return CmdDiscover(flags);
  if (cmd == "mine-keys") return CmdMineKeys(flags);
  if (cmd == "diagnose") return CmdDiagnose(flags);
  if (cmd == "compare") return CmdCompare(flags);
  if (cmd == "benchgen") return CmdBenchgen(flags);
  if (cmd == "snapshot") return CmdSnapshot(flags);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return Usage();
}

}  // namespace
}  // namespace gent

int main(int argc, char** argv) { return gent::Run(argc, argv); }
