// snapshot_inspect: prints what a Gen-T snapshot file actually contains
// — format version, table count, catalog section directory, the
// dictionary tags a fresh load adopts, and whether every checksum
// verifies — for debugging corrupt or mismatched shards without loading
// them into a service.
//
// Usage: snapshot_inspect <file.snap> [--verify]
//   --verify  stream every section (including the body) through the
//             checksum; slow on large files, definitive on corruption.
//
// Exit code: 0 when the file parses (and, with --verify, all checksums
// pass), 1 otherwise — scriptable as a shard health check.

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "src/lake/data_lake.h"
#include "src/lake/snapshot.h"
#include "src/storage/catalog_pager.h"
#include "src/storage/paged_file.h"
#include "src/value/dictionary.h"

namespace {

/// Warns about `*.tmp.<digits>` siblings of `path` — staging files a
/// crashed saver stranded (SweepSnapshotTemps naming). Informational
/// only: they never affect the inspected file's validity.
void WarnOrphanTemps(const std::string& path) {
  std::error_code ec;
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const size_t at = name.rfind(".tmp.");
    if (at == std::string::npos) continue;
    const std::string suffix = name.substr(at + 5);
    if (suffix.empty()) continue;
    bool digits = true;
    for (char c : suffix) {
      digits &= std::isdigit(static_cast<unsigned char>(c)) != 0;
    }
    if (!digits) continue;
    std::printf("  warning: orphaned snapshot temp in this directory: %s "
                "(stranded by a crashed save; removed by "
                "SweepSnapshotTemps / service startup)\n",
                name.c_str());
  }
}

const char* SectionName(uint32_t id) {
  switch (static_cast<gent::storage::SectionId>(id)) {
    case gent::storage::SectionId::kBody:
      return "body (v1 payload)";
    case gent::storage::SectionId::kColumnIndex:
      return "column-index";
    case gent::storage::SectionId::kColumnValues:
      return "column-values";
    case gent::storage::SectionId::kSpine:
      return "spine";
    case gent::storage::SectionId::kPostOffsets:
      return "post-offsets";
    case gent::storage::SectionId::kPostCols:
      return "post-cols";
    case gent::storage::SectionId::kDeltaDir:
      return "delta-dir";
    case gent::storage::SectionId::kDictTags:
      return "dict-tags";
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  bool verify = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else if (path.empty()) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: %s <file.snap> [--verify]\n", argv[0]);
      return 1;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: %s <file.snap> [--verify]\n", argv[0]);
    return 1;
  }

  // Full load: parses the body, and on v2 validates the whole catalog
  // tail (footer + every section checksum). This IS the --verify deep
  // check for the body; without --verify we still report what it found.
  gent::DataLake lake;
  gent::SnapshotLoadInfo info;
  gent::Status load = gent::LoadSnapshot(lake, path, &info);
  if (verify && !load.ok()) {
    std::fprintf(stderr, "%s: LOAD FAILED: %s\n", path.c_str(),
                 load.ToString().c_str());
    return 1;
  }

  std::printf("%s\n", path.c_str());
  WarnOrphanTemps(path);
  if (load.ok()) {
    std::printf("  format version: %" PRIu32 "%s\n", info.version,
                info.version >= 2 ? " (carries built catalog)" : "");
    std::printf("  tables: %zu\n", lake.size());
    uint64_t rows = 0;
    for (size_t i = 0; i < lake.size(); ++i) rows += lake.table(i).num_rows();
    std::printf("  total rows: %" PRIu64 "\n", rows);
    std::printf("  dictionary: %zu values, %s, arena %zu bytes\n",
                lake.dict()->size(),
                info.dictionary_adopted ? "adopted from dict-tags"
                                        : "re-interned",
                lake.dict()->base_bytes());
  } else {
    std::printf("  body: UNREADABLE (%s)\n", load.ToString().c_str());
  }

  // Footer + section directory, independent of the body parse so a
  // corrupt body still gets its tail reported.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  auto footer = gent::storage::ReadFooter(f);
  if (!footer.ok()) {
    std::printf("  catalog tail: none (%s)\n",
                footer.status().message().c_str());
    std::fclose(f);
    return load.ok() ? 0 : 1;
  }
  std::printf("  catalog tail: v%" PRIu32 ", %zu sections, begins at %" PRIu64
              "\n",
              footer->version, footer->sections.size(),
              footer->catalog_begin);
  bool all_ok = true;
  for (const gent::storage::SectionDesc& desc : footer->sections) {
    std::string state = "not checked";
    if (verify) {
      gent::Status s = gent::storage::VerifySectionChecksum(f, desc);
      state = s.ok() ? "OK" : s.ToString();
      all_ok &= s.ok();
    }
    std::printf("    [%u] %-18s offset %10" PRIu64 "  %10" PRIu64
                " bytes  checksum %016" PRIx64 "  %s\n",
                desc.id, SectionName(desc.id), desc.offset, desc.bytes,
                desc.checksum, state.c_str());
  }
  // Dictionary tags (kDictTags): what a load into an empty dictionary
  // adopts instead of hashing every string again.
  if (const gent::storage::SectionDesc* tags =
          footer->Find(gent::storage::SectionId::kDictTags)) {
    auto header = gent::storage::ReadDictTagsHeader(f, *tags);
    if (header.ok()) {
      std::printf("  dict tags: offset %" PRIu64 "  count %" PRIu64
                  "  %" PRIu64 " bytes  tag_version %" PRIu32 "%s\n",
                  tags->offset, header->count, tags->bytes,
                  header->tag_version,
                  header->tag_version == gent::ValueDictionary::kTagVersion
                      ? ""
                      : " (foreign: re-interned)");
    } else {
      std::printf("  dict tags: UNREADABLE (%s)\n",
                  header.status().ToString().c_str());
      all_ok = false;
    }
  } else {
    std::printf("  dict tags: none (the dictionary re-interns on load)\n");
  }
  // Delta-run directory (incremental ingest): one line per appended
  // run, checksummed like any section when --verify is on.
  auto runs = gent::storage::ReadDeltaDir(f, *footer);
  if (!runs.ok()) {
    std::printf("  delta runs: UNREADABLE (%s)\n",
                runs.status().ToString().c_str());
    all_ok = false;
  } else if (!runs->empty()) {
    std::printf("  delta runs: %zu (footer v%" PRIu32
                "; fold with CompactSnapshotV2)\n",
                runs->size(), footer->version);
    for (const gent::storage::DeltaRunDesc& run : *runs) {
      std::string state = "not checked";
      if (verify) {
        gent::Status s = gent::storage::VerifyDeltaRunChecksum(f, run);
        state = s.ok() ? "OK" : s.ToString();
        all_ok &= s.ok();
      }
      std::printf("    run %3" PRIu64 "  offset %10" PRIu64 "  %10" PRIu64
                  " bytes  checksum %016" PRIx64 "  %s\n",
                  run.generation, run.offset, run.bytes, run.checksum,
                  state.c_str());
    }
  }
  std::fclose(f);
  if (verify) {
    std::printf("  checksums: %s\n", all_ok ? "all valid" : "CORRUPT");
  }
  return (load.ok() && (!verify || all_ok)) ? 0 : 1;
}
