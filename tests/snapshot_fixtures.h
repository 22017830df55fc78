// Snapshot files for tests: a v2 save with the engine's catalog, and
// the version-1 files earlier builds wrote, which the readers still
// accept.

#ifndef GENT_TESTS_SNAPSHOT_FIXTURES_H_
#define GENT_TESTS_SNAPSHOT_FIXTURES_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "src/gent/gent.h"
#include "src/lake/snapshot.h"
#include "src/storage/paged_file.h"

namespace gent {

/// Saves `lake` as a v2 snapshot at `path`, building the catalog the
/// same way the engine does.
inline Status SaveV2(const DataLake& lake, const std::string& path) {
  GenT gent(lake);
  return SaveSnapshotV2(lake, gent.catalog().section_views(), path);
}

/// Writes `lake` to `path` as a version-1 snapshot. A v1 file is the v2
/// body alone (src/lake/snapshot.h), so the fixture is a v2 file's body
/// prefix — the bytes of the footer's offset-0 body descriptor — with
/// the u32 version at offset 8 patched to 1. That is byte for byte what
/// the v1 writer of earlier builds produced for the same lake.
inline Status WriteV1Snapshot(const DataLake& lake, const std::string& path) {
  const std::string v2 = path + ".v2";
  GENT_RETURN_IF_ERROR(SaveV2(lake, v2));
  std::FILE* file = std::fopen(v2.c_str(), "rb");
  if (file == nullptr) return Status::IOError("cannot open '" + v2 + "'");
  auto footer = storage::ReadFooter(file);
  std::fclose(file);
  if (!footer.ok()) return footer.status();
  const storage::SectionDesc* body = footer->Find(storage::SectionId::kBody);
  if (body == nullptr) return Status::IOError("no body descriptor");

  std::ifstream in(v2, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::remove(v2.c_str());
  bytes.resize(body->bytes);
  const uint32_t version = 1;
  std::memcpy(&bytes[8], &version, sizeof version);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return out ? Status::OK() : Status::IOError("cannot write '" + path + "'");
}

}  // namespace gent

#endif  // GENT_TESTS_SNAPSHOT_FIXTURES_H_
