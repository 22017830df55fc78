// Snapshot files for tests: a v2 save with the engine's catalog, the
// version-1 files earlier builds wrote, which the readers still
// accept, and footer surgery on the optional kDictTags section.

#ifndef GENT_TESTS_SNAPSHOT_FIXTURES_H_
#define GENT_TESTS_SNAPSHOT_FIXTURES_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

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

/// Rewrites, in place, the footer of the v2 snapshot at `path` with the
/// descriptors `edit` leaves in its argument (same footer offset and
/// version). Bytes no descriptor references stay in the file,
/// unreferenced.
inline Status RewriteFooter(
    const std::string& path,
    const std::function<void(std::vector<storage::SectionDesc>*)>& edit) {
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) return Status::IOError("cannot open '" + path + "'");
  auto footer = storage::ReadFooterRecover(file);
  if (!footer.ok()) {
    std::fclose(file);
    return footer.status();
  }
  std::vector<storage::SectionDesc> sections = footer->sections;
  edit(&sections);
  bool ok = std::fseek(file, static_cast<long>(footer->footer_offset),
                       SEEK_SET) == 0;
  storage::SectionWriter w(file, footer->footer_offset);
  for (const storage::SectionDesc& desc : sections) w.SeedSection(desc);
  ok = ok && w.Finish(footer->version);
  ok = std::fclose(file) == 0 && ok;
  return ok ? Status::OK() : Status::IOError("cannot rewrite '" + path + "'");
}

/// Drops the kDictTags descriptor of the v2 snapshot at `path`: the file
/// then loads as one written before the section existed.
inline Status StripDictTags(const std::string& path) {
  return RewriteFooter(path, [](std::vector<storage::SectionDesc>* sections) {
    sections->erase(
        std::remove_if(sections->begin(), sections->end(),
                       [](const storage::SectionDesc& d) {
                         return d.id == static_cast<uint32_t>(
                                            storage::SectionId::kDictTags);
                       }),
        sections->end());
  });
}

/// Rewrites the kDictTags payload of the v2 snapshot at `path` through
/// `edit` (which may shrink it, never grow it) and re-seals the
/// section's descriptor, so only the section's own content can be
/// what a reader objects to.
inline Status ForgeDictTags(
    const std::string& path,
    const std::function<void(std::vector<uint8_t>*)>& edit) {
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) return Status::IOError("cannot open '" + path + "'");
  auto footer = storage::ReadFooterRecover(file);
  const storage::SectionDesc* desc =
      footer.ok() ? footer->Find(storage::SectionId::kDictTags) : nullptr;
  if (desc == nullptr) {
    std::fclose(file);
    return Status::NotFound("no dictionary tags section");
  }
  std::vector<uint8_t> payload(static_cast<size_t>(desc->bytes));
  bool ok = std::fseek(file, static_cast<long>(desc->offset), SEEK_SET) == 0 &&
            std::fread(payload.data(), 1, payload.size(), file) ==
                payload.size();
  edit(&payload);
  ok = ok && payload.size() <= desc->bytes &&
       std::fseek(file, static_cast<long>(desc->offset), SEEK_SET) == 0 &&
       std::fwrite(payload.data(), 1, payload.size(), file) == payload.size();
  ok = std::fclose(file) == 0 && ok;
  if (!ok) return Status::IOError("cannot forge '" + path + "'");
  const uint64_t bytes = payload.size();
  const uint64_t checksum = storage::Checksum(payload.data(), payload.size());
  return RewriteFooter(path, [&](std::vector<storage::SectionDesc>* sections) {
    for (storage::SectionDesc& d : *sections) {
      if (d.id == static_cast<uint32_t>(storage::SectionId::kDictTags)) {
        d.bytes = bytes;
        d.checksum = checksum;
      }
    }
  });
}

}  // namespace gent

#endif  // GENT_TESTS_SNAPSHOT_FIXTURES_H_
