#include "src/storage/catalog_pager.h"

#include <cstring>

#include "src/storage/io.h"

namespace gent::storage {

namespace {

// Sections every v2 catalog region must carry, in file order.
constexpr SectionId kRequired[] = {SectionId::kColumnIndex,
                                   SectionId::kColumnValues, SectionId::kSpine,
                                   SectionId::kPostOffsets, SectionId::kPostCols};

struct Directory {
  uint64_t num_columns = 0;
  // (offset-in-ValueId-units, count) per dense column id.
  std::vector<std::pair<uint64_t, uint64_t>> entries;
};

// Parses the kColumnIndex payload and checks it describes an exact
// concatenation of `values_count` u32 values. The payload is trusted
// for length only (the caller sized it); contents are re-validated here
// because the mapped open path may run with checksum verification off.
Status ParseColumnIndex(const uint8_t* data, uint64_t bytes,
                        uint64_t values_count, Directory* out) {
  if (bytes < 8) {
    return Status::IOError("catalog column index: truncated header");
  }
  uint64_t n;
  std::memcpy(&n, data, 8);
  if (bytes != 8 + n * 16) {
    return Status::IOError("catalog column index: size does not match count");
  }
  out->num_columns = n;
  out->entries.reserve(n);
  uint64_t running = 0;
  const uint8_t* p = data + 8;
  for (uint64_t i = 0; i < n; ++i, p += 16) {
    uint64_t offset, count;
    std::memcpy(&offset, p, 8);
    std::memcpy(&count, p + 8, 8);
    if (offset != running || count > values_count - running) {
      return Status::IOError("catalog column index: offsets are not an exact "
                             "concatenation of the values section");
    }
    running += count;
    out->entries.emplace_back(offset, count);
  }
  if (running != values_count) {
    return Status::IOError("catalog column index: values section has " +
                           std::to_string(values_count - running) +
                           " unclaimed entries");
  }
  return Status::OK();
}

// Structural consistency of the section geometry that both the
// streaming validator and the mapped open must agree on.
Status CheckSectionShapes(const PagedFooter& footer, const SectionDesc** index,
                          const SectionDesc** values, const SectionDesc** spine,
                          const SectionDesc** post_offsets,
                          const SectionDesc** post_cols) {
  for (SectionId id : kRequired) {
    if (footer.Find(id) == nullptr) {
      return Status::IOError("catalog region: missing section " +
                             std::to_string(static_cast<uint32_t>(id)));
    }
  }
  *index = footer.Find(SectionId::kColumnIndex);
  *values = footer.Find(SectionId::kColumnValues);
  *spine = footer.Find(SectionId::kSpine);
  *post_offsets = footer.Find(SectionId::kPostOffsets);
  *post_cols = footer.Find(SectionId::kPostCols);
  if ((*values)->bytes % 4 != 0 || (*spine)->bytes % 4 != 0 ||
      (*post_offsets)->bytes % 4 != 0 || (*post_cols)->bytes % 4 != 0) {
    return Status::IOError("catalog region: section size not a multiple of 4");
  }
  // CSR offsets carry spine size + 1 entries.
  if ((*post_offsets)->bytes != (*spine)->bytes + 4) {
    return Status::IOError(
        "catalog region: CSR offsets do not match spine size");
  }
  return Status::OK();
}

// First/last u32 of the CSR offsets section must bracket the CSR
// payload exactly: offsets[0] == 0, offsets[spine] == |post_cols|.
Status CheckCsrBracket(uint32_t first, uint32_t last, uint64_t post_cols_count) {
  if (first != 0 || last != post_cols_count) {
    return Status::IOError(
        "catalog region: CSR offsets do not bracket the payload");
  }
  return Status::OK();
}

}  // namespace

Status AppendCatalogSections(std::FILE* file, uint64_t body_bytes,
                             uint64_t body_checksum,
                             const CatalogSectionViews& views,
                             uint32_t version,
                             const DictTagsView* dict_tags) {
  SectionWriter w(file, body_bytes);

  w.BeginSection(SectionId::kColumnIndex);
  w.AppendU64(static_cast<uint64_t>(views.columns.size()));
  uint64_t running = 0;
  for (const Span<uint32_t>& col : views.columns) {
    w.AppendU64(running);
    w.AppendU64(static_cast<uint64_t>(col.size()));
    running += col.size();
  }
  w.EndSection();

  w.BeginSection(SectionId::kColumnValues);
  for (const Span<uint32_t>& col : views.columns) {
    w.Append(col.data(), col.size() * sizeof(uint32_t));
  }
  w.EndSection();

  w.BeginSection(SectionId::kSpine);
  w.Append(views.spine.data(), views.spine.size() * sizeof(uint32_t));
  w.EndSection();

  w.BeginSection(SectionId::kPostOffsets);
  w.Append(views.post_offsets.data(),
           views.post_offsets.size() * sizeof(uint32_t));
  w.EndSection();

  w.BeginSection(SectionId::kPostCols);
  w.Append(views.post_cols.data(), views.post_cols.size() * sizeof(uint32_t));
  w.EndSection();

  if (dict_tags != nullptr) {
    w.BeginSection(SectionId::kDictTags);
    w.AppendU32(dict_tags->tag_version);
    w.AppendU32(0);  // pad
    w.AppendU64(static_cast<uint64_t>(dict_tags->tags.size()));
    w.Append(dict_tags->tags.data(),
             dict_tags->tags.size() * sizeof(uint32_t));
    w.EndSection();
  }

  w.AddBodyDesc(body_bytes, body_checksum);
  if (!w.Finish(version)) {
    return Status::IOError("snapshot: writing catalog sections failed");
  }
  return Status::OK();
}

Result<std::vector<DeltaRunDesc>> ReadDeltaDir(std::FILE* file,
                                               const PagedFooter& footer) {
  const SectionDesc* dir = footer.Find(SectionId::kDeltaDir);
  if (dir == nullptr) return std::vector<DeltaRunDesc>{};
  std::vector<uint8_t> payload(static_cast<size_t>(dir->bytes));
  if (std::fseek(file, static_cast<long>(dir->offset), SEEK_SET) != 0 ||
      io::Fread(payload.data(), payload.size(), file) != payload.size()) {
    return Status::IOError("snapshot: cannot read delta-run directory");
  }
  return ParseDeltaDir(payload.data(), payload.size(), dir->offset);
}

Status VerifyDeltaRunChecksum(std::FILE* file, const DeltaRunDesc& run) {
  SectionDesc as_section;
  as_section.id = static_cast<uint32_t>(SectionId::kDeltaDir);
  as_section.offset = run.offset;
  as_section.bytes = run.bytes;
  as_section.checksum = run.checksum;
  Status st = VerifySectionChecksum(file, as_section);
  if (!st.ok()) {
    return Status::IOError("snapshot delta run " +
                           std::to_string(run.generation) +
                           " checksum mismatch (corrupt file)");
  }
  return Status::OK();
}

Status ValidateCatalogTail(std::FILE* file, uint32_t expected_version,
                           uint64_t body_bytes, uint64_t body_checksum,
                           PagedFooter* out_footer,
                           std::vector<DeltaRunDesc>* out_runs) {
  auto footer = ReadFooterRecover(file);
  if (!footer.ok()) return footer.status();
  const bool delta_ok = expected_version == 2 &&
                        footer->version == kFooterVersionDelta;
  if (footer->version != expected_version && !delta_ok) {
    return Status::IOError("snapshot: footer version " +
                           std::to_string(footer->version) +
                           " disagrees with header version " +
                           std::to_string(expected_version));
  }
  const SectionDesc* body = footer->Find(SectionId::kBody);
  if (body == nullptr) {
    return Status::IOError("snapshot: footer is missing the body descriptor");
  }
  if (body->bytes != body_bytes || body->checksum != body_checksum) {
    return Status::IOError(
        "snapshot: body does not match its footer descriptor (corrupt file)");
  }

  const SectionDesc *index, *values, *spine, *post_offsets, *post_cols;
  GENT_RETURN_IF_ERROR(
      CheckSectionShapes(*footer, &index, &values, &spine, &post_offsets,
                         &post_cols));
  // The body checksum was accumulated by the caller while streaming, so
  // only the catalog sections are re-read here.
  for (const SectionDesc& s : footer->sections) {
    if (s.id == static_cast<uint32_t>(SectionId::kBody)) continue;
    GENT_RETURN_IF_ERROR(VerifySectionChecksum(file, s));
  }

  // Structural invariants: read the (small) column index plus the two
  // bracketing CSR offsets; everything else was just checksummed.
  std::vector<uint8_t> index_bytes(static_cast<size_t>(index->bytes));
  if (std::fseek(file, static_cast<long>(index->offset), SEEK_SET) != 0 ||
      io::Fread(index_bytes.data(), index_bytes.size(), file) !=
          index_bytes.size()) {
    return Status::IOError("snapshot: cannot read catalog column index");
  }
  Directory dir;
  GENT_RETURN_IF_ERROR(ParseColumnIndex(index_bytes.data(), index->bytes,
                                        values->bytes / 4, &dir));
  uint32_t bracket[2];
  if (std::fseek(file, static_cast<long>(post_offsets->offset), SEEK_SET) != 0 ||
      io::Fread(&bracket[0], 4, file) != 4 ||
      std::fseek(file,
                 static_cast<long>(post_offsets->offset + post_offsets->bytes -
                                   4),
                 SEEK_SET) != 0 ||
      io::Fread(&bracket[1], 4, file) != 4) {
    return Status::IOError("snapshot: cannot read CSR offset bounds");
  }
  GENT_RETURN_IF_ERROR(
      CheckCsrBracket(bracket[0], bracket[1], post_cols->bytes / 4));

  // Delta runs are not footer sections (the directory is), so their
  // checksums are verified from the directory here.
  auto runs = ReadDeltaDir(file, *footer);
  if (!runs.ok()) return runs.status();
  for (const DeltaRunDesc& run : *runs) {
    GENT_RETURN_IF_ERROR(VerifyDeltaRunChecksum(file, run));
  }
  if (out_footer != nullptr) *out_footer = *footer;
  if (out_runs != nullptr) *out_runs = std::move(*runs);
  return Status::OK();
}

Result<std::unique_ptr<MappedCatalog>> MappedCatalog::Open(
    const std::string& path, const Options& options) {
  auto mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();

  // The footer readers work on stdio; reuse them instead of duplicating
  // the geometry validation against the mapping.
  std::FILE* f = io::Fopen(path, "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path + "'");
  }
  auto footer = ReadFooterRecover(f);
  if (!footer.ok()) {
    io::Fclose(f);
    return footer.status();
  }
  if (footer->version < 2) {
    io::Fclose(f);
    return Status::InvalidArgument("snapshot has no catalog sections");
  }
  const SectionDesc *index, *values, *spine, *post_offsets, *post_cols;
  Status shapes = CheckSectionShapes(*footer, &index, &values, &spine,
                                     &post_offsets, &post_cols);
  if (!shapes.ok()) {
    io::Fclose(f);
    return shapes;
  }
  auto runs = ReadDeltaDir(f, *footer);
  if (!runs.ok()) {
    io::Fclose(f);
    return runs.status();
  }
  if (options.verify_checksums) {
    for (const SectionDesc& s : footer->sections) {
      Status st = VerifySectionChecksum(f, s);
      if (!st.ok()) {
        io::Fclose(f);
        return st;
      }
    }
    for (const DeltaRunDesc& run : *runs) {
      Status st = VerifyDeltaRunChecksum(f, run);
      if (!st.ok()) {
        io::Fclose(f);
        return st;
      }
    }
  }
  io::Fclose(f);

  // The mapping must cover at least everything the recovered footer
  // describes; trailing bytes past the footer are crash debris from a
  // torn append and never referenced.
  if (mapped->size() < footer->footer_offset + kFooterBytes) {
    return Status::IOError("snapshot changed size while opening");
  }

  // SIGBUS guard: a mapped access past EOF faults the process, and a
  // file that shrank between the mmap and here would put the
  // footer-declared extents past EOF. Re-stat and refuse to serve a
  // file shorter than its own directory claims; after this point the
  // mapping and the footer agree, and the file is immutable by
  // contract.
  auto size_now = io::FileSize(path);
  if (!size_now.ok()) return size_now.status();
  if (*size_now < footer->footer_offset + kFooterBytes) {
    return Status::IOError("'" + path +
                           "' was truncated below its footer-declared "
                           "extents while opening");
  }

  auto cat = std::unique_ptr<MappedCatalog>(new MappedCatalog());
  cat->file_ = std::move(mapped).value();
  const uint8_t* data = cat->file_.data();

  // The pool manages the catalog region: block-aligned file offsets of
  // a page-aligned mapping, so every block starts on a page boundary.
  const uint64_t region_begin = footer->catalog_begin;
  cat->region_bytes_ = footer->footer_offset - region_begin;
  cat->pool_ = std::make_unique<BufferPool>(data + region_begin,
                                            static_cast<size_t>(
                                                cat->region_bytes_),
                                            options.pool_capacity_blocks,
                                            options.budget);

  const auto pin_range = [&](uint64_t offset, uint64_t bytes) {
    const size_t first =
        static_cast<size_t>((offset - region_begin) / kBlockSize);
    const size_t blocks = static_cast<size_t>(
        AlignToBlock(offset - region_begin + bytes) / kBlockSize - first);
    cat->pool_->Pin(first, blocks);
  };
  const auto pin_section = [&](const SectionDesc& s) {
    pin_range(s.offset, s.bytes);
  };
  // Hot spine stays pinned: the column index, postings spine, and CSR
  // offsets are touched by effectively every query; only column runs and
  // the CSR payload fault in on demand.
  pin_section(*index);
  pin_section(*spine);
  pin_section(*post_offsets);

  // Structural validation reads only pinned sections (plus two u32s of
  // bracketing data), so a bounded pool never thrashes during open.
  Directory dir;
  Status st = ParseColumnIndex(data + index->offset, index->bytes,
                               values->bytes / 4, &dir);
  if (!st.ok()) return st;
  const uint32_t* po =
      reinterpret_cast<const uint32_t*>(data + post_offsets->offset);
  const size_t po_count = static_cast<size_t>(post_offsets->bytes / 4);
  st = CheckCsrBracket(po[0], po[po_count - 1], post_cols->bytes / 4);
  if (!st.ok()) return st;

  const uint32_t* col_values =
      reinterpret_cast<const uint32_t*>(data + values->offset);
  cat->views_.columns.reserve(dir.entries.size());
  for (const auto& [offset, count] : dir.entries) {
    cat->views_.columns.push_back(
        Span<uint32_t>(col_values + offset, static_cast<size_t>(count)));
  }
  cat->views_.spine =
      Span<uint32_t>(reinterpret_cast<const uint32_t*>(data + spine->offset),
                     static_cast<size_t>(spine->bytes / 4));
  cat->views_.post_offsets = Span<uint32_t>(po, po_count);
  cat->views_.post_cols = Span<uint32_t>(
      reinterpret_cast<const uint32_t*>(data + post_cols->offset),
      static_cast<size_t>(post_cols->bytes / 4));

  // Delta runs: parse each blob's catalog part straight from the
  // mapping (runs live inside the pool region, before the footer) and
  // pin its hot prefix — run column index through CSR offsets — like
  // the base sections' spine. Column-id chaining is validated so the
  // engine can treat base + runs as one dense id space.
  uint64_t next_col = dir.entries.size();
  for (const DeltaRunDesc& run : *runs) {
    RunViews rv;
    rv.generation = run.generation;
    Status run_st = ParseDeltaRunCatalog(data + run.offset,
                                         static_cast<size_t>(run.bytes),
                                         &rv.catalog);
    if (!run_st.ok()) return run_st;
    if (rv.catalog.first_col != next_col) {
      return Status::IOError(
          "snapshot delta run " + std::to_string(run.generation) +
          ": column ids do not chain onto the preceding catalog");
    }
    next_col += rv.catalog.columns.size();
    uint64_t catalog_off = 0;
    run_st = ParseDeltaRunHeader(data + run.offset,
                                 static_cast<size_t>(run.bytes),
                                 &catalog_off);
    if (!run_st.ok()) return run_st;
    const uint8_t* hot_begin = data + run.offset + catalog_off;
    const uint8_t* hot_end = reinterpret_cast<const uint8_t*>(
        rv.catalog.post_offsets.data() + rv.catalog.post_offsets.size());
    pin_range(static_cast<uint64_t>(hot_begin - data),
              static_cast<uint64_t>(hot_end - hot_begin));
    cat->delta_runs_.push_back(std::move(rv));
  }
  return cat;
}

}  // namespace gent::storage
