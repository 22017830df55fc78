#include "src/storage/paged_file.h"

#include <cstring>

#include "src/storage/io.h"

namespace gent::storage {

namespace {

constexpr char kFooterMagic[8] = {'G', 'E', 'N', 'T', 'C', 'A', 'T', 'F'};

// Little-endian field helpers over a flat buffer (the footer is parsed
// from a fixed-size byte array, never type-punned).
void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }
uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

const SectionDesc* PagedFooter::Find(SectionId id) const {
  for (const SectionDesc& s : sections) {
    if (s.id == static_cast<uint32_t>(id)) return &s;
  }
  return nullptr;
}

SectionWriter::SectionWriter(std::FILE* file, uint64_t start_offset)
    : file_(file), offset_(start_offset) {}

void SectionWriter::Raw(const void* data, size_t n) {
  if (failed_) return;
  failed_ = io::Fwrite(data, n, file_) != n;
  if (!failed_) offset_ += n;
}

void SectionWriter::PadToBlock() {
  static const char zeros[4096] = {0};
  uint64_t pad = AlignToBlock(offset_) - offset_;
  while (pad > 0 && !failed_) {
    const size_t chunk = pad < sizeof zeros ? static_cast<size_t>(pad)
                                            : sizeof zeros;
    Raw(zeros, chunk);
    pad -= chunk;
  }
}

void SectionWriter::BeginSection(SectionId id) {
  PadToBlock();
  in_section_ = true;
  current_ = SectionDesc{};
  current_.id = static_cast<uint32_t>(id);
  current_.offset = offset_;
  current_checksum_ = Checksum64{};
}

void SectionWriter::Append(const void* data, size_t n) {
  if (!in_section_) {
    failed_ = true;
    return;
  }
  current_checksum_.Append(data, n);
  Raw(data, n);
}

void SectionWriter::EndSection() {
  if (!in_section_) {
    failed_ = true;
    return;
  }
  current_.bytes = offset_ - current_.offset;
  current_.checksum = current_checksum_.Finish();
  sections_.push_back(current_);
  in_section_ = false;
}

void SectionWriter::SeedSection(const SectionDesc& desc) {
  if (in_section_) {
    failed_ = true;
    return;
  }
  sections_.push_back(desc);
}

void SectionWriter::AddBodyDesc(uint64_t body_bytes, uint64_t body_checksum) {
  SectionDesc body;
  body.id = static_cast<uint32_t>(SectionId::kBody);
  body.offset = 0;
  body.bytes = body_bytes;
  body.checksum = body_checksum;
  sections_.insert(sections_.begin(), body);
}

bool SectionWriter::Finish(uint32_t version) {
  if (in_section_ || sections_.size() > kMaxSections) failed_ = true;
  PadToBlock();
  if (failed_) return false;

  // catalog_begin: where the first catalog section landed (block-aligned
  // end of the body). Derived from the first non-body descriptor; a
  // footer with only a body descriptor points at the footer itself.
  uint64_t catalog_begin = offset_;
  for (const SectionDesc& s : sections_) {
    if (s.id != static_cast<uint32_t>(SectionId::kBody)) {
      catalog_begin = s.offset;
      break;
    }
  }

  uint8_t buf[kFooterBytes] = {0};
  uint8_t* p = buf;
  PutU64(p, catalog_begin);
  p += 8;
  PutU32(p, version);
  p += 4;
  PutU32(p, static_cast<uint32_t>(sections_.size()));
  p += 4;
  for (size_t i = 0; i < kMaxSections; ++i) {
    if (i < sections_.size()) {
      PutU32(p, sections_[i].id);
      PutU64(p + 8, sections_[i].offset);
      PutU64(p + 16, sections_[i].bytes);
      PutU64(p + 24, sections_[i].checksum);
    }
    p += 32;
  }
  PutU64(p, Checksum(buf, static_cast<size_t>(p - buf)));
  p += 8;
  std::memcpy(p, kFooterMagic, 8);
  Raw(buf, sizeof buf);
  return !failed_;
}

namespace {

// Parses and validates the kFooterBytes footer at `footer_offset`.
// InvalidArgument when no footer magic is there; IOError when a footer
// is present but damaged.
Result<PagedFooter> ParseFooterAt(std::FILE* file, uint64_t footer_offset) {
  if (std::fseek(file, static_cast<long>(footer_offset), SEEK_SET) != 0) {
    return Status::IOError("snapshot footer: cannot seek to footer");
  }
  uint8_t buf[kFooterBytes];
  if (io::Fread(buf, sizeof buf, file) != sizeof buf) {
    return Status::IOError("snapshot footer: short read");
  }
  if (std::memcmp(buf + kFooterBytes - 8, kFooterMagic, 8) != 0) {
    return Status::InvalidArgument("snapshot has no catalog footer");
  }
  const uint64_t stored = GetU64(buf + kFooterBytes - 16);
  if (Checksum(buf, kFooterBytes - 16) != stored) {
    return Status::IOError("snapshot footer checksum mismatch");
  }

  PagedFooter footer;
  footer.footer_offset = footer_offset;
  const uint8_t* p = buf;
  footer.catalog_begin = GetU64(p);
  p += 8;
  footer.version = GetU32(p);
  p += 4;
  const uint32_t count = GetU32(p);
  p += 4;
  if (count > kMaxSections) {
    return Status::IOError("snapshot footer: impossible section count");
  }
  uint64_t prev_end = 0;
  bool saw_body = false;
  for (uint32_t i = 0; i < count; ++i, p += 32) {
    SectionDesc s;
    s.id = GetU32(p);
    s.offset = GetU64(p + 8);
    s.bytes = GetU64(p + 16);
    s.checksum = GetU64(p + 24);
    if (s.id == static_cast<uint32_t>(SectionId::kBody)) {
      // The body starts at byte 0 and ends at or before catalog_begin.
      if (saw_body || s.offset != 0 || s.bytes > footer.catalog_begin) {
        return Status::IOError("snapshot footer: bad body descriptor");
      }
      saw_body = true;
    } else {
      // Catalog sections: block-aligned, ascending, non-overlapping,
      // within [catalog_begin, footer).
      if (s.offset % kBlockSize != 0 || s.offset < footer.catalog_begin ||
          s.offset < prev_end || s.bytes > footer.footer_offset ||
          s.offset > footer.footer_offset - s.bytes) {
        return Status::IOError("snapshot footer: bad section geometry");
      }
      prev_end = s.offset + s.bytes;
    }
    footer.sections.push_back(s);
  }
  if (footer.catalog_begin % kBlockSize != 0 ||
      footer.catalog_begin > footer.footer_offset) {
    return Status::IOError("snapshot footer: bad catalog region bounds");
  }
  return footer;
}

}  // namespace

Result<PagedFooter> ReadFooter(std::FILE* file) {
  if (std::fseek(file, 0, SEEK_END) != 0) {
    return Status::IOError("snapshot footer: cannot seek to end");
  }
  const long end = std::ftell(file);
  if (end < 0 || static_cast<uint64_t>(end) < kFooterBytes) {
    return Status::InvalidArgument("snapshot has no catalog footer");
  }
  return ParseFooterAt(file, static_cast<uint64_t>(end) - kFooterBytes);
}

Result<PagedFooter> ReadFooterRecover(std::FILE* file) {
  if (std::fseek(file, 0, SEEK_END) != 0) {
    return Status::IOError("snapshot footer: cannot seek to end");
  }
  const long end = std::ftell(file);
  if (end < 0 || static_cast<uint64_t>(end) < kFooterBytes) {
    return Status::InvalidArgument("snapshot has no catalog footer");
  }
  const uint64_t file_size = static_cast<uint64_t>(end);

  Result<PagedFooter> strict = ParseFooterAt(file, file_size - kFooterBytes);
  if (strict.ok()) return strict;
  if (strict.status().code() != StatusCode::kInvalidArgument) {
    // Footer magic is at EOF but the footer is damaged: a bit flip, not
    // a torn append (torn writes shorten the file, so the magic — the
    // footer's final 8 bytes — cannot land at EOF). Surface corruption.
    return strict;
  }

  // Torn-append recovery: every committed footer starts 4 KiB-aligned
  // (the writer pads to a block boundary first) and is never
  // overwritten, so the newest durable footer is the highest aligned
  // candidate that parses. Scan backward, bounded so a file with no
  // footer at all (a v1 snapshot) costs at most one tail sweep; torn
  // appends larger than the bound fall through to the body-salvage
  // path.
  constexpr uint64_t kScanAlign = 4096;
  constexpr uint64_t kMaxScanSteps = (256u << 20) / kScanAlign;
  uint64_t cand = ((file_size - kFooterBytes) / kScanAlign) * kScanAlign;
  for (uint64_t step = 0; step < kMaxScanSteps; ++step, cand -= kScanAlign) {
    Result<PagedFooter> f = ParseFooterAt(file, cand);
    if (f.ok()) return f;
    if (cand == 0) break;
  }
  return Status::InvalidArgument("snapshot has no catalog footer");
}

std::vector<uint8_t> SerializeDeltaDir(const std::vector<DeltaRunDesc>& runs) {
  std::vector<uint8_t> out(8 + 32 * runs.size());
  uint8_t* p = out.data();
  PutU64(p, runs.size());
  p += 8;
  for (const DeltaRunDesc& r : runs) {
    PutU64(p, r.generation);
    PutU64(p + 8, r.offset);
    PutU64(p + 16, r.bytes);
    PutU64(p + 24, r.checksum);
    p += 32;
  }
  return out;
}

Result<std::vector<DeltaRunDesc>> ParseDeltaDir(const uint8_t* data,
                                                size_t bytes,
                                                uint64_t dir_offset) {
  if (bytes < 8) {
    return Status::IOError("snapshot delta dir: truncated header");
  }
  const uint64_t count = GetU64(data);
  if (count > (bytes - 8) / 32 || bytes != 8 + 32 * count) {
    return Status::IOError("snapshot delta dir: bad run count");
  }
  std::vector<DeltaRunDesc> runs;
  runs.reserve(static_cast<size_t>(count));
  uint64_t prev_end = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint8_t* p = data + 8 + 32 * i;
    DeltaRunDesc r;
    r.generation = GetU64(p);
    r.offset = GetU64(p + 8);
    r.bytes = GetU64(p + 16);
    r.checksum = GetU64(p + 24);
    if (r.generation != i + 1 || r.offset % kBlockSize != 0 ||
        r.bytes == 0 || r.offset < prev_end || r.bytes > dir_offset ||
        r.offset > dir_offset - r.bytes) {
      return Status::IOError("snapshot delta dir: bad run geometry");
    }
    prev_end = r.offset + r.bytes;
    runs.push_back(r);
  }
  return runs;
}

Status VerifySectionChecksum(std::FILE* file, const SectionDesc& desc) {
  if (std::fseek(file, static_cast<long>(desc.offset), SEEK_SET) != 0) {
    return Status::IOError("snapshot section: cannot seek");
  }
  Checksum64 sum;
  uint8_t buf[1u << 16];
  uint64_t left = desc.bytes;
  while (left > 0) {
    const size_t chunk =
        left < sizeof buf ? static_cast<size_t>(left) : sizeof buf;
    if (io::Fread(buf, chunk, file) != chunk) {
      return Status::IOError("snapshot section: short read (truncated file)");
    }
    sum.Append(buf, chunk);
    left -= chunk;
  }
  if (sum.Finish() != desc.checksum) {
    return Status::IOError("snapshot section " + std::to_string(desc.id) +
                           " checksum mismatch (corrupt file)");
  }
  return Status::OK();
}

namespace {

// Reads the raw kDictTags header of `desc` into `buf` and parses it,
// checking the section is exactly header + count tags. Leaves `file`
// positioned at the first tag.
Result<DictTagsHeader> ReadDictTagsHeaderInto(
    std::FILE* file, const SectionDesc& desc,
    uint8_t (&buf)[kDictTagsHeaderBytes]) {
  if (desc.bytes < kDictTagsHeaderBytes ||
      std::fseek(file, static_cast<long>(desc.offset), SEEK_SET) != 0 ||
      io::Fread(buf, kDictTagsHeaderBytes, file) != kDictTagsHeaderBytes) {
    return Status::IOError("snapshot dictionary tags: cannot read header");
  }
  DictTagsHeader header;
  header.tag_version = GetU32(buf);
  header.count = GetU64(buf + 8);
  const uint64_t tag_bytes = desc.bytes - kDictTagsHeaderBytes;
  if (tag_bytes % 4 != 0 || header.count != tag_bytes / 4) {
    return Status::IOError(
        "snapshot dictionary tags: count does not match section size");
  }
  return header;
}

}  // namespace

Result<DictTagsHeader> ReadDictTagsHeader(std::FILE* file,
                                          const SectionDesc& desc) {
  uint8_t buf[kDictTagsHeaderBytes];
  return ReadDictTagsHeaderInto(file, desc, buf);
}

Status ReadDictTags(std::FILE* file, const SectionDesc& desc,
                    std::vector<uint32_t>* tags) {
  uint8_t head[kDictTagsHeaderBytes];
  auto header = ReadDictTagsHeaderInto(file, desc, head);
  if (!header.ok()) return header.status();
  tags->resize(static_cast<size_t>(header->count));
  const size_t tag_bytes = tags->size() * sizeof(uint32_t);
  if (io::Fread(tags->data(), tag_bytes, file) != tag_bytes) {
    return Status::IOError("snapshot dictionary tags: short read");
  }
  Checksum64 sum;
  sum.Append(head, sizeof head);
  sum.Append(tags->data(), tag_bytes);
  if (sum.Finish() != desc.checksum) {
    return Status::IOError(
        "snapshot dictionary tags checksum mismatch (corrupt file)");
  }
  return Status::OK();
}

}  // namespace gent::storage
