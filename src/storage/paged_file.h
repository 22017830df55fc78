// Append-only, page-aligned section format for snapshot files
// (DESIGN.md §5.10).
//
// A v2 snapshot is the v1 byte stream (the "body": dictionary + raw
// table columns) followed by block-aligned catalog sections and a
// fixed-size footer at EOF:
//
//   [ body (v1 payload) | pad | section | pad | section | ... | footer ]
//
// Sections are written strictly append-only — the writer never seeks
// backward — so a snapshot writer composes with any streaming sink and
// a crashed/ENOSPC write can never corrupt bytes already on disk; the
// footer is written last, so a file without a valid footer is simply
// not a v2 snapshot. Each section carries a 64-bit content checksum in
// the footer; the body is covered by a pseudo-section descriptor with
// offset 0, so the whole file is verifiable from the footer alone.
//
// The reader side is two primitives: ReadFooter (seek to EOF, validate
// magic + footer checksum + descriptor geometry) and VerifyChecksums
// (stream every section and delta run through Checksum64, the one
// verifier). Both operate on a plain stdio FILE — the verifier with
// positional reads only, so it can run beside a loader parsing the same
// open file (LoadSnapshot) — and work for tools; the mmap path
// (buffer_pool.h, catalog_pager.h) shares the same footer.

#ifndef GENT_STORAGE_PAGED_FILE_H_
#define GENT_STORAGE_PAGED_FILE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/storage/block.h"
#include "src/util/status.h"

namespace gent::storage {

/// Section ids of the v2 snapshot catalog region. The body descriptor
/// lets a reader verify the v1 payload without parsing it.
enum class SectionId : uint32_t {
  kBody = 0,          // bytes [0, bytes): the v1-format payload
  kColumnIndex = 1,   // u64 column count, then (u64 offset, u64 count) per
                      // dense column id — offsets in ValueId units into
                      // kColumnValues
  kColumnValues = 2,  // u32 ValueId runs, concatenated per dense column id
  kSpine = 3,         // sorted distinct lake values (postings spine)
  kPostOffsets = 4,   // u32 CSR offsets, spine size + 1 entries
  kPostCols = 5,      // u32 dense column ids, CSR payload
  kDeltaDir = 6,      // delta-run directory: u64 run count, then per run
                      // (u64 generation, u64 offset, u64 bytes,
                      // u64 checksum) — run blobs live between the base
                      // catalog sections and the footer, outside any
                      // footer descriptor, and are rewritten as a whole
                      // on every append (DESIGN.md §5.12)
  kDictTags = 7,      // optional: u32 tag_version, u32 pad, u64 count,
                      // then one u32 hash tag (ValueDictionary::TagOf)
                      // per base-dictionary entry 1..count — what lets a
                      // load into an empty dictionary adopt the strings
                      // instead of hashing them (DESIGN.md §5.10)
};

/// Fixed header of a kDictTags section.
inline constexpr size_t kDictTagsHeaderBytes = 16;

struct DictTagsHeader {
  uint32_t tag_version = 0;
  uint64_t count = 0;
};

struct SectionDesc {
  uint32_t id = 0;
  uint64_t offset = 0;  // absolute file offset
  uint64_t bytes = 0;   // unpadded content length
  uint64_t checksum = 0;
};

/// One log-structured delta run appended to a v2 snapshot. The blob at
/// [offset, offset + bytes) is a self-contained run: the new tables in
/// body format plus their pre-built catalog arrays (snapshot.cc owns the
/// blob layout). `checksum` covers the whole blob, so runs verify
/// independently of the footer's section descriptors.
struct DeltaRunDesc {
  uint64_t generation = 0;  // 1-based append generation
  uint64_t offset = 0;      // absolute, block-aligned file offset
  uint64_t bytes = 0;       // unpadded blob length
  uint64_t checksum = 0;    // Checksum() of the blob
};

/// Serializes `runs` into the kDeltaDir section payload.
std::vector<uint8_t> SerializeDeltaDir(const std::vector<DeltaRunDesc>& runs);

/// Parses a kDeltaDir section payload (already checksum-verified by the
/// footer machinery). Validates geometry: runs block-aligned, ascending,
/// non-overlapping, below `dir_offset` (the directory section itself),
/// generations strictly increasing from 1.
Result<std::vector<DeltaRunDesc>> ParseDeltaDir(const uint8_t* data,
                                                size_t bytes,
                                                uint64_t dir_offset);

/// Parsed, validated footer of a v2 snapshot.
struct PagedFooter {
  uint32_t version = 0;
  uint64_t catalog_begin = 0;  // first block-aligned byte after the body
  uint64_t footer_offset = 0;  // where the footer itself starts
  std::vector<SectionDesc> sections;

  /// Descriptor lookup by id (nullptr if absent).
  const SectionDesc* Find(SectionId id) const;
};

/// Serialized footer size, fixed so readers can seek to EOF - size.
inline constexpr size_t kFooterBytes =
    8 /*catalog_begin*/ + 4 /*version*/ + 4 /*section count*/ +
    8 * (4 + 4 /*id+pad*/ + 8 + 8 + 8) /*descriptor slots*/ +
    8 /*footer checksum*/ + 8 /*magic*/;

/// Maximum descriptor slots in the fixed-size footer. The body, five
/// catalog sections, kDictTags and kDeltaDir fill all eight.
inline constexpr size_t kMaxSections = 8;

/// Appends block-aligned sections and the footer to `file`, which must
/// be positioned at `start_offset` (= bytes already written; the body
/// length). Strictly append-only; all failures fold into ok().
class SectionWriter {
 public:
  SectionWriter(std::FILE* file, uint64_t start_offset);

  /// Zero-pads to the next block boundary and starts a section there.
  void BeginSection(SectionId id);
  void Append(const void* data, size_t n);
  void AppendU32(uint32_t v) { Append(&v, sizeof v); }
  void AppendU64(uint64_t v) { Append(&v, sizeof v); }
  /// Closes the current section, recording its descriptor.
  void EndSection();

  /// Records the body pseudo-descriptor (offset 0). Call once, before
  /// Finish.
  void AddBodyDesc(uint64_t body_bytes, uint64_t body_checksum);

  /// Carries an existing descriptor forward unchanged into the footer
  /// this writer will emit — the delta-append path rewrites the footer
  /// without rewriting the base sections it describes. Seed in the
  /// original footer order (body first) before any BeginSection.
  void SeedSection(const SectionDesc& desc);

  /// Pads to a block boundary and writes the footer. Returns false if
  /// any write failed (the caller still owns flush/close).
  bool Finish(uint32_t version);

  bool ok() const { return !failed_; }
  uint64_t offset() const { return offset_; }

 private:
  void PadToBlock();
  void Raw(const void* data, size_t n);

  std::FILE* file_;
  uint64_t offset_;
  bool failed_ = false;
  bool in_section_ = false;
  SectionDesc current_;
  Checksum64 current_checksum_;
  std::vector<SectionDesc> sections_;
};

/// Reads and validates the footer of `file` (magic, footer checksum,
/// descriptor geometry: sections block-aligned, in-bounds, ascending,
/// non-overlapping, body descriptor consistent with catalog_begin).
/// InvalidArgument when the file has no v2 footer; IOError on a footer
/// that is present but damaged.
Result<PagedFooter> ReadFooter(std::FILE* file);

/// Like ReadFooter, but tolerant of crash debris after the last durable
/// footer: a delta append that died mid-write leaves a valid footer
/// followed by partial bytes, so the strict EOF parse fails. Recovery
/// order: (1) the strict EOF parse; (2) if EOF holds footer magic with a
/// bad checksum, surface that IOError (a bit flip, not a torn append);
/// (3) otherwise scan backward over 4 KiB-aligned candidates for the
/// last valid footer. `footer_offset` then points below EOF — callers
/// must treat bytes past footer_offset + kFooterBytes as garbage.
Result<PagedFooter> ReadFooterRecover(std::FILE* file);

/// Streams section `desc` of `file` through Checksum64 and compares
/// with the recorded checksum. IOError on read failure or mismatch.
Status VerifySectionChecksum(std::FILE* file, const SectionDesc& desc);

/// Streams run blob `run` through Checksum64 and compares. IOError on
/// read failure or mismatch.
Status VerifyDeltaRunChecksum(std::FILE* file, const DeltaRunDesc& run);

/// The verifier: checksums every section of `footer` in footer order
/// (the body descriptor included, so every byte the footer describes),
/// then every run of `runs`, and returns the first failure — IOError on
/// a mismatch or short read. Reads `file` with positional reads only
/// (io::Pread), so it may run on its own thread while another thread
/// reads the same FILE. `stop`, when given, is polled before each read
/// of at most 1 MiB; once it is set the verifier returns Cancelled.
Status VerifyChecksums(std::FILE* file, const PagedFooter& footer,
                       const std::vector<DeltaRunDesc>& runs,
                       const std::atomic<bool>* stop = nullptr);

/// Reads the header of kDictTags section `desc` and checks that the
/// section is exactly the header plus `count` tags. IOError otherwise.
/// Does not verify the checksum. A positional read.
Result<DictTagsHeader> ReadDictTagsHeader(std::FILE* file,
                                          const SectionDesc& desc);

/// Reads the `header.count` tags of kDictTags section `desc` (its
/// header read and checked by ReadDictTagsHeader) into `*tags` with one
/// positional read. Does not verify the checksum: the section is
/// checksummed once, with every other one, by VerifyChecksums. IOError
/// on a short read.
Status ReadDictTags(std::FILE* file, const SectionDesc& desc,
                    const DictTagsHeader& header,
                    std::vector<uint32_t>* tags);

}  // namespace gent::storage

#endif  // GENT_STORAGE_PAGED_FILE_H_
