#include "src/lake/snapshot.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string_view>
#include <unordered_set>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "src/storage/block.h"
#include "src/storage/delta_run.h"
#include "src/storage/io.h"
#include "src/storage/paged_file.h"

namespace gent {

namespace {

constexpr char kMagic[8] = {'G', 'E', 'N', 'T', 'S', 'N', 'A', 'P'};
// Version 1 (the body alone) is still read; only v2 is written.
constexpr uint32_t kVersionV2 = 2;
constexpr uint32_t kMaxVersion = kVersionV2;

// Typed encoders over any sink with Bytes(data, n): the file Writer, a
// delta run's in-memory table part (MemWriter) and its blob stream
// (BlobWriter). All multi-byte values little-endian; this code assumes
// a little-endian host (x86/ARM), as the rest of the library does.
template <typename Sink>
void PutU32(Sink& sink, uint32_t v) {
  sink.Bytes(&v, sizeof v);
}
template <typename Sink>
void PutU64(Sink& sink, uint64_t v) {
  sink.Bytes(&v, sizeof v);
}
template <typename Sink>
void PutString(Sink& sink, std::string_view s) {
  PutU32(sink, static_cast<uint32_t>(s.size()));
  sink.Bytes(s.data(), s.size());
}

// The body format's table list, shared by the body and a delta run: the
// count of tables [first_table, lake.size()), then per table its name,
// columns, key and column runs.
template <typename Sink>
void PutTables(Sink& sink, const DataLake& lake, size_t first_table) {
  PutU64(sink, lake.size() - first_table);
  for (size_t i = first_table; i < lake.size(); ++i) {
    const Table& t = lake.table(i);
    PutString(sink, t.name());
    PutU32(sink, static_cast<uint32_t>(t.num_cols()));
    for (const std::string& name : t.column_names()) PutString(sink, name);
    PutU32(sink, static_cast<uint32_t>(t.key_columns().size()));
    for (size_t k : t.key_columns()) PutU32(sink, static_cast<uint32_t>(k));
    PutU64(sink, t.num_rows());
    for (size_t c = 0; c < t.num_cols(); ++c) {
      const auto& col = t.column(c);
      sink.Bytes(col.data(), col.size() * sizeof(ValueId));
    }
  }
}

// Thin RAII write/read helpers over stdio. Both sides accumulate a
// running offset and Checksum64 of every byte written/read, which v2
// records in (and verifies against) the footer's body descriptor.
class Writer {
 public:
  explicit Writer(const std::string& path)
      : path_(path), file_(io::Fopen(path, "wb")) {}
  ~Writer() {
    if (file_ != nullptr) std::fclose(file_);
  }
  bool ok() const { return file_ != nullptr && !failed_; }

  /// Flushes buffered data and closes the file, folding fflush/fclose
  /// failures into ok(). stdio buffers writes, so a full disk often
  /// surfaces only here — a snapshot is not durable until Close()
  /// succeeds, and the savers must check it.
  bool Close() {
    if (file_ != nullptr) {
      failed_ |= io::Fflush(file_) != 0;
      failed_ |= io::Fclose(file_) != 0;
      file_ = nullptr;
    }
    return !failed_;
  }

  /// fsyncs the file's bytes to stable storage, then closes. The commit
  /// protocol requires content durability BEFORE the rename publishes
  /// the file (DESIGN.md §5.11), so the savers use this, not Close().
  bool SyncClose() {
    if (file_ == nullptr) return !failed_;
    failed_ |= !io::SyncFile(file_, path_).ok();
    failed_ |= io::Fclose(file_) != 0;
    file_ = nullptr;
    return !failed_;
  }

  void Bytes(const void* data, size_t n) {
    if (!ok()) return;
    failed_ |= io::Fwrite(data, n, file_) != n;
    if (!failed_) {
      offset_ += n;
      checksum_.Append(data, n);
    }
  }

  std::FILE* file() { return file_; }
  uint64_t offset() const { return offset_; }
  uint64_t checksum() const { return checksum_.Finish(); }
  void MarkFailed() { failed_ = true; }

 private:
  std::string path_;
  std::FILE* file_;
  bool failed_ = false;
  uint64_t offset_ = 0;
  storage::Checksum64 checksum_;
};

// Buffered reader over one private buffer of up to kBufferBytes: fields
// are decoded straight from it, the running checksum is appended once
// per consumed buffer range rather than once per field, and a read
// larger than the buffer goes straight into the caller's memory. Every
// refill positions the FILE itself, so callers may use file() for
// random access (footer, catalog tail) between reads.
class Reader {
 public:
  static constexpr size_t kBufferBytes = size_t{1} << 20;

  explicit Reader(const std::string& path)
      : file_(io::Fopen(path, "rb")) {
    // The file size bounds every length field read from it
    // (Remaining()), so a hostile count fails typed instead of sizing
    // an allocation.
    if (file_ == nullptr) return;
    // The private buffer replaces stdio's; set before any other I/O.
    std::setvbuf(file_, nullptr, _IONBF, 0);
    const bool sized = std::fseek(file_, 0, SEEK_END) == 0;
    const long size = sized ? std::ftell(file_) : -1;
    failed_ = size < 0;
    size_ = failed_ ? 0 : static_cast<uint64_t>(size);
    capacity_ = static_cast<size_t>(std::min<uint64_t>(kBufferBytes, size_));
  }
  ~Reader() {
    if (file_ != nullptr) std::fclose(file_);
  }
  bool open() const { return file_ != nullptr; }
  bool ok() const { return file_ != nullptr && !failed_; }

  /// True when every byte has been consumed. Trailing bytes after the
  /// last section mean the file is not a well-formed v1 snapshot (a
  /// concatenation accident or corruption) and must be rejected. (A v2
  /// body is followed by the catalog region instead; its tail is
  /// validated from the footer.)
  bool AtEof() const { return ok() && position_ >= size_; }

  void Bytes(void* data, size_t n) {
    if (n == 0) return;
    uint8_t* dst = static_cast<uint8_t*>(data);
    const size_t buffered = Buffered();
    if (n <= buffered) {
      std::memcpy(dst, Head(), n);
      Consume(n);
      return;
    }
    if (!ok()) return;
    if (buffered > 0) {  // (no buffer is allocated before the first Fill)
      std::memcpy(dst, Head(), buffered);
      Consume(buffered);
      dst += buffered;
      n -= buffered;
    }
    if (n < capacity_) {
      if (!Fill(n)) return;
      std::memcpy(dst, Head(), n);
      Consume(n);
      return;
    }
    // Larger than the buffer (a table column): read it in place.
    SumConsumed();
    begin_ = end_ = summed_ = 0;
    if (n > Remaining() || !ReadAt(position_, dst, n)) {
      Fail();
      return;
    }
    checksum_.Append(dst, n);
    position_ += n;
  }

  /// Bytes between the read position and the end of the file.
  uint64_t Remaining() const {
    return position_ < size_ ? size_ - position_ : 0;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Bytes(&v, sizeof v);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Bytes(&v, sizeof v);
    return v;
  }
  std::string String(uint32_t max_len = 1u << 24) {
    const uint32_t n = U32();
    if (n > max_len || n > Remaining()) {
      Fail();
      return {};
    }
    if (n > Buffered() && n < capacity_ && !Fill(n)) return {};
    if (n <= Buffered()) {
      std::string s(reinterpret_cast<const char*>(Head()), n);
      Consume(n);
      return s;
    }
    std::string s(n, '\0');
    Bytes(s.data(), n);
    return s;
  }

  /// Reads `count` length-prefixed strings as new entries of `arena`,
  /// each copied straight from the buffer: no std::string per entry.
  void StringsInto(DictionaryArena* arena, uint64_t count,
                   uint32_t max_len = 1u << 24) {
    for (uint64_t i = 0; i < count && ok(); ++i) {
      uint32_t n = 0;
      if (Buffered() >= sizeof n) std::memcpy(&n, Head(), sizeof n);
      if (n <= max_len && sizeof n + n <= Buffered()) {
        // The common case: length and bytes are both buffered.
        arena->Append({reinterpret_cast<const char*>(Head()) + sizeof n, n});
        Consume(sizeof n + n);
        continue;
      }
      n = U32();
      if (n > max_len || n > Remaining()) {
        Fail();
        return;
      }
      Bytes(arena->Append(n), n);
    }
  }

  std::FILE* file() { return file_; }
  /// Bytes consumed so far: the body length while reading the body.
  uint64_t offset() const { return position_; }
  uint64_t checksum() {
    SumConsumed();
    return checksum_.Finish();
  }

  /// Repositions the reader at an absolute file offset (delta-run
  /// parsing jumps to blob offsets from the directory). The running
  /// offset/checksum are body-relative and meaningless after a seek;
  /// callers use them only before the first SeekTo.
  bool SeekTo(uint64_t off) {
    if (!ok()) return false;
    SumConsumed();
    begin_ = end_ = summed_ = 0;
    position_ = off;
    return true;
  }

 private:
  size_t Buffered() const { return end_ - begin_; }
  const uint8_t* Head() const { return buffer_.get() + begin_; }
  void Consume(size_t n) {
    begin_ += n;
    position_ += n;
  }
  void Fail() {
    failed_ = true;
    begin_ = end_ = summed_ = 0;
  }
  // Appends the consumed, not yet summed buffer range to the checksum.
  void SumConsumed() {
    if (begin_ > summed_) {
      checksum_.Append(buffer_.get() + summed_, begin_ - summed_);
    }
    summed_ = begin_;
  }
  bool ReadAt(uint64_t off, void* dst, size_t n) {
    return std::fseek(file_, static_cast<long>(off), SEEK_SET) == 0 &&
           io::Fread(dst, n, file_) == n;
  }
  // Refills the buffer so at least `need` (< capacity_) bytes are
  // buffered; fails when the file ends first or a read fails.
  bool Fill(size_t need) {
    if (!ok()) return false;
    if (buffer_ == nullptr) buffer_.reset(new uint8_t[capacity_]);
    SumConsumed();
    const size_t kept = Buffered();
    std::memmove(buffer_.get(), Head(), kept);
    begin_ = summed_ = 0;
    end_ = kept;
    const uint64_t from = position_ + kept;
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(capacity_ - kept, from < size_ ? size_ - from : 0));
    if (kept + want < need || !ReadAt(from, buffer_.get() + kept, want)) {
      Fail();
      return false;
    }
    end_ += want;
    return true;
  }

  std::FILE* file_;
  bool failed_ = false;
  uint64_t size_ = 0;
  uint64_t position_ = 0;  // absolute offset of the next unread byte
  std::unique_ptr<uint8_t[]> buffer_;
  size_t capacity_ = 0;
  size_t begin_ = 0;   // next unread buffered byte
  size_t end_ = 0;     // end of the buffered bytes
  size_t summed_ = 0;  // buffered bytes before this are in checksum_
  storage::Checksum64 checksum_;
};

// In-memory little-endian accumulator: a delta blob's table part, whose
// length becomes the header's catalog_off field and so must be known
// before any blob byte reaches the file, and the body's dictionary
// chunks, encoded whole so each reaches the file in one write.
class MemWriter {
 public:
  void Bytes(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  std::vector<uint8_t>& buf() { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

// Checks that every cell of `lake`'s tables [first_table, lake.size())
// names one of the dictionary's first `entries` entries — the ones the
// file carries. A labeled null (transient integration state, its id
// above every entry's) is refused by name.
Status CheckCellIds(const DataLake& lake, size_t first_table,
                    uint64_t entries) {
  for (size_t i = first_table; i < lake.size(); ++i) {
    const Table& t = lake.table(i);
    for (size_t c = 0; c < t.num_cols(); ++c) {
      ValueId max_id = kNull;
      for (const ValueId v : t.column(c)) max_id = std::max(max_id, v);
      if (max_id < entries) continue;
      if (lake.dict()->IsLabeledNull(max_id)) {
        return Status::InvalidArgument(
            "snapshot cannot contain labeled nulls (transient integration "
            "state): table '" + t.name() + "' holds one");
      }
      return Status::InvalidArgument(
          "table '" + t.name() + "' holds value id " + std::to_string(max_id) +
          " outside the dictionary's " + std::to_string(entries) + " entries");
    }
  }
  return Status::OK();
}

// Writes the body (dictionary + tables), stamped version 2. Its layout
// is the v1 payload; v2 differs only in the catalog region that follows.
// Fills `tags` with the TagOf of every written dictionary entry after
// id 0 — computed from the bytes written, so entries a shared
// dictionary gains during the save are in neither.
Status WriteBody(Writer& w, const DataLake& lake, const std::string& path,
                 std::vector<uint32_t>* tags) {
  const ValueDictionary& dict = *lake.dict();
  if (!w.ok()) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  // Dictionary: every id in order, so loaded ids can be remapped by
  // index. Id 0 is the null sentinel and is written as the empty string.
  // Entries below the size read here never change, so they are read a
  // chunk at a time, each chunk under one lock acquisition, then encoded
  // into one reused buffer and written with one call (Checksum64 does
  // not depend on how its input is split, so the file is the same).
  const ValueId entries = static_cast<ValueId>(dict.size());
  GENT_RETURN_IF_ERROR(CheckCellIds(lake, 0, entries));
  w.Bytes(kMagic, sizeof kMagic);
  PutU32(w, kVersionV2);
  PutU64(w, entries);
  tags->reserve(entries > 0 ? entries - 1 : 0);
  constexpr ValueId kChunk = 4096;
  std::vector<std::string_view> chunk;
  MemWriter encoded;
  for (ValueId first = kNull; first < entries; first += kChunk) {
    chunk.clear();
    encoded.buf().clear();
    dict.StringsOf(first, std::min(entries, first + kChunk), &chunk);
    for (size_t i = 0; i < chunk.size(); ++i) {
      PutString(encoded, chunk[i]);
      if (first + i > 0) tags->push_back(ValueDictionary::TagOf(chunk[i]));
    }
    w.Bytes(encoded.buf().data(), encoded.buf().size());
  }
  PutTables(w, lake, 0);
  if (!w.ok()) return Status::IOError("short write to '" + path + "'");
  return Status::OK();
}

/// Commit-staging name: pid-qualified so concurrent savers in different
/// processes never clobber each other's temp, and so SweepSnapshotTemps
/// can recognize strands by shape (`*.tmp.<digits>`).
std::string TempSnapshotPath(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return path + ".tmp." + std::to_string(pid);
}

/// Durably publishes the fully written temp at `tmp` as `path`:
/// fsync(tmp) → close → rename(tmp, path) → fsync(parent directory).
/// On any failure the temp is unlinked and `path` is never touched, so
/// a reader of `path` sees the old file intact or the new one complete.
Status CommitSnapshot(Writer& w, const std::string& tmp,
                      const std::string& path) {
  // Content must be durable BEFORE the rename publishes it: rename is
  // atomic in the namespace but not ordered against data writeback, so
  // an unsynced commit could surface as a published-yet-hollow file
  // after power loss.
  if (!w.SyncClose()) {
    io::Remove(tmp);
    return Status::IOError("flush/fsync/close failed for '" + tmp + "'");
  }
  if (io::Rename(tmp, path) != 0) {
    io::Remove(tmp);
    return Status::IOError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  // The new directory entry must itself reach disk; until then a crash
  // rolls back to the OLD snapshot — still atomic, just not yet durable.
  return io::SyncParentDir(path);
}

}  // namespace

Status SaveSnapshotV2(const DataLake& lake,
                      const storage::CatalogSectionViews& catalog,
                      const std::string& path) {
  const std::string tmp = TempSnapshotPath(path);
  Writer w(tmp);
  std::vector<uint32_t> tags;
  Status st = WriteBody(w, lake, tmp, &tags);
  if (st.ok()) {
    // The catalog region appends strictly after the body; the body's
    // length and running checksum become its footer descriptor.
    const storage::DictTagsView dict_tags{ValueDictionary::kTagVersion, tags};
    st = storage::AppendCatalogSections(w.file(), w.offset(), w.checksum(),
                                        catalog, kVersionV2, &dict_tags);
  }
  if (!st.ok()) {
    w.MarkFailed();
    w.Close();
    io::Remove(tmp);
    return st;
  }
  return CommitSnapshot(w, tmp, path);
}

namespace {

// Streams blob bytes at the file's current position, accumulating the
// blob length and checksum for its directory entry.
class BlobWriter {
 public:
  explicit BlobWriter(std::FILE* file) : file_(file) {}
  void Bytes(const void* data, size_t n) {
    if (failed_) return;
    failed_ = io::Fwrite(data, n, file_) != n;
    if (!failed_) {
      bytes_ += n;
      sum_.Append(data, n);
    }
  }
  bool ok() const { return !failed_; }
  uint64_t bytes() const { return bytes_; }
  uint64_t checksum() const { return sum_.Finish(); }

 private:
  std::FILE* file_;
  bool failed_ = false;
  uint64_t bytes_ = 0;
  storage::Checksum64 sum_;
};

}  // namespace

Status AppendSnapshotDelta(const DataLake& lake, size_t first_table,
                           const storage::DeltaRunCatalogViews& catalog,
                           const std::string& path, size_t* runs_total) {
  const ValueDictionary& dict = *lake.dict();
  if (first_table >= lake.size()) {
    return Status::InvalidArgument("delta run must carry at least one table");
  }
  size_t appended_cols = 0;
  for (size_t i = first_table; i < lake.size(); ++i) {
    appended_cols += lake.table(i).num_cols();
  }
  if (catalog.post_offsets.size() != catalog.spine.size() + 1 ||
      catalog.columns.size() != appended_cols) {
    return Status::InvalidArgument(
        "delta run catalog does not match the appended tables");
  }

  std::FILE* f = io::Fopen(path, "r+b");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path + "' for appending");
  }
  auto footer = storage::ReadFooterRecover(f);
  if (!footer.ok()) {
    io::Fclose(f);
    if (footer.status().code() == StatusCode::kInvalidArgument) {
      return Status::InvalidArgument(
          "'" + path + "' is not a v2 snapshot (cannot append a delta run)");
    }
    return footer.status();
  }
  auto runs = storage::ReadDeltaDir(f, *footer);
  if (!runs.ok()) {
    io::Fclose(f);
    return runs.status();
  }

  // Dictionary ids the file already covers: the base body's count, plus
  // the last run's base + count (runs chain, so the last one ends the
  // coverage). The new run carries everything from there up to `dict`'s
  // current size — possibly including entries its own tables never use
  // (a shared service dictionary grows under concurrent traffic), which
  // is harmless: loading re-interns them in the same order.
  auto read_u64_at = [f](uint64_t off, uint64_t* out) {
    return std::fseek(f, static_cast<long>(off), SEEK_SET) == 0 &&
           io::Fread(out, sizeof *out, f) == sizeof *out;
  };
  uint64_t dict_base = 0;
  bool cover_ok;
  if (runs->empty()) {
    cover_ok = read_u64_at(12, &dict_base);  // body: magic(8) u32 version
  } else {
    uint64_t last_base = 0, last_count = 0;
    cover_ok = read_u64_at(runs->back().offset + 24, &last_base) &&
               read_u64_at(runs->back().offset + 32, &last_count);
    dict_base = last_base + last_count;
  }
  if (!cover_ok) {
    io::Fclose(f);
    return Status::IOError("cannot read dictionary coverage of '" + path +
                           "'");
  }
  const uint64_t dict_size = dict.size();
  if (dict_base > dict_size) {
    io::Fclose(f);
    return Status::InvalidArgument(
        "'" + path + "' covers " + std::to_string(dict_base) +
        " dictionary entries but the lake's dictionary has only " +
        std::to_string(dict_size));
  }
  if (Status st = CheckCellIds(lake, first_table, dict_size); !st.ok()) {
    io::Fclose(f);
    return st;
  }

  // Table part, serialized in memory first (see MemWriter).
  MemWriter mem;
  mem.Bytes(storage::kDeltaRunMagic, sizeof storage::kDeltaRunMagic);
  PutU32(mem, storage::kDeltaRunVersion);
  PutU32(mem, 0);  // pad
  const size_t catalog_off_at = mem.buf().size();
  PutU64(mem, 0);  // catalog_off, backpatched once the table part is sized
  PutU64(mem, dict_base);
  PutU64(mem, dict_size - dict_base);
  // The entries the file lacks, read under one lock acquisition.
  std::vector<std::string_view> strings;
  dict.StringsOf(static_cast<ValueId>(dict_base),
                 static_cast<ValueId>(dict_size), &strings);
  for (const std::string_view value : strings) PutString(mem, value);
  PutTables(mem, lake, first_table);
  while (mem.buf().size() % 8 != 0) mem.buf().push_back(0);
  const uint64_t catalog_off = mem.buf().size();
  std::memcpy(mem.buf().data() + catalog_off_at, &catalog_off, 8);

  // The run blob lands block-aligned after the last durable footer.
  // Bytes at or past that offset are at most torn debris from a crashed
  // earlier append; nothing below it is ever written — that is the
  // whole crash-safety argument.
  const uint64_t run_offset =
      storage::AlignToBlock(footer->footer_offset + storage::kFooterBytes);
  if (std::fseek(f, static_cast<long>(run_offset), SEEK_SET) != 0) {
    io::Fclose(f);
    return Status::IOError("cannot seek to append position in '" + path +
                           "'");
  }
  BlobWriter blob(f);
  blob.Bytes(mem.buf().data(), mem.buf().size());
  PutU64(blob, catalog.first_col);
  PutU64(blob, static_cast<uint64_t>(catalog.columns.size()));
  uint64_t values_count = 0;
  for (const storage::Span<uint32_t>& col : catalog.columns) {
    PutU64(blob, values_count);
    PutU64(blob, static_cast<uint64_t>(col.size()));
    values_count += col.size();
  }
  PutU64(blob, values_count);
  for (const storage::Span<uint32_t>& col : catalog.columns) {
    blob.Bytes(col.data(), col.size() * sizeof(uint32_t));
  }
  PutU64(blob, static_cast<uint64_t>(catalog.spine.size()));
  blob.Bytes(catalog.spine.data(), catalog.spine.size() * sizeof(uint32_t));
  blob.Bytes(catalog.post_offsets.data(),
             catalog.post_offsets.size() * sizeof(uint32_t));
  PutU64(blob, static_cast<uint64_t>(catalog.post_cols.size()));
  blob.Bytes(catalog.post_cols.data(),
             catalog.post_cols.size() * sizeof(uint32_t));
  if (!blob.ok()) {
    io::Fclose(f);
    return Status::IOError("short write appending delta run to '" + path +
                           "'");
  }

  storage::DeltaRunDesc new_run;
  new_run.generation = runs->size() + 1;
  new_run.offset = run_offset;
  new_run.bytes = blob.bytes();
  new_run.checksum = blob.checksum();
  runs->push_back(new_run);

  // Rewrite the directory section and footer after the blob. The old
  // footer's descriptors carry forward unchanged — base sections and
  // prior runs are never rewritten.
  storage::SectionWriter w(f, run_offset + new_run.bytes);
  for (const storage::SectionDesc& s : footer->sections) {
    if (s.id != static_cast<uint32_t>(storage::SectionId::kDeltaDir)) {
      w.SeedSection(s);
    }
  }
  w.BeginSection(storage::SectionId::kDeltaDir);
  const std::vector<uint8_t> dir = storage::SerializeDeltaDir(*runs);
  w.Append(dir.data(), dir.size());
  w.EndSection();
  // Barrier: run + directory must be durable BEFORE the footer that
  // references them; the footer is the commit point.
  if (!w.ok() || io::Fflush(f) != 0 || !io::SyncFile(f, path).ok()) {
    io::Fclose(f);
    return Status::IOError("flush/fsync failed appending delta run to '" +
                           path + "'");
  }
  if (!w.Finish(storage::kFooterVersionDelta) || io::Fflush(f) != 0 ||
      !io::SyncFile(f, path).ok()) {
    io::Fclose(f);
    return Status::IOError("commit failed appending delta run to '" + path +
                           "'");
  }
  if (io::Fclose(f) != 0) {
    return Status::IOError("close failed after appending to '" + path + "'");
  }
  if (runs_total != nullptr) *runs_total = runs->size();
  return Status::OK();
}

namespace {

/// Parses one body-format table from `r` and stages it in the file's
/// own (saved) ids: each column is read in place and range-checked
/// once against `id_limit`, the number of dictionary entries the file
/// has declared so far. Shared by the base-table loop and the delta-run
/// loader (runs serialize tables identically).
Status ParseSnapshotTable(Reader& r, DataLake& lake, uint64_t id_limit,
                          std::vector<Table>* staged) {
  const std::string name = r.String();
  const uint32_t cols = r.U32();
  if (!r.ok() || cols > (1u << 20)) {
    return Status::IOError("truncated or corrupt snapshot table header");
  }
  Table t(name, lake.dict());
  for (uint32_t c = 0; c < cols; ++c) {
    GENT_RETURN_IF_ERROR(t.AddColumn(r.String()));
  }
  const uint32_t key_count = r.U32();
  if (!r.ok() || key_count > cols) {
    return Status::IOError("corrupt snapshot table: more keys than columns");
  }
  std::vector<size_t> keys;
  for (uint32_t k = 0; k < key_count; ++k) keys.push_back(r.U32());
  const uint64_t rows = r.U64();
  if (!r.ok()) return Status::IOError("truncated snapshot table");
  // Every cell is a 4-byte id still ahead in the file.
  if (cols > 0 && rows > r.Remaining() / (uint64_t{cols} * sizeof(ValueId))) {
    return Status::IOError("corrupt snapshot table: row count exceeds file");
  }
  for (uint32_t c = 0; c < cols; ++c) {
    auto& dst = t.mutable_column(c);
    dst.resize(rows);
    r.Bytes(dst.data(), rows * sizeof(ValueId));
    if (!r.ok()) return Status::IOError("truncated snapshot column data");
    ValueId max_id = 0;
    for (const ValueId v : dst) max_id = std::max(max_id, v);
    if (rows > 0 && max_id >= id_limit) {
      return Status::IOError("corrupt snapshot: value id out of range");
    }
  }
  if (!keys.empty()) {
    GENT_RETURN_IF_ERROR(t.SetKeyColumns(keys));
  }
  staged->push_back(std::move(t));
  return Status::OK();
}

/// Reads `count` dictionary entries, which lie within the next `extent`
/// bytes of `r`, as new entries of `arena`. Nothing is interned: the
/// loader commits the entries to the dictionary only once the whole
/// file has verified. The one reader for the base dictionary and every
/// delta run's.
Status ReadDictionarySection(Reader& r, uint64_t count, uint64_t extent,
                             const ValueDictionary& dict,
                             DictionaryArena* arena) {
  // Every entry is at least its 4-byte length.
  if (count > std::min(extent, r.Remaining()) / sizeof(uint32_t)) {
    return Status::IOError("corrupt snapshot: dictionary size exceeds file");
  }
  // Entry ids must stay below the labeled-null range.
  if (count > kFirstLabeledNull - dict.size()) {
    return Status::IOError("corrupt snapshot: dictionary too large");
  }
  // The entries' bytes fit in the extent less their lengths; the
  // reservation is address space until written, and is trimmed after.
  arena->Reserve(count, std::min(extent, r.Remaining()) - 4 * count);
  r.StringsInto(arena, count);
  if (!r.ok()) return Status::IOError("truncated snapshot dictionary");
  arena->ShrinkToFit();
  return Status::OK();
}

/// Reads the dictionary entries and stages the tables of one delta run,
/// its entries appended to `entries`, the entries of every earlier run.
/// `saved_ids` is the number of saved ids before the run (the base
/// dictionary's plus the earlier runs'); the run must continue from it.
/// `r` is repositioned at the blob; the blob's bytes were already
/// checksum-verified by ValidateCatalogTail.
Status LoadDeltaRun(Reader& r, const storage::DeltaRunDesc& run,
                    DataLake& lake, uint64_t saved_ids,
                    DictionaryArena* entries, std::vector<Table>* staged) {
  if (!r.SeekTo(run.offset)) {
    return Status::IOError("cannot seek to snapshot delta run");
  }
  char magic[8];
  r.Bytes(magic, sizeof magic);
  const uint32_t run_version = r.U32();
  r.U32();  // pad
  const uint64_t catalog_off = r.U64();
  const uint64_t dict_base = r.U64();
  const uint64_t dict_count = r.U64();
  if (!r.ok() ||
      std::memcmp(magic, storage::kDeltaRunMagic, sizeof magic) != 0 ||
      run_version != storage::kDeltaRunVersion || catalog_off > run.bytes) {
    return Status::IOError("corrupt snapshot delta run header");
  }
  // Runs extend the snapshot's id space strictly in append order.
  if (dict_base != saved_ids || dict_count > run.bytes) {
    return Status::IOError(
        "corrupt snapshot delta run: dictionary does not chain");
  }
  GENT_RETURN_IF_ERROR(
      ReadDictionarySection(r, dict_count, run.bytes, *lake.dict(), entries));
  const uint64_t table_count = r.U64();
  if (!r.ok() || table_count > run.bytes) {
    return Status::IOError("truncated snapshot delta run");
  }
  for (uint64_t i = 0; i < table_count; ++i) {
    GENT_RETURN_IF_ERROR(
        ParseSnapshotTable(r, lake, dict_base + dict_count, staged));
  }
  return Status::OK();
}

/// Reads the header of kDictTags section `desc` and checks it against
/// the body's dictionary of `dict_size` entries: one tag per entry
/// after id 0. IOError otherwise.
Result<storage::DictTagsHeader> ReadDictTagsHeaderFor(
    std::FILE* file, const storage::SectionDesc& desc, uint64_t dict_size) {
  auto header = storage::ReadDictTagsHeader(file, desc);
  if (header.ok() && header->count != (dict_size > 0 ? dict_size - 1 : 0)) {
    return Status::IOError(
        "corrupt snapshot: dictionary tags disagree with the dictionary size");
  }
  return header;
}

/// Reads the footer of a v2 file ahead of its body and, from its
/// kDictTags section, the tags that let `dict` adopt the base
/// dictionary: `*adoptable` is set when the section carries this
/// build's kTagVersion and `dict` holds only id 0. The section must
/// agree with the body's `dict_size` either way. A file with no footer
/// at all, or no section, is not an error here (the tail validation
/// reports the former).
Status ReadAdoptableTags(std::FILE* file, uint64_t dict_size,
                         const ValueDictionary& dict,
                         std::vector<uint32_t>* tags, bool* adoptable) {
  auto footer = storage::ReadFooterRecover(file);
  if (!footer.ok()) {
    return footer.status().code() == StatusCode::kInvalidArgument
               ? Status::OK()
               : footer.status();
  }
  const storage::SectionDesc* desc =
      footer->Find(storage::SectionId::kDictTags);
  if (desc == nullptr) return Status::OK();
  auto header = ReadDictTagsHeaderFor(file, *desc, dict_size);
  if (!header.ok()) return header.status();
  // Tags of another TagOf definition are ignored: the dictionary
  // re-interns.
  if (header->tag_version != ValueDictionary::kTagVersion ||
      dict.size() != 1) {
    return Status::OK();
  }
  GENT_RETURN_IF_ERROR(storage::ReadDictTags(file, *desc, tags));
  *adoptable = true;
  return Status::OK();
}

/// Commits a verified file's dictionary to `dict`: the base entries
/// `base`, saved ids [0, base_ids) (adopted with `tags` when given and
/// the dictionary holds only id 0, else interned), then the delta runs'
/// entries `runs`, the saved ids after them. Fills `remap` with saved
/// id -> id in the dictionary, or leaves it empty when every saved id
/// keeps its id.
void CommitDictionary(ValueDictionary& dict, uint64_t base_ids,
                      DictionaryArena&& base,
                      const std::vector<uint32_t>* tags,
                      const DictionaryArena& runs,
                      std::vector<ValueId>* remap, bool* adopted) {
  *adopted = tags != nullptr && dict.AdoptAll(std::move(base), *tags);
  if (!*adopted && base_ids > 0) {
    // Entry 0 is the null sentinel: it maps to kNull whatever it spells.
    remap->push_back(kNull);
    dict.InternAll(base.Views(1), remap);
  }
  if (runs.size() > 1) {
    if (*adopted) {
      remap->resize(base_ids);
      std::iota(remap->begin(), remap->end(), ValueId{0});
    }
    dict.InternAll(runs.Views(1), remap);
  }
  for (size_t saved = 0; saved < remap->size(); ++saved) {
    if ((*remap)[saved] != saved) return;
  }
  remap->clear();
}

/// Shared load path. `validate_tail` = false is the salvage mode
/// (LoadSnapshotBody): the catalog tail of a v2 file — and the
/// trailing-bytes check of a v1 file — is skipped, so a snapshot with a
/// damaged catalog region still loads if its body parses. Salvage also
/// skips delta runs (they live in the damaged tail), so it recovers the
/// base generation only.
///
/// The dictionary entries are read into arenas and the tables staged in
/// the file's own ids; only after every check has passed is the
/// dictionary committed (CommitDictionary) and, unless the ids came out
/// the same, the staged cells remapped once. A load that fails leaves
/// both the lake and its dictionary untouched.
Status LoadSnapshotImpl(DataLake& lake, const std::string& path,
                        SnapshotLoadInfo* info, bool validate_tail) {
  Reader r(path);
  if (!r.open()) return Status::IOError("cannot open '" + path + "'");
  char magic[8];
  const bool magic_fits = r.Remaining() >= sizeof magic;
  r.Bytes(magic, sizeof magic);
  if (!magic_fits ||
      (r.ok() && std::memcmp(magic, kMagic, sizeof kMagic) != 0)) {
    return Status::InvalidArgument("'" + path + "' is not a gent snapshot");
  }
  if (!r.ok()) return Status::IOError("cannot read '" + path + "'");
  const uint32_t version = r.U32();
  if (version > kMaxVersion) {
    return Status::InvalidArgument(
        "snapshot version " + std::to_string(version) +
        " is newer than supported version " + std::to_string(kMaxVersion));
  }

  const uint64_t dict_size = r.U64();
  if (!r.ok()) return Status::IOError("truncated snapshot header");
  // The salvage mode never looks at the tail, so never adopts.
  std::vector<uint32_t> tags;
  bool adopt = false;
  if (validate_tail && version >= kVersionV2) {
    GENT_RETURN_IF_ERROR(
        ReadAdoptableTags(r.file(), dict_size, *lake.dict(), &tags, &adopt));
  }
  DictionaryArena base;  // the base dictionary, saved ids [0, dict_size)
  if (dict_size > 0) {
    r.String();  // entry 0, the null sentinel: the arena has its own
    if (!r.ok()) return Status::IOError("truncated snapshot dictionary");
    GENT_RETURN_IF_ERROR(ReadDictionarySection(
        r, dict_size - 1, r.Remaining(), *lake.dict(), &base));
  }

  const uint64_t table_count = r.U64();
  if (!r.ok()) return Status::IOError("truncated snapshot: no table count");
  // Tables are staged and only registered once the whole file — through
  // its final byte — has validated AND every name is known to be free,
  // so neither a corrupt tail nor a collision can leave the lake
  // half-loaded.
  std::vector<Table> staged;
  staged.reserve(table_count < (1u << 20) ? table_count : 0);
  for (uint64_t i = 0; i < table_count; ++i) {
    GENT_RETURN_IF_ERROR(ParseSnapshotTable(r, lake, dict_size, &staged));
  }

  DictionaryArena run_entries;  // every delta run's, in saved id order
  size_t delta_runs = 0;
  if (validate_tail) {
    if (version >= kVersionV2) {
      // The body ends here; the catalog region and footer follow. Verify
      // the whole tail — footer geometry, the body bytes just streamed,
      // every section checksum, and structural consistency — before
      // anything touches the lake.
      storage::PagedFooter footer;
      std::vector<storage::DeltaRunDesc> runs;
      GENT_RETURN_IF_ERROR(storage::ValidateCatalogTail(
          r.file(), version, r.offset(), r.checksum(), &footer, &runs));
      // Delta runs stage after the base tables, in generation order, so
      // the loaded lake is indistinguishable from one whose snapshot
      // was saved with those tables in the base.
      for (const storage::DeltaRunDesc& run : runs) {
        GENT_RETURN_IF_ERROR(LoadDeltaRun(
            r, run, lake, dict_size + run_entries.size() - 1, &run_entries,
            &staged));
      }
      delta_runs = runs.size();
    } else if (!r.AtEof()) {
      return Status::IOError(
          "'" + path + "' has trailing bytes after the last snapshot section");
    }
  }

  // All-or-nothing: every staged name must be free in the lake and
  // unique within the snapshot before the first registration.
  std::unordered_set<std::string> seen;
  for (const Table& t : staged) {
    if (lake.IndexOf(t.name()).ok() || !seen.insert(t.name()).second) {
      return Status::AlreadyExists("snapshot table '" + t.name() +
                                   "' already exists in the lake");
    }
  }

  // The file has verified: commit its dictionary, then bring the staged
  // cells into the dictionary's ids.
  std::vector<ValueId> remap;
  bool adopted = false;
  CommitDictionary(*lake.dict(), dict_size, std::move(base),
                   adopt ? &tags : nullptr, run_entries, &remap, &adopted);
  for (Table& t : staged) {
    for (size_t c = 0; !remap.empty() && c < t.num_cols(); ++c) {
      for (ValueId& v : t.mutable_column(c)) v = remap[v];
    }
    GENT_RETURN_IF_ERROR(lake.AddTable(std::move(t)));
  }
  if (info != nullptr) {
    info->version = version;
    info->identity_remap = remap.empty();
    info->dictionary_adopted = adopted;
    info->delta_runs = delta_runs;
  }
  return Status::OK();
}

}  // namespace

Status LoadSnapshot(DataLake& lake, const std::string& path,
                    SnapshotLoadInfo* info) {
  return LoadSnapshotImpl(lake, path, info, /*validate_tail=*/true);
}

Status LoadSnapshotBody(DataLake& lake, const std::string& path,
                        SnapshotLoadInfo* info) {
  return LoadSnapshotImpl(lake, path, info, /*validate_tail=*/false);
}

Status VerifySnapshotIntegrity(const std::string& path, size_t* delta_runs) {
  if (delta_runs != nullptr) *delta_runs = 0;
  std::FILE* f = io::Fopen(path, "rb");
  if (f == nullptr) return Status::IOError("cannot open '" + path + "'");
  auto footer = storage::ReadFooterRecover(f);
  if (footer.ok()) {
    // v2: the footer's descriptors cover every byte the snapshot
    // serves — the body via its offset-0 pseudo-descriptor, the catalog
    // via the real sections, delta runs via the directory — so
    // checksumming all of them is full verification. (Debris past a
    // recovered footer is torn-append garbage no reader dereferences.)
    for (const storage::SectionDesc& desc : footer->sections) {
      Status st = storage::VerifySectionChecksum(f, desc);
      if (!st.ok()) {
        io::Fclose(f);
        return Status::IOError("'" + path + "': " + st.message());
      }
    }
    auto runs = storage::ReadDeltaDir(f, *footer);
    if (!runs.ok()) {
      io::Fclose(f);
      return Status::IOError("'" + path + "': " + runs.status().message());
    }
    for (const storage::DeltaRunDesc& run : *runs) {
      Status st = storage::VerifyDeltaRunChecksum(f, run);
      if (!st.ok()) {
        io::Fclose(f);
        return Status::IOError("'" + path + "': " + st.message());
      }
    }
    // The one check a checksum cannot make: the dictionary tags must
    // cover the body's dictionary (the u64 after magic and version).
    if (const storage::SectionDesc* tags =
            footer->Find(storage::SectionId::kDictTags)) {
      uint64_t dict_size = 0;
      Status st = Status::IOError("cannot read the dictionary size");
      if (std::fseek(f, 12, SEEK_SET) == 0 &&
          io::Fread(&dict_size, sizeof dict_size, f) == sizeof dict_size) {
        st = ReadDictTagsHeaderFor(f, *tags, dict_size).status();
      }
      if (!st.ok()) {
        io::Fclose(f);
        return Status::IOError("'" + path + "': " + st.message());
      }
    }
    io::Fclose(f);
    if (delta_runs != nullptr) *delta_runs = runs->size();
    return Status::OK();
  }
  io::Fclose(f);
  if (footer.status().code() == StatusCode::kIOError) {
    // A footer that is present but damaged: corruption, not "v1".
    return footer.status();
  }
  // No v2 footer at all — a v1 snapshot has no checksums, so the only
  // complete check is a full structural parse into a scratch lake.
  DataLake scratch;
  return LoadSnapshot(scratch, path);
}

Result<size_t> SnapshotTableCount(const std::string& path) {
  Reader r(path);
  if (!r.open()) return Status::IOError("cannot open '" + path + "'");
  // Skips a dictionary of `count` entries and reads the table count
  // after it (the body and a delta run share this shape).
  auto tables_after_dictionary = [&r](uint64_t count) -> uint64_t {
    for (uint64_t i = 0; i < count && r.ok(); ++i) r.String();
    return r.U64();
  };
  char magic[8];
  r.Bytes(magic, sizeof magic);
  r.U32();  // version
  uint64_t tables = tables_after_dictionary(r.U64());
  if (!r.ok() || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return Status::IOError("'" + path + "': unreadable snapshot body header");
  }
  auto footer = storage::ReadFooterRecover(r.file());
  if (!footer.ok()) {
    // No footer at all is a v1 file: the body is everything.
    if (footer.status().code() == StatusCode::kInvalidArgument) return tables;
    return footer.status();
  }
  auto runs = storage::ReadDeltaDir(r.file(), *footer);
  if (!runs.ok()) return runs.status();
  for (const storage::DeltaRunDesc& run : *runs) {
    // The run's dictionary count follows its magic, version, pad,
    // catalog offset and dictionary base (delta_run.h).
    constexpr uint64_t kDictCountOffset = 32;
    r.SeekTo(run.offset + kDictCountOffset);
    tables += tables_after_dictionary(r.U64());
    if (!r.ok()) {
      return Status::IOError("'" + path + "': unreadable delta run header");
    }
  }
  return static_cast<size_t>(tables);
}

size_t SweepSnapshotTemps(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return 0;
  size_t removed = 0;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const std::string name = entry.path().filename().string();
    const size_t pos = name.rfind(".tmp.");
    if (pos == std::string::npos) continue;
    const std::string suffix = name.substr(pos + 5);
    if (suffix.empty() ||
        suffix.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    if (io::Remove(entry.path().string()) == 0) ++removed;
  }
  return removed;
}

}  // namespace gent
