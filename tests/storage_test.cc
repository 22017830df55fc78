// Tests for the paged storage layer (src/storage): checksums, the
// section writer / footer reader pair, the mmap-backed buffer pool, and
// the catalog pager roundtrip.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/storage/block.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/catalog_pager.h"
#include "src/storage/paged_file.h"

namespace gent::storage {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("gent_storage_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  ~StorageTest() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

// --- Checksum64 -------------------------------------------------------------

TEST(ChecksumTest, ChunkingDoesNotChangeTheDigest) {
  std::vector<uint8_t> data(1337);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint64_t oneshot = Checksum(data.data(), data.size());
  // Feed the same bytes in awkward chunk sizes (1, 3, 7, 64, rest).
  for (size_t chunk : {1u, 3u, 7u, 64u, 1000u}) {
    Checksum64 c;
    for (size_t off = 0; off < data.size(); off += chunk) {
      c.Append(data.data() + off, std::min(chunk, data.size() - off));
    }
    EXPECT_EQ(c.Finish(), oneshot) << "chunk size " << chunk;
  }
}

TEST(ChecksumTest, LengthAndContentBothMatter) {
  std::vector<uint8_t> a(256, 0xAB);
  EXPECT_NE(Checksum(a.data(), 256), Checksum(a.data(), 255));
  std::vector<uint8_t> b = a;
  b[200] ^= 1;
  EXPECT_NE(Checksum(a.data(), 256), Checksum(b.data(), 256));
  // Empty input has a well-defined digest, distinct from one zero byte.
  const uint8_t zero = 0;
  EXPECT_NE(Checksum(nullptr, 0), Checksum(&zero, 1));
}

TEST(ChecksumTest, AlignToBlock) {
  EXPECT_EQ(AlignToBlock(0), 0u);
  EXPECT_EQ(AlignToBlock(1), kBlockSize);
  EXPECT_EQ(AlignToBlock(kBlockSize), kBlockSize);
  EXPECT_EQ(AlignToBlock(kBlockSize + 1), 2 * kBlockSize);
}

// --- SectionWriter / ReadFooter --------------------------------------------

TEST_F(StorageTest, WriterFooterRoundTrip) {
  const std::string path = Path("paged.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // A fake 100-byte body, then two sections.
  std::vector<uint8_t> body(100, 0x5A);
  ASSERT_EQ(std::fwrite(body.data(), 1, body.size(), f), body.size());

  SectionWriter w(f, body.size());
  w.BeginSection(SectionId::kSpine);
  std::vector<uint32_t> spine(1000);
  std::iota(spine.begin(), spine.end(), 1);
  w.Append(spine.data(), spine.size() * sizeof(uint32_t));
  w.EndSection();
  w.BeginSection(SectionId::kPostCols);
  w.AppendU32(42);
  w.EndSection();
  w.AddBodyDesc(body.size(), Checksum(body.data(), body.size()));
  ASSERT_TRUE(w.Finish(/*version=*/2));
  std::fclose(f);

  f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  auto footer = ReadFooter(f);
  ASSERT_TRUE(footer.ok()) << footer.status().ToString();
  EXPECT_EQ(footer->version, 2u);
  EXPECT_EQ(footer->catalog_begin, AlignToBlock(body.size()));
  ASSERT_EQ(footer->sections.size(), 3u);

  const SectionDesc* spine_desc = footer->Find(SectionId::kSpine);
  ASSERT_NE(spine_desc, nullptr);
  EXPECT_EQ(spine_desc->offset, AlignToBlock(body.size()));
  EXPECT_EQ(spine_desc->bytes, spine.size() * sizeof(uint32_t));
  EXPECT_EQ(spine_desc->offset % kBlockSize, 0u);

  const SectionDesc* body_desc = footer->Find(SectionId::kBody);
  ASSERT_NE(body_desc, nullptr);
  EXPECT_EQ(body_desc->offset, 0u);
  EXPECT_EQ(body_desc->bytes, body.size());

  // Every recorded checksum verifies against the file.
  for (const SectionDesc& desc : footer->sections) {
    EXPECT_TRUE(VerifySectionChecksum(f, desc).ok())
        << "section id " << desc.id;
  }
  std::fclose(f);
}

TEST_F(StorageTest, CorruptedSectionFailsChecksum) {
  const std::string path = Path("corrupt.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  SectionWriter w(f, 0);
  w.BeginSection(SectionId::kSpine);
  std::vector<uint32_t> data(5000, 7);
  w.Append(data.data(), data.size() * sizeof(uint32_t));
  w.EndSection();
  w.AddBodyDesc(0, Checksum(nullptr, 0));
  ASSERT_TRUE(w.Finish(2));
  std::fclose(f);

  // Flip one byte in the middle of the section.
  std::fstream fix(path, std::ios::binary | std::ios::in | std::ios::out);
  fix.seekp(10000);
  char b;
  fix.seekg(10000);
  fix.get(b);
  b ^= 0x40;
  fix.seekp(10000);
  fix.put(b);
  fix.close();

  f = std::fopen(path.c_str(), "rb");
  auto footer = ReadFooter(f);
  ASSERT_TRUE(footer.ok()) << footer.status().ToString();  // footer intact
  const SectionDesc* desc = footer->Find(SectionId::kSpine);
  ASSERT_NE(desc, nullptr);
  Status s = VerifySectionChecksum(f, *desc);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.message().find("checksum"), std::string::npos);
  std::fclose(f);
}

TEST_F(StorageTest, FooterRejectsNonPagedFile) {
  const std::string path = Path("plain.bin");
  std::ofstream out(path, std::ios::binary);
  out << std::string(4096, 'x');
  out.close();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  auto footer = ReadFooter(f);
  EXPECT_EQ(footer.status().code(), StatusCode::kInvalidArgument);
  std::fclose(f);
}

TEST_F(StorageTest, TruncatedFooterRejected) {
  const std::string path = Path("trunc.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  SectionWriter w(f, 0);
  w.BeginSection(SectionId::kSpine);
  w.AppendU32(1);
  w.EndSection();
  w.AddBodyDesc(0, Checksum(nullptr, 0));
  ASSERT_TRUE(w.Finish(2));
  std::fclose(f);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 13);
  f = std::fopen(path.c_str(), "rb");
  auto footer = ReadFooter(f);
  EXPECT_FALSE(footer.ok());
  std::fclose(f);
}

// --- MappedFile + BufferPool ------------------------------------------------

// Writes `blocks` full blocks of deterministic bytes and returns the path.
std::string WriteBlocks(const std::string& path, size_t blocks) {
  std::ofstream out(path, std::ios::binary);
  std::vector<char> block(kBlockSize);
  for (size_t b = 0; b < blocks; ++b) {
    for (size_t i = 0; i < block.size(); ++i) {
      block[i] = static_cast<char>((b * 31 + i) & 0xFF);
    }
    out.write(block.data(), static_cast<std::streamsize>(block.size()));
  }
  return path;
}

TEST_F(StorageTest, BufferPoolCountsHitsAndFaults) {
  auto mapped = MappedFile::Open(WriteBlocks(Path("pool.bin"), 8));
  if (!mapped.ok()) GTEST_SKIP() << "mmap unavailable on this platform";
  BufferPool pool(mapped->data(), mapped->size());
  ASSERT_EQ(pool.num_blocks(), 8u);

  // Prefault block 0: one fault, one resident block.
  pool.Prefault(0, 1);
  BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.faults, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.resident_blocks, 1u);
  EXPECT_EQ(s.total_blocks, 8u);

  // First touches of two more blocks: two faults.
  pool.Touch(mapped->data() + 1 * kBlockSize, 10);
  pool.Touch(mapped->data() + 2 * kBlockSize, 10);
  s = pool.stats();
  EXPECT_EQ(s.faults, 3u);
  EXPECT_EQ(s.resident_blocks, 3u);

  // Re-touching a resident block is a hit, not a fault.
  pool.Touch(mapped->data() + 1 * kBlockSize, 10);
  s = pool.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.faults, 3u);

  // A Touch across the boundary of resident block 2 and new block 3
  // counts one hit and one fault.
  pool.Touch(mapped->data() + 3 * kBlockSize - 4, 8);
  s = pool.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.faults, 4u);
  EXPECT_EQ(s.resident_blocks, 4u);
  EXPECT_EQ(s.read_faults, 0u);
  EXPECT_TRUE(pool.health().ok());

  // The bytes under every touched block read back as written.
  for (size_t b = 0; b < 4; ++b) {
    const uint8_t* p = mapped->data() + b * kBlockSize;
    EXPECT_EQ(p[5], static_cast<uint8_t>((b * 31 + 5) & 0xFF));
  }
  EXPECT_EQ(pool.resident_bytes(), 4 * uint64_t{kBlockSize});
}

TEST_F(StorageTest, MappedFileRejectsMissingAndEmpty) {
  EXPECT_FALSE(MappedFile::Open(Path("missing.bin")).ok());
  std::ofstream(Path("empty.bin"), std::ios::binary).close();
  EXPECT_FALSE(MappedFile::Open(Path("empty.bin")).ok());
}

// --- Catalog pager roundtrip ------------------------------------------------

// Builds a tiny but structurally complete catalog: 3 columns, a spine of
// the distinct union, CSR postings mapping each spine value to the
// columns containing it.
struct TinyCatalog {
  std::vector<std::vector<uint32_t>> cols = {{1, 2, 3}, {2, 3, 4}, {5}};
  std::vector<uint32_t> spine = {1, 2, 3, 4, 5};
  std::vector<uint32_t> post_offsets = {0, 1, 3, 5, 6, 7};
  std::vector<uint32_t> post_cols = {0, 0, 1, 0, 1, 1, 2};

  CatalogSectionViews views() const {
    CatalogSectionViews v;
    for (const auto& c : cols) v.columns.emplace_back(c);
    v.spine = Span<uint32_t>(spine);
    v.post_offsets = Span<uint32_t>(post_offsets);
    v.post_cols = Span<uint32_t>(post_cols);
    return v;
  }
};

// Writes a fake body + the tiny catalog tail; returns body checksum.
uint64_t WriteTinySnapshot(const std::string& path, const TinyCatalog& cat,
                           uint32_t version = 2) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  std::vector<uint8_t> body(777, 0x11);
  EXPECT_EQ(std::fwrite(body.data(), 1, body.size(), f), body.size());
  const uint64_t body_sum = Checksum(body.data(), body.size());
  Status s =
      AppendCatalogSections(f, body.size(), body_sum, cat.views(), version);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::fclose(f);
  return body_sum;
}

TEST_F(StorageTest, MappedCatalogRoundTrip) {
  TinyCatalog cat;
  const std::string path = Path("tiny.snap");
  const uint64_t body_sum = WriteTinySnapshot(path, cat);

  // Streaming validation agrees end to end: the verifier over every
  // section, then the tail's structure.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  auto footer = ReadFooter(f);
  ASSERT_TRUE(footer.ok()) << footer.status().ToString();
  ASSERT_NE(footer->Find(SectionId::kBody), nullptr);
  EXPECT_EQ(footer->Find(SectionId::kBody)->checksum, body_sum);
  EXPECT_TRUE(VerifyChecksums(f, *footer, {}).ok());
  EXPECT_TRUE(ValidateCatalogTail(f, *footer, 2, 777).ok());
  // A wrong body checksum, body length or version must be caught.
  PagedFooter wrong_sum = *footer;
  for (SectionDesc& desc : wrong_sum.sections) {
    if (desc.id == static_cast<uint32_t>(SectionId::kBody)) desc.checksum ^= 1;
  }
  EXPECT_EQ(VerifyChecksums(f, wrong_sum, {}).code(), StatusCode::kIOError);
  EXPECT_FALSE(ValidateCatalogTail(f, *footer, 2, 778).ok());
  EXPECT_FALSE(ValidateCatalogTail(f, *footer, 3, 777).ok());
  std::fclose(f);

  auto mapped = MappedCatalog::Open(path, {});
  if (!mapped.ok() &&
      mapped.status().code() == StatusCode::kInternal) {
    GTEST_SKIP() << "mmap unavailable on this platform";
  }
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const CatalogSectionViews& v = (*mapped)->views();
  ASSERT_EQ(v.columns.size(), cat.cols.size());
  for (size_t c = 0; c < cat.cols.size(); ++c) {
    ASSERT_EQ(v.columns[c].size(), cat.cols[c].size());
    for (size_t i = 0; i < cat.cols[c].size(); ++i) {
      EXPECT_EQ(v.columns[c][i], cat.cols[c][i]);
    }
  }
  ASSERT_EQ(v.spine.size(), cat.spine.size());
  EXPECT_TRUE(std::equal(v.spine.begin(), v.spine.end(), cat.spine.begin()));
  ASSERT_EQ(v.post_offsets.size(), cat.post_offsets.size());
  EXPECT_TRUE(std::equal(v.post_offsets.begin(), v.post_offsets.end(),
                         cat.post_offsets.begin()));
  ASSERT_EQ(v.post_cols.size(), cat.post_cols.size());
  EXPECT_TRUE(std::equal(v.post_cols.begin(), v.post_cols.end(),
                         cat.post_cols.begin()));
  // The hot spine is resident after open.
  EXPECT_GT((*mapped)->pool().stats().resident_blocks, 0u);
}

TEST_F(StorageTest, MappedCatalogRejectsBrokenCsr) {
  TinyCatalog cat;
  cat.post_offsets.back() = 99;  // bracket must equal post_cols size
  const std::string path = Path("badcsr.snap");
  WriteTinySnapshot(path, cat);
  auto mapped = MappedCatalog::Open(path, {});
  if (!mapped.ok() &&
      mapped.status().code() == StatusCode::kInternal) {
    GTEST_SKIP() << "mmap unavailable on this platform";
  }
  EXPECT_FALSE(mapped.ok());
}

TEST_F(StorageTest, MappedCatalogRejectsVersion1Tail) {
  // A footer claiming version 1 must be refused: v1 has no catalog.
  TinyCatalog cat;
  const std::string path = Path("v1tail.snap");
  WriteTinySnapshot(path, cat, /*version=*/1);
  auto mapped = MappedCatalog::Open(path, {});
  if (!mapped.ok() &&
      mapped.status().code() == StatusCode::kInternal) {
    GTEST_SKIP() << "mmap unavailable on this platform";
  }
  EXPECT_FALSE(mapped.ok());
}

}  // namespace
}  // namespace gent::storage
