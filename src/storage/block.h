// Fixed-size block geometry and the streaming checksum shared by the
// paged snapshot format (DESIGN.md §5.10).
//
// The disk-resident catalog divides a snapshot's catalog region into
// fixed-size blocks: sections start on block boundaries, the buffer
// pool tracks residency at block granularity, and — because a block is
// a multiple of the page size and mappings are page-aligned — a block
// boundary in the file is always a page boundary in memory.
//
// The checksum is a word-at-a-time xor/rotate/multiply mix (splitmix64
// constants), chosen over byte-wise FNV because section verification is
// a sequential pass over potentially GB-scale regions and must run at
// memory/disk bandwidth, not at a byte per cycle. It is a corruption
// detector with a stable, chunking-independent definition — append
// boundaries never change the digest — not a cryptographic MAC.

#ifndef GENT_STORAGE_BLOCK_H_
#define GENT_STORAGE_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace gent::storage {

/// Pool granularity and section alignment. A multiple of every
/// practical page size (4 KiB, 16 KiB, 64 KiB) so block extents are
/// always page-exact.
inline constexpr size_t kBlockSize = 64 * 1024;

/// Rounds `n` up to the next block boundary.
inline constexpr uint64_t AlignToBlock(uint64_t n) {
  return (n + kBlockSize - 1) / kBlockSize * kBlockSize;
}

/// Streaming 64-bit checksum over a byte sequence. Chunk-independent:
/// any sequence of Append calls covering the same bytes yields the same
/// Finish() value. The total length is folded in, so a truncated prefix
/// whose bytes happen to match never verifies.
class Checksum64 {
 public:
  void Append(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    total_ += n;
    // Drain into a pending 8-byte word so mixing always happens on fixed
    // word boundaries regardless of how callers chunk their appends.
    while (n > 0) {
      if (pending_len_ == 0 && n >= 8) {
        // Fast path: whole words straight from the input.
        do {
          uint64_t w;
          std::memcpy(&w, p, 8);
          state_ = Mix(state_, w);
          p += 8;
          n -= 8;
        } while (n >= 8);
        continue;
      }
      const size_t take = n < 8 - pending_len_ ? n : 8 - pending_len_;
      std::memcpy(pending_ + pending_len_, p, take);
      pending_len_ += take;
      p += take;
      n -= take;
      if (pending_len_ == 8) {
        uint64_t w;
        std::memcpy(&w, pending_, 8);
        state_ = Mix(state_, w);
        pending_len_ = 0;
      }
    }
  }

  uint64_t Finish() const {
    uint64_t h = state_;
    if (pending_len_ > 0) {
      uint8_t tail[8] = {0};
      std::memcpy(tail, pending_, pending_len_);
      uint64_t w;
      std::memcpy(&w, tail, 8);
      h = Mix(h, w);
    }
    h = Mix(h, total_);
    // Final avalanche so single-bit input differences spread to every
    // output bit (splitmix64 finalizer).
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBull;
    h ^= h >> 31;
    return h;
  }

 private:
  static uint64_t Mix(uint64_t h, uint64_t w) {
    h ^= w * 0x9E3779B97F4A7C15ull;
    h = (h << 27) | (h >> 37);
    return h * 0xBF58476D1CE4E5B9ull;
  }

  uint64_t state_ = 0x8E9B97F4A7C15A5Bull;
  uint8_t pending_[8] = {0};
  size_t pending_len_ = 0;
  uint64_t total_ = 0;
};

/// One-shot convenience for in-memory buffers.
inline uint64_t Checksum(const void* data, size_t n) {
  Checksum64 c;
  c.Append(data, n);
  return c.Finish();
}

}  // namespace gent::storage

#endif  // GENT_STORAGE_BLOCK_H_
