// A borrowed, immutable view over a contiguous array — the currency of
// the storage-agnostic catalog accessors (DESIGN.md §5.10).
//
// The engine's read paths used to hand out `const std::vector<T>&`
// references into RAM-built arrays. A disk-resident catalog cannot do
// that: its arrays live in an mmap'd snapshot region, not in vectors.
// Span is the common denominator — 16 bytes, trivially copyable, usable
// with every <algorithm> the merge kernels rely on (lower_bound,
// includes, linear walks) — so one accessor signature serves both the
// in-RAM and the mapped backend, and backends are swappable without
// touching a single call site twice.
//
// Spans never own memory. A span into a RAM backend is valid for the
// catalog's lifetime; a span into a mapped backend is valid for the
// mapping's lifetime — the kernel may drop the clean pages under it,
// never the virtual mapping, so a later read simply re-reads them.

#ifndef GENT_STORAGE_SPAN_H_
#define GENT_STORAGE_SPAN_H_

#include <cstddef>
#include <vector>

namespace gent::storage {

template <typename T>
class Span {
 public:
  constexpr Span() = default;
  constexpr Span(const T* data, size_t size) : data_(data), size_(size) {}
  /// Implicit: lets every existing std::vector call site flow through a
  /// span-taking function unchanged.
  Span(const std::vector<T>& v) : data_(v.data()), size_(v.size()) {}

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace gent::storage

#endif  // GENT_STORAGE_SPAN_H_
