// Storage for a large buffer that is filled slowly and dropped whole: a
// patient session's history rings.
//
// From the heap, a multi-megabyte block is recycled by the allocator on
// pages an earlier owner already touched, and stays resident after it is
// freed: glibc raises its mmap threshold after the first such block is
// freed, so later blocks of that size come from the brk heap, and a
// session opened after another closed takes its whole history in
// resident memory at once. A PageBuffer of at least k_min_mapped_bytes
// instead maps its own anonymous pages the first time data() is asked
// for, and unmaps them when it dies. The kernel supplies each page
// zero-filled on its first write, so the buffer holds resident memory
// only as far as it has been written, and none once it is gone. Smaller
// buffers are one heap block, allocated up front: a mapping each would
// cost a system call and a kernel map entry per window ring.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace esl {

class PageBuffer {
 public:
  /// Buffers of at least this many bytes map their own pages (glibc's
  /// default mmap threshold).
  static constexpr std::size_t k_min_mapped_bytes = std::size_t{128} << 10;

  /// Storage for `size` Reals, left uninitialised (a mapping's pages read
  /// as zero). A mapped buffer maps nothing until data() is first called.
  explicit PageBuffer(std::size_t size = 0);
  ~PageBuffer();
  PageBuffer(PageBuffer&& other) noexcept;
  PageBuffer& operator=(PageBuffer&& other) noexcept;
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  std::size_t size() const { return size_; }
  /// True when the storage is its own mapping rather than a heap block.
  bool mapped() const { return size_ * sizeof(Real) >= k_min_mapped_bytes; }
  /// The storage, mapped on the first call. Throws std::bad_alloc when
  /// the mapping fails.
  Real* data() { return data_ != nullptr || !mapped() ? data_ : map(); }
  /// The storage, or nullptr while a mapped buffer is not mapped yet.
  const Real* data() const { return data_; }

 private:
  Real* map();
  void release() noexcept;

  Real* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace esl
