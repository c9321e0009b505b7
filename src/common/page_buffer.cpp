#include "common/page_buffer.hpp"

#include <sys/mman.h>

#include <limits>
#include <new>
#include <utility>

#include "common/error.hpp"

namespace esl {

PageBuffer::PageBuffer(std::size_t size) : size_(size) {
  expects(size <= std::numeric_limits<std::size_t>::max() / sizeof(Real),
          "PageBuffer: size overflows the address space");
  if (size_ != 0 && !mapped()) {
    data_ = new Real[size_];
  }
}

PageBuffer::~PageBuffer() { release(); }

PageBuffer::PageBuffer(PageBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

PageBuffer& PageBuffer::operator=(PageBuffer&& other) noexcept {
  if (this != &other) {
    release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

Real* PageBuffer::map() {
  void* pages = mmap(nullptr, size_ * sizeof(Real), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) {
    throw std::bad_alloc();
  }
  data_ = static_cast<Real*>(pages);
  return data_;
}

void PageBuffer::release() noexcept {
  if (data_ == nullptr) {
    return;
  }
  if (mapped()) {
    munmap(data_, size_ * sizeof(Real));
  } else {
    delete[] data_;
  }
  data_ = nullptr;
}

}  // namespace esl
