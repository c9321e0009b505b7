#include "signal/sample_ring.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace esl::signal {

SampleRing::SampleRing(std::size_t capacity)
    : data_(capacity), capacity_(capacity) {
  expects(capacity >= 1, "SampleRing: capacity must be positive");
}

void SampleRing::push(std::span<const Real> samples) {
  const std::size_t cap = capacity_;
  Real* data = data_.data();
  // A block longer than the ring reduces to its trailing `cap` samples.
  if (samples.size() > cap) {
    dropped_ += size_ + samples.size() - cap;
    head_ = 0;
    size_ = cap;
    std::copy(samples.end() - static_cast<std::ptrdiff_t>(cap), samples.end(),
              data);
    return;
  }
  std::size_t tail = (head_ + size_) % cap;
  for (const Real sample : samples) {
    data[tail] = sample;
    tail = tail + 1 == cap ? 0 : tail + 1;
    if (size_ == cap) {
      head_ = head_ + 1 == cap ? 0 : head_ + 1;  // overwrote the oldest
      ++dropped_;
    } else {
      ++size_;
    }
  }
}

void SampleRing::copy_range(std::size_t offset, std::size_t count,
                            std::span<Real> out) const {
  expects(offset <= size_ && count <= size_ - offset,
          "SampleRing::copy_range: not enough samples");
  expects(out.size() >= count, "SampleRing::copy_range: output too small");
  const std::size_t start = (head_ + offset) % capacity_;
  const std::size_t first = std::min(count, capacity_ - start);
  // Nothing was pushed while the storage is unmapped (data() is null),
  // so count is 0 there.
  const Real* data = data_.data();
  std::copy_n(data + start, first, out.begin());
  std::copy_n(data, count - first,
              out.begin() + static_cast<std::ptrdiff_t>(first));
}

}  // namespace esl::signal
