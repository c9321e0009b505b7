// Fixed-capacity sample ring buffer.
//
// The streaming engine keeps one of these per channel of a session. It
// holds the window being assembled and, when enabled, the retrospective
// history used for a-posteriori labeling (the "last hour of signal"):
// push appends and overwrites the oldest samples on overflow; reads copy
// into caller-provided storage so the hot path never allocates.
//
// The storage is a PageBuffer and is never zeroed (no read passes
// size()): a history-sized ring maps its own pages on the first push and
// unmaps them when it dies, so an hour-long history costs its pages only
// as the stream fills them, and none once its session closes.
#pragma once

#include <span>

#include "common/page_buffer.hpp"
#include "common/types.hpp"

namespace esl::signal {

/// Fixed-capacity FIFO ring over Real samples.
class SampleRing {
 public:
  /// Capacity in samples (>= 1).
  explicit SampleRing(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool full() const { return size_ == capacity_; }

  /// Appends samples; when the ring is full the oldest samples are
  /// overwritten (counted in dropped()).
  void push(std::span<const Real> samples);

  /// Copies `count` samples starting `offset` samples after the oldest
  /// one (in arrival order) into `out`. Requires offset + count <= size()
  /// and out.size() >= count.
  void copy_range(std::size_t offset, std::size_t count,
                  std::span<Real> out) const;

  /// Total samples overwritten by overflow since construction.
  std::size_t dropped() const { return dropped_; }

 private:
  PageBuffer data_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of the oldest sample
  std::size_t size_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace esl::signal
