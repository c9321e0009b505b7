#include "signal/sample_ring.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/error.hpp"

namespace esl::signal {
namespace {

RealVector iota(std::size_t n, Real start = 0.0) {
  RealVector v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

TEST(SampleRing, RejectsZeroCapacity) {
  EXPECT_THROW(SampleRing(0), InvalidArgument);
}

TEST(SampleRing, PushAndCopyFrontPreservesOrder) {
  SampleRing ring(8);
  const RealVector v = iota(5);
  ring.push(v);
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_FALSE(ring.full());

  RealVector out(5);
  ring.copy_range(0, 5, out);
  EXPECT_EQ(out, v);
}

TEST(SampleRing, OverflowDropsOldest) {
  SampleRing ring(4);
  ring.push(iota(3));          // 0 1 2
  ring.push(iota(3, 3.0));     // 3 4 5 -> drops 0 1
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.dropped(), 2u);

  RealVector out(4);
  ring.copy_range(0, 4, out);
  EXPECT_EQ(out, (RealVector{2.0, 3.0, 4.0, 5.0}));
}

TEST(SampleRing, BlockLargerThanCapacityKeepsTail) {
  SampleRing ring(4);
  ring.push(iota(2));   // pre-fill so the bulk path also accounts them
  ring.push(iota(10));  // only 6 7 8 9 survive
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 8u);  // 2 buffered + 6 of the block

  RealVector out(4);
  ring.copy_range(0, 4, out);
  EXPECT_EQ(out, (RealVector{6.0, 7.0, 8.0, 9.0}));
}

TEST(SampleRing, FullRingSlidesAcrossThePhysicalEnd) {
  SampleRing ring(6);
  ring.push(iota(6));
  ring.push(iota(2, 6.0));  // overwrites slots 0-1, head = 2
  EXPECT_EQ(ring.size(), 6u);

  RealVector out(6);
  ring.copy_range(0, 6, out);
  EXPECT_EQ(out, (RealVector{2.0, 3.0, 4.0, 5.0, 6.0, 7.0}));
  // The newest window of four, as a session reads it on completion.
  RealVector window(4);
  ring.copy_range(ring.size() - 4, 4, window);
  EXPECT_EQ(window, (RealVector{4.0, 5.0, 6.0, 7.0}));
}

TEST(SampleRing, CopyFrontChecksBounds) {
  SampleRing ring(4);
  ring.push(iota(2));
  RealVector out(4);
  EXPECT_THROW(ring.copy_range(0, 3, out), InvalidArgument);
}

TEST(SampleRing, CopyRangeReadsAcrossThePhysicalWrap) {
  SampleRing ring(6);
  ring.push(iota(4));       // 0 1 2 3
  ring.push(iota(5, 4.0));  // 4 .. 8: 6 7 8 overwrite slots 0-2, head = 3
  ASSERT_EQ(ring.dropped(), 3u);

  // Logical 4 5 6 7 sit in physical slots 4 5 0 1.
  RealVector out(4);
  ring.copy_range(1, 4, out);
  EXPECT_EQ(out, (RealVector{4.0, 5.0, 6.0, 7.0}));

  RealVector tail(2);
  ring.copy_range(4, 2, tail);
  EXPECT_EQ(tail, (RealVector{7.0, 8.0}));
}

TEST(SampleRing, CopyRangeAcceptsAnEmptyRangeAtTheEnd) {
  SampleRing ring(4);
  ring.push(iota(3));
  RealVector out;
  EXPECT_NO_THROW(ring.copy_range(ring.size(), 0, out));
}

TEST(SampleRing, CopyRangeRejectsRequestsPastTheContent) {
  SampleRing ring(8);
  ring.push(iota(5));
  RealVector out(8);
  EXPECT_THROW(ring.copy_range(5, 1, out), InvalidArgument);
  EXPECT_THROW(ring.copy_range(6, 0, out), InvalidArgument);
  EXPECT_THROW(ring.copy_range(2, 4, out), InvalidArgument);
  // offset + count would wrap around std::size_t.
  EXPECT_THROW(ring.copy_range(1, static_cast<std::size_t>(-1), out),
               InvalidArgument);
  RealVector small(2);
  EXPECT_THROW(ring.copy_range(0, 3, small), InvalidArgument);
}

TEST(SampleRing, ManySmallPushesMatchOneBigPush) {
  SampleRing a(100);
  SampleRing b(100);
  const RealVector v = iota(257);
  b.push(v);
  for (std::size_t i = 0; i < v.size(); i += 3) {
    const std::size_t n = std::min<std::size_t>(3, v.size() - i);
    a.push(std::span<const Real>(v).subspan(i, n));
  }
  ASSERT_EQ(a.size(), b.size());
  RealVector out_a(a.size());
  RealVector out_b(b.size());
  a.copy_range(0, a.size(), out_a);
  b.copy_range(0, b.size(), out_b);
  EXPECT_EQ(out_a, out_b);
}

TEST(SampleRing, HistorySizedRingOnItsOwnPagesKeepsTheNewestSamples) {
  // One sample past the mapping threshold, so the ring maps its pages on
  // the first push, then wraps twice.
  const std::size_t capacity =
      PageBuffer::k_min_mapped_bytes / sizeof(Real) + 1;
  ASSERT_TRUE(PageBuffer(capacity).mapped());
  SampleRing ring(capacity);
  RealVector empty;
  EXPECT_NO_THROW(ring.copy_range(0, 0, empty));  // nothing mapped yet

  const RealVector v = iota(2 * capacity + 5);
  for (std::size_t i = 0; i < v.size(); i += 1000) {
    const std::size_t n = std::min<std::size_t>(1000, v.size() - i);
    ring.push(std::span<const Real>(v).subspan(i, n));
  }
  EXPECT_EQ(ring.size(), capacity);
  EXPECT_EQ(ring.dropped(), v.size() - capacity);
  RealVector out(capacity);
  ring.copy_range(0, capacity, out);
  EXPECT_EQ(out, RealVector(v.end() - static_cast<std::ptrdiff_t>(capacity),
                            v.end()));

  SampleRing moved(std::move(ring));
  RealVector window(4);
  moved.copy_range(capacity - 4, 4, window);
  EXPECT_EQ(window, RealVector(v.end() - 4, v.end()));
}

}  // namespace
}  // namespace esl::signal
