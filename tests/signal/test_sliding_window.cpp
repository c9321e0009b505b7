#include "signal/sliding_window.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace esl::signal {
namespace {

TEST(SlidingWindows, CountFormula) {
  const SlidingWindows plan(100, 10, 5);
  EXPECT_EQ(plan.count(), 19u);  // (100-10)/5 + 1
}

TEST(SlidingWindows, ExactFitGivesOneWindow) {
  const SlidingWindows plan(10, 10, 3);
  EXPECT_EQ(plan.count(), 1u);
}

TEST(SlidingWindows, StartPositions) {
  const SlidingWindows plan(20, 8, 4);
  EXPECT_EQ(plan.start(0), 0u);
  EXPECT_EQ(plan.start(1), 4u);
  EXPECT_EQ(plan.start(3), 12u);
  EXPECT_THROW(plan.start(4), InvalidArgument);
}

TEST(SlidingWindows, PaperPlanGeometry) {
  // 4 s windows, 75 % overlap at 256 Hz: window 1024 samples, hop 256.
  const std::size_t hour = 3600 * 256;
  const SlidingWindows plan = SlidingWindows::paper_plan(hour, 256.0);
  EXPECT_EQ(plan.window_length(), 1024u);
  EXPECT_EQ(plan.hop(), 256u);
  // One feature row per second: 3597 windows for an hour of signal.
  EXPECT_EQ(plan.count(), 3597u);
}

TEST(SlidingWindows, PaperPlanCustomOverlap) {
  const SlidingWindows plan =
      SlidingWindows::paper_plan(2560, 256.0, 4.0, 0.5);
  EXPECT_EQ(plan.hop(), 512u);
}

TEST(SlidingWindows, WindowGeometryRoundsToWholeSamples) {
  const WindowGeometry paper = window_geometry(256.0, 4.0, 0.75);
  EXPECT_EQ(paper.length, 1024u);
  EXPECT_EQ(paper.hop, 256u);
  // 0.5 s at 250 Hz is 125 samples; the half-window hop rounds 62.5 to
  // 63 and the quarter-window one 31.25 to 31.
  const WindowGeometry half = window_geometry(250.0, 0.5, 0.5);
  EXPECT_EQ(half.length, 125u);
  EXPECT_EQ(half.hop, 63u);
  EXPECT_EQ(window_geometry(250.0, 0.5, 0.75).hop, 31u);
  // A hop that rounds to zero becomes one sample.
  EXPECT_EQ(window_geometry(256.0, 4.0, 0.9999).hop, 1u);
}

TEST(SlidingWindows, WindowGeometryRejectsInvalidArguments) {
  EXPECT_THROW(window_geometry(0.0, 4.0, 0.75), InvalidArgument);
  EXPECT_THROW(window_geometry(256.0, -1.0, 0.75), InvalidArgument);
  EXPECT_THROW(window_geometry(256.0, 4.0, 1.0), InvalidArgument);
  EXPECT_THROW(window_geometry(256.0, 4.0, -0.1), InvalidArgument);
  // Shorter than half a sample rounds to an empty window.
  EXPECT_THROW(window_geometry(256.0, 0.001, 0.75), InvalidArgument);
}

TEST(SlidingWindows, ViewReturnsCorrectSlice) {
  RealVector signal(64);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    signal[i] = static_cast<Real>(i);
  }
  const SlidingWindows plan(64, 16, 8);
  const auto view = plan.view(signal, 2);
  ASSERT_EQ(view.size(), 16u);
  EXPECT_DOUBLE_EQ(view[0], 16.0);
  EXPECT_DOUBLE_EQ(view[15], 31.0);
}

TEST(SlidingWindows, ViewValidatesSignalLength) {
  RealVector wrong(32, 0.0);
  const SlidingWindows plan(64, 16, 8);
  EXPECT_THROW(plan.view(wrong, 0), InvalidArgument);
}

TEST(SlidingWindows, RejectsDegenerateParameters) {
  EXPECT_THROW(SlidingWindows(100, 0, 5), InvalidArgument);
  EXPECT_THROW(SlidingWindows(100, 10, 0), InvalidArgument);
  EXPECT_THROW(SlidingWindows(5, 10, 1), InvalidArgument);
}

TEST(SlidingWindows, WindowsCoverSignalWithoutGaps) {
  const SlidingWindows plan(1000, 100, 25);
  // Consecutive windows overlap by window - hop = 75 samples.
  for (std::size_t w = 0; w + 1 < plan.count(); ++w) {
    EXPECT_EQ(plan.start(w + 1) - plan.start(w), 25u);
  }
  // The final window must reach (nearly) the signal end.
  EXPECT_GE(plan.start(plan.count() - 1) + 100, 1000u - 25u);
}

}  // namespace
}  // namespace esl::signal
