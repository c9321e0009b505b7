// Steady-state allocation regression for the engine ingest path.
//
// A warm PatientSession ingest cycle — ring buffering, history ring and
// its row ring, incremental windowing, the full 108-wide e-Glass feature row,
// pending-matrix append and clear — must perform zero heap allocations.
// The DSP scratch belongs to the Engine, not the session, so a session
// opened on a warm Engine streams allocation-free from its first chunk.
// The counting operator new (test-only) proves both.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "../support/alloc_counter.hpp"
#include "common/random.hpp"
#include "dsp/workspace.hpp"
#include "engine/engine.hpp"
#include "engine/patient_session.hpp"
#include "features/eglass_features.hpp"

ESL_DEFINE_COUNTING_ALLOCATOR();

namespace esl::engine {
namespace {

RealVector noise(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RealVector x(n);
  for (auto& v : x) {
    v = rng.normal();
  }
  return x;
}

TEST(ZeroAllocation, PatientSessionIngestCycleIsAllocationFreeWhenWarm) {
  const features::EglassFeatureExtractor extractor(2);
  SessionConfig config;
  config.history_seconds = 30.0;  // exercise the history ring too
  PatientSession session(7, extractor, config);
  dsp::Workspace workspace;

  const RealVector a = noise(256, 21);
  const RealVector b = noise(256, 22);
  const std::vector<std::span<const Real>> chunk = {a, b};

  // Warm-up: past the first 4 s window plus several engine-style
  // ingest -> drain cycles so the pending matrix reaches steady capacity.
  for (int i = 0; i < 8; ++i) {
    session.ingest(chunk, workspace);
    session.clear_pending();
  }

  const std::size_t windows_before = session.windows_emitted();
  const std::size_t before = esl::testing::allocation_count();
  std::size_t completed = 0;
  for (int i = 0; i < 16; ++i) {
    completed += session.ingest(chunk, workspace);
    // The engine reads pending rows into its batch, then clears.
    ASSERT_FALSE(session.pending().empty());
    session.clear_pending();
  }
  EXPECT_EQ(esl::testing::allocation_count() - before, 0u);
  EXPECT_EQ(completed, 16u);  // one window per 1 s chunk at 75 % overlap
  EXPECT_EQ(session.windows_emitted() - windows_before, 16u);
}

TEST(ZeroAllocation, SessionOpenedOnAWarmEngineStreamsWithoutAllocating) {
  Engine engine(nullptr);  // no model: only the ingest path is exercised
  const RealVector a = noise(256, 31);
  const RealVector b = noise(256, 32);
  const std::vector<std::span<const Real>> chunk = {a, b};

  // Warm the engine's workspace through one session.
  const std::uint64_t warm = engine.add_session();
  for (int i = 0; i < 8; ++i) {
    engine.ingest(warm, chunk);
    engine.session(warm).clear_pending();
  }

  // Opening a session allocates its stream state (rings, pending rows)
  // but no DSP scratch, so its very first windows allocate nothing.
  const std::uint64_t fresh = engine.add_session();
  const std::size_t before = esl::testing::allocation_count();
  std::size_t completed = 0;
  for (int i = 0; i < 8; ++i) {
    completed += engine.ingest(fresh, chunk);
  }
  EXPECT_EQ(esl::testing::allocation_count() - before, 0u);
  EXPECT_EQ(completed, 5u);  // first window at 4 s, then one per 1 s chunk
  EXPECT_EQ(engine.session(fresh).pending().rows(), 5u);
}

TEST(ZeroAllocation, HistoryRowRingFillsAndWrapsWithoutAllocating) {
  // The row ring beside the sample history is reserved at open: filling
  // it and then overwriting it in place must not allocate.
  Engine engine(nullptr);
  const RealVector a = noise(256, 41);
  const RealVector b = noise(256, 42);
  const std::vector<std::span<const Real>> chunk = {a, b};
  const std::uint64_t warm = engine.add_session();
  for (int i = 0; i < 8; ++i) {
    engine.ingest(warm, chunk);
    engine.session(warm).clear_pending();
  }

  SessionConfig config;
  config.history_seconds = 8.0;  // (8 s - 4 s) / 1 s + 1 = 5 rows
  const std::uint64_t id = engine.add_session(config);
  PatientSession& session = engine.session(id);
  const std::size_t before = esl::testing::allocation_count();
  std::size_t completed = 0;
  for (int i = 0; i < 24; ++i) {
    completed += engine.ingest(id, chunk);
    session.clear_pending();
  }
  EXPECT_EQ(esl::testing::allocation_count() - before, 0u);
  EXPECT_EQ(completed, 21u);  // the 5-row ring fills, then wraps 3+ times
  EXPECT_EQ(session.history_windows().count(), 5u);
}

TEST(ZeroAllocation, HistoryOnItsOwnPagesStreamsAllocationFree) {
  // 120 s at 256 Hz is 240 KiB per channel: the sample rings map their
  // own pages on the first chunk, which is not a heap allocation.
  Engine engine(nullptr);
  const RealVector a = noise(256, 43);
  const RealVector b = noise(256, 44);
  const std::vector<std::span<const Real>> chunk = {a, b};
  const std::uint64_t warm = engine.add_session();
  for (int i = 0; i < 8; ++i) {
    engine.ingest(warm, chunk);
    engine.session(warm).clear_pending();
  }

  SessionConfig config;
  config.history_seconds = 120.0;
  const std::uint64_t id = engine.add_session(config);
  PatientSession& session = engine.session(id);
  const std::size_t before = esl::testing::allocation_count();
  for (int i = 0; i < 130; ++i) {  // fills the history, then wraps
    engine.ingest(id, chunk);
    session.clear_pending();
  }
  EXPECT_EQ(esl::testing::allocation_count() - before, 0u);
  EXPECT_DOUBLE_EQ(session.history_buffered_s(), 120.0);
}

TEST(ZeroAllocation, AlarmPostProcessingIsAllocationFree) {
  const features::EglassFeatureExtractor extractor(2);
  PatientSession session(8, extractor, SessionConfig{});
  const std::size_t before = esl::testing::allocation_count();
  std::size_t alarms = 0;
  for (int i = 0; i < 64; ++i) {
    alarms += session.observe_label(i % 4 == 3 ? 0 : 1) ? 1 : 0;
  }
  EXPECT_EQ(esl::testing::allocation_count() - before, 0u);
  EXPECT_GT(alarms, 0u);
}

}  // namespace
}  // namespace esl::engine
