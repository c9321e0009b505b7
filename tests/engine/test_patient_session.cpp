#include "engine/patient_session.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "features/eglass_features.hpp"
#include "features/extractor.hpp"
#include "features/paper_features.hpp"
#include "sim/cohort.hpp"

namespace esl::engine {
namespace {

/// Shared short background record (cheap) for chunking tests.
class PatientSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const sim::CohortSimulator simulator;
    record_ = new signal::EegRecord(
        simulator.synthesize_background_record(0, 60.0, 11));
  }
  static void TearDownTestSuite() {
    delete record_;
    record_ = nullptr;
  }

  static std::vector<std::span<const Real>> chunk_views(
      const signal::EegRecord& record, std::size_t offset, std::size_t count) {
    std::vector<std::span<const Real>> views;
    for (std::size_t c = 0; c < record.channel_count(); ++c) {
      views.push_back(std::span<const Real>(record.channel(c).samples)
                          .subspan(offset, count));
    }
    return views;
  }

  /// Streams the whole record in `chunk` sized pieces.
  void stream(PatientSession& session, const signal::EegRecord& record,
              std::size_t chunk) {
    stream_range(session, record, 0, record.length_samples(), chunk);
  }

  /// Streams samples [begin, end) of the record in `chunk` sized pieces.
  void stream_range(PatientSession& session, const signal::EegRecord& record,
                    std::size_t begin, std::size_t end, std::size_t chunk) {
    for (std::size_t offset = begin; offset < end; offset += chunk) {
      const std::size_t n = std::min(chunk, end - offset);
      session.ingest(chunk_views(record, offset, n), workspace_);
    }
  }

  static signal::EegRecord* record_;
  dsp::Workspace workspace_;
};

signal::EegRecord* PatientSessionTest::record_ = nullptr;

TEST_F(PatientSessionTest, ChunkedFeatureRowsMatchBatchBitForBit) {
  const features::EglassFeatureExtractor extractor(2);
  const features::WindowedFeatures batch =
      features::extract_windowed_features(*record_, extractor);

  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  PatientSession session(0, extractor, config);
  stream(session, *record_, 997);  // prime-sized chunks, misaligned to hops

  ASSERT_EQ(session.pending().rows(), batch.count());
  EXPECT_EQ(session.pending(), batch.features);  // bit-for-bit
  for (std::size_t w = 0; w < batch.count(); ++w) {
    EXPECT_EQ(session.pending_window_indices()[w], w);
    EXPECT_DOUBLE_EQ(session.window_start_s(w), batch.window_start_s[w]);
  }
}

TEST_F(PatientSessionTest, SingleSampleChunksMatchBatch) {
  const features::EglassFeatureExtractor extractor(2);
  // 12 s is enough for a few windows while keeping 1-sample pushes cheap.
  const sim::CohortSimulator simulator;
  const signal::EegRecord record =
      simulator.synthesize_background_record(0, 12.0, 12);
  const features::WindowedFeatures batch =
      features::extract_windowed_features(record, extractor);

  SessionConfig config;
  config.sample_rate_hz = record.sample_rate_hz();
  PatientSession session(1, extractor, config);
  stream(session, record, 1);

  ASSERT_EQ(session.pending().rows(), batch.count());
  EXPECT_EQ(session.pending(), batch.features);
}

TEST_F(PatientSessionTest, PaperExtractorStreamsBitIdenticallyToBatch) {
  // The 10-feature extractor of Algorithm 1 streams through the same
  // ring as the e-Glass one; odd chunk sizes stress the slicing.
  const features::PaperFeatureExtractor extractor;
  const features::WindowedFeatures batch =
      features::extract_windowed_features(*record_, extractor);

  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  PatientSession session(13, extractor, config);
  const std::size_t chunk_sizes[] = {1, 7, 250, 1024, 999, 3000};
  const std::size_t total = record_->length_samples();
  std::size_t position = 0;
  for (std::size_t k = 0; position < total; ++k) {
    const std::size_t n = std::min(chunk_sizes[k % 6], total - position);
    session.ingest(chunk_views(*record_, position, n), workspace_);
    position += n;
  }

  ASSERT_EQ(session.pending().rows(), batch.count());
  EXPECT_EQ(session.pending(), batch.features);  // bit-for-bit
  for (std::size_t w = 0; w < batch.count(); ++w) {
    EXPECT_EQ(session.window_start_s(w), batch.window_start_s[w]);
  }
}

TEST_F(PatientSessionTest, EmitsNothingBeforeFirstFullWindow) {
  const features::EglassFeatureExtractor extractor(2);
  PatientSession session(14, extractor, SessionConfig{});
  EXPECT_EQ(session.ingest(chunk_views(*record_, 0, 1023), workspace_), 0u);
  EXPECT_EQ(session.pending().rows(), 0u);
  EXPECT_EQ(session.windows_emitted(), 0u);
  EXPECT_EQ(session.buffered_samples(), 1023u);
}

TEST_F(PatientSessionTest, OneSampleCompletesTheWindow) {
  const features::EglassFeatureExtractor extractor(2);
  PatientSession session(15, extractor, SessionConfig{});
  session.ingest(chunk_views(*record_, 0, 1023), workspace_);
  EXPECT_EQ(session.ingest(chunk_views(*record_, 1023, 1), workspace_), 1u);
  EXPECT_EQ(session.windows_emitted(), 1u);
  EXPECT_EQ(session.pending().rows(), 1u);
  // The next window starts one 256-sample hop later: 768 of its samples
  // are already buffered.
  EXPECT_EQ(session.buffered_samples(), 768u);
}

TEST_F(PatientSessionTest, RejectedChunkLeavesTheStreamUnchanged) {
  const features::EglassFeatureExtractor extractor(2);
  const features::WindowedFeatures batch =
      features::extract_windowed_features(*record_, extractor);
  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  config.history_seconds = 20.0;
  PatientSession session(16, extractor, config);
  stream_range(session, *record_, 0, 1500, 1500);
  ASSERT_EQ(session.windows_emitted(), 2u);

  const std::vector<std::span<const Real>> one = {
      std::span<const Real>(record_->channel(0).samples).subspan(1500, 100)};
  EXPECT_THROW(session.ingest(one, workspace_), InvalidArgument);
  const std::vector<std::span<const Real>> ragged = {
      std::span<const Real>(record_->channel(0).samples).subspan(1500, 100),
      std::span<const Real>(record_->channel(1).samples).subspan(1500, 99)};
  EXPECT_THROW(session.ingest(ragged, workspace_), InvalidArgument);

  EXPECT_EQ(session.windows_emitted(), 2u);
  EXPECT_EQ(session.buffered_samples(), 1500u - 2u * 256u);
  EXPECT_EQ(session.history_buffered_s(), 1500.0 / 256.0);
  // The stream continues as if the rejected chunks never arrived.
  stream_range(session, *record_, 1500, record_->length_samples(), 1500);
  EXPECT_EQ(session.pending(), batch.features);
}

TEST_F(PatientSessionTest, WindowStartOfAWindowNotYetEmittedThrows) {
  const features::EglassFeatureExtractor extractor(2);
  PatientSession session(17, extractor, SessionConfig{});
  EXPECT_THROW((void)session.window_start_s(0), InvalidArgument);
  session.ingest(chunk_views(*record_, 0, 1024), workspace_);
  EXPECT_EQ(session.window_start_s(0), 0.0);
  EXPECT_THROW((void)session.window_start_s(1), InvalidArgument);
}

TEST_F(PatientSessionTest, ClearPendingKeepsGlobalWindowIndices) {
  const features::EglassFeatureExtractor extractor(2);
  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  PatientSession session(2, extractor, config);

  const std::size_t half = record_->length_samples() / 2;
  session.ingest(chunk_views(*record_, 0, half), workspace_);
  const std::size_t first_batch = session.pending().rows();
  ASSERT_GT(first_batch, 0u);
  session.clear_pending();
  EXPECT_EQ(session.pending().rows(), 0u);

  session.ingest(chunk_views(*record_, half, record_->length_samples() - half), workspace_);
  ASSERT_GT(session.pending().rows(), 0u);
  // Indices continue the global counter instead of restarting at 0.
  EXPECT_EQ(session.pending_window_indices().front(), first_batch);
  EXPECT_EQ(session.windows_emitted(),
            first_batch + session.pending().rows());
}

TEST_F(PatientSessionTest, AlarmRunLengthPostProcessing) {
  const features::EglassFeatureExtractor extractor(2);
  SessionConfig config;
  config.alarm_consecutive = 3;
  PatientSession session(3, extractor, config);

  EXPECT_FALSE(session.observe_label(1));
  EXPECT_FALSE(session.observe_label(1));
  EXPECT_TRUE(session.observe_label(1));   // third in a row -> alarm
  EXPECT_FALSE(session.observe_label(1));  // run continues, no re-alarm
  EXPECT_FALSE(session.observe_label(0));  // run broken
  EXPECT_FALSE(session.observe_label(1));
  EXPECT_FALSE(session.observe_label(1));
  EXPECT_TRUE(session.observe_label(1));   // new run -> second alarm
  EXPECT_EQ(session.alarms(), 2u);
}

TEST_F(PatientSessionTest, HistoryRecordHoldsLatestSignalTail) {
  const features::EglassFeatureExtractor extractor(2);
  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  config.history_seconds = 20.0;  // shorter than the 60 s record
  PatientSession session(4, extractor, config);
  stream(session, *record_, 1024);

  ASSERT_TRUE(session.history_enabled());
  EXPECT_DOUBLE_EQ(session.history_buffered_s(), 20.0);

  const signal::EegRecord history = session.history_record();
  ASSERT_EQ(history.channel_count(), record_->channel_count());
  EXPECT_EQ(history.channel(0).electrodes.label(), "F7-T3");
  EXPECT_EQ(history.channel(1).electrodes.label(), "F8-T4");

  const std::size_t tail = history.length_samples();
  const std::size_t offset = record_->length_samples() - tail;
  for (std::size_t c = 0; c < history.channel_count(); ++c) {
    const auto& expected = record_->channel(c).samples;
    const auto& actual = history.channel(c).samples;
    for (std::size_t i = 0; i < tail; ++i) {
      ASSERT_EQ(actual[i], expected[offset + i]) << "channel " << c
                                                 << " sample " << i;
    }
  }
}

TEST_F(PatientSessionTest, HistoryRingWrapsAroundOnLongStreams) {
  // Stream the 60 s record three times through a 20 s history ring: the
  // ring wraps many times and must still hold exactly the newest 20 s.
  const features::EglassFeatureExtractor extractor(2);
  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  config.history_seconds = 20.0;
  PatientSession session(7, extractor, config);
  for (int pass = 0; pass < 3; ++pass) {
    stream(session, *record_, 777);  // chunk size misaligned to the ring
  }

  EXPECT_DOUBLE_EQ(session.history_buffered_s(), 20.0);
  const signal::EegRecord history = session.history_record();
  const std::size_t tail = history.length_samples();
  const std::size_t offset = record_->length_samples() - tail;
  for (std::size_t c = 0; c < history.channel_count(); ++c) {
    const auto& expected = record_->channel(c).samples;
    const auto& actual = history.channel(c).samples;
    for (std::size_t i = 0; i < tail; ++i) {
      ASSERT_EQ(actual[i], expected[offset + i])
          << "channel " << c << " sample " << i;
    }
  }
}

void expect_same_windows(const features::WindowedFeatures& actual,
                         const features::WindowedFeatures& expected) {
  EXPECT_EQ(actual.features, expected.features);
  EXPECT_EQ(actual.window_start_s, expected.window_start_s);
  EXPECT_EQ(actual.window_seconds, expected.window_seconds);
  EXPECT_EQ(actual.hop_seconds, expected.hop_seconds);
}

TEST_F(PatientSessionTest, HistoryFeaturesMatchOfflineExtractionOfHistory) {
  // Algorithm 1's rows of the streamed windows inside the history, built
  // from the row ring and the F8-T4 history, must be the offline
  // extraction of those windows bit for bit, whether or not the ring has
  // wrapped and wherever the wrap falls. While the history starts on a
  // hop boundary they are the offline extraction of the materialized
  // history.
  const features::EglassFeatureExtractor eglass(2);
  const features::PaperFeatureExtractor paper;
  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  config.history_seconds = 20.0;  // 5120 samples
  PatientSession session(10, eglass, config);
  const std::size_t capacity = 5120;
  const std::size_t window = 1024;
  const std::size_t hop = 256;
  const auto expect_streamed_parity =
      [&](const features::WindowedFeatures& actual, std::size_t received) {
    const features::WindowedFeatures windows = session.history_windows();
    EXPECT_EQ(actual.window_start_s, windows.window_start_s);
    EXPECT_EQ(actual.window_seconds, windows.window_seconds);
    EXPECT_EQ(actual.hop_seconds, windows.hop_seconds);
    const std::size_t dropped = received - std::min(received, capacity);
    const std::size_t first = (dropped + hop - 1) / hop;
    ASSERT_EQ(actual.count(), (received - window) / hop + 1 - first);
    dsp::Workspace reference_workspace;
    RealVector expected;
    for (std::size_t k = 0; k < actual.count(); ++k) {
      const std::size_t start = (first + k) * hop;
      paper.extract_into(chunk_views(*record_, start, window),
                         record_->sample_rate_hz(), expected,
                         reference_workspace);
      const auto row = actual.features.row(k);
      ASSERT_TRUE(std::equal(row.begin(), row.end(), expected.begin()))
          << "window " << first + k;
    }
  };

  // 15 s: the ring has not wrapped.
  stream_range(session, *record_, 0, 3840, 777);
  ASSERT_LT(session.history_buffered_s(), config.history_seconds);
  features::WindowedFeatures actual =
      session.history_paper_features(paper, workspace_);
  expect_streamed_parity(actual, 3840);
  expect_same_windows(
      actual,
      features::extract_windowed_features(session.history_record(), paper));

  // 25.5 s: the history starts mid-hop (5.5 hops dropped), and the ring's
  // physical end falls at history offset 3712, inside a window.
  stream_range(session, *record_, 3840, 6528, 777);
  ASSERT_DOUBLE_EQ(session.history_buffered_s(), config.history_seconds);
  expect_streamed_parity(session.history_paper_features(paper, workspace_),
                         6528);

  // The rest of the record: wrapped several times, back on a hop
  // boundary.
  const std::size_t total = record_->length_samples();
  ASSERT_EQ((total - capacity) % hop, 0u);
  stream_range(session, *record_, 6528, total, 777);
  actual = session.history_paper_features(paper, workspace_);
  expect_streamed_parity(actual, total);
  expect_same_windows(
      actual,
      features::extract_windowed_features(session.history_record(), paper));
}

TEST_F(PatientSessionTest, HistoryWindowsAreTheStreamedRowsOfTheHistory) {
  // With whole-hop chunks the history starts on a hop boundary, so the
  // row ring's windows are exactly the offline windows of the history
  // record, with the same rows, also after the row ring has wrapped.
  const features::EglassFeatureExtractor eglass(2);
  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  config.history_seconds = 20.0;  // 17 rows
  PatientSession session(11, eglass, config);
  ASSERT_EQ(record_->length_samples() % 256, 0u);  // whole hops per pass

  // 12 s: history and row ring both partly filled.
  stream_range(session, *record_, 0, 3072, 256);
  expect_same_windows(
      session.history_windows(),
      features::extract_windowed_features(session.history_record(), eglass));

  for (int pass = 0; pass < 3; ++pass) {
    stream_range(session, *record_, 0, record_->length_samples(), 256);
  }
  ASSERT_GT(session.windows_emitted(), 3u * 17u);
  expect_same_windows(
      session.history_windows(),
      features::extract_windowed_features(session.history_record(), eglass));
}

TEST_F(PatientSessionTest, ChunkLongerThanTheHistoryKeepsEveryWindowWhole) {
  // One 60 s chunk through an 8 s history spans 57 windows and wraps the
  // ring many times: only the slicing at window ends, not the ring size,
  // keeps each window intact when it is read.
  const features::EglassFeatureExtractor eglass(2);
  const features::WindowedFeatures batch =
      features::extract_windowed_features(*record_, eglass);
  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  config.history_seconds = 8.0;  // 2048 samples, 5 windows
  PatientSession session(18, eglass, config);
  const std::size_t total = record_->length_samples();
  EXPECT_EQ(session.ingest(chunk_views(*record_, 0, total), workspace_),
            batch.count());
  EXPECT_EQ(session.pending(), batch.features);  // bit-for-bit

  const signal::EegRecord history = session.history_record();
  ASSERT_EQ(history.length_samples(), 2048u);
  for (std::size_t c = 0; c < history.channel_count(); ++c) {
    for (std::size_t i = 0; i < history.length_samples(); ++i) {
      ASSERT_EQ(history.channel(c).samples[i],
                record_->channel(c).samples[total - 2048 + i])
          << "channel " << c << " sample " << i;
    }
  }

  // The windows inside the history are the batch's last five.
  const features::WindowedFeatures windows = session.history_windows();
  ASSERT_EQ(windows.count(), 5u);
  const std::size_t first = batch.count() - 5;
  for (std::size_t k = 0; k < windows.count(); ++k) {
    const auto expected = batch.features.row(first + k);
    const auto actual = windows.features.row(k);
    EXPECT_TRUE(std::equal(actual.begin(), actual.end(), expected.begin()))
        << "window " << k;
    EXPECT_EQ(windows.window_start_s[k],
              batch.window_start_s[first + k] - batch.window_start_s[first]);
  }
}

TEST_F(PatientSessionTest, HistoryWindowsRequireTheHistory) {
  const features::EglassFeatureExtractor eglass(2);
  const features::PaperFeatureExtractor paper;
  PatientSession session(12, eglass, SessionConfig{});
  EXPECT_THROW(session.history_windows(), InvalidArgument);
  EXPECT_THROW(session.history_paper_features(paper, workspace_),
               InvalidArgument);
}

TEST_F(PatientSessionTest, HistoryPaperFeaturesNeedTwoChannelEglassRows) {
  // Algorithm 1's band powers are read from the streamed rows, so a
  // session streaming any other rows cannot serve them.
  const features::PaperFeatureExtractor paper;
  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  config.history_seconds = 20.0;
  PatientSession streams_paper_rows(13, paper, config);
  stream_range(streams_paper_rows, *record_, 0, 2048, 256);
  EXPECT_THROW(streams_paper_rows.history_paper_features(paper, workspace_),
               InvalidArgument);
  const features::EglassFeatureExtractor one_channel(1);
  PatientSession streams_one_channel(14, one_channel, config);
  stream_range(streams_one_channel, *record_, 0, 2048, 256);
  EXPECT_THROW(streams_one_channel.history_paper_features(paper, workspace_),
               InvalidArgument);
}

TEST_F(PatientSessionTest, HistoryRecordAtExactlyOneWindowBoundary) {
  // history_seconds == window_seconds is the smallest legal ring. One
  // sample short of a window must still throw; the exact window length
  // must materialize.
  const features::EglassFeatureExtractor extractor(2);
  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  config.history_seconds = config.window_seconds;  // capacity == 1 window
  PatientSession session(8, extractor, config);

  const auto window_length = static_cast<std::size_t>(
      config.window_seconds * config.sample_rate_hz);
  session.ingest(chunk_views(*record_, 0, window_length - 1), workspace_);
  EXPECT_THROW(session.history_record(), InvalidArgument);

  session.ingest(chunk_views(*record_, window_length - 1, 1), workspace_);
  const signal::EegRecord history = session.history_record();
  EXPECT_EQ(history.length_samples(), window_length);
  for (std::size_t c = 0; c < history.channel_count(); ++c) {
    for (std::size_t i = 0; i < window_length; ++i) {
      ASSERT_EQ(history.channel(c).samples[i], record_->channel(c).samples[i])
          << "channel " << c << " sample " << i;
    }
  }

  // Once the ring is full it stays exactly one window long and slides.
  session.ingest(chunk_views(*record_, window_length, 100), workspace_);
  const signal::EegRecord slid = session.history_record();
  EXPECT_EQ(slid.length_samples(), window_length);
  EXPECT_EQ(slid.channel(0).samples[0], record_->channel(0).samples[100]);
}

TEST_F(PatientSessionTest, RejectsInvalidStreamGeometry) {
  const features::EglassFeatureExtractor extractor(2);
  SessionConfig bad;
  bad.overlap = 1.0;  // hop would be zero
  EXPECT_THROW(PatientSession(9, extractor, bad), InvalidArgument);
  bad = SessionConfig{};
  bad.sample_rate_hz = -256.0;
  EXPECT_THROW(PatientSession(9, extractor, bad), InvalidArgument);
  bad = SessionConfig{};
  bad.window_seconds = 0.0;
  EXPECT_THROW(PatientSession(9, extractor, bad), InvalidArgument);
  bad = SessionConfig{};
  bad.alarm_consecutive = 0;
  EXPECT_THROW(PatientSession(9, extractor, bad), InvalidArgument);
  bad = SessionConfig{};
  bad.history_seconds = -1.0;
  EXPECT_THROW(PatientSession(9, extractor, bad), InvalidArgument);
}

TEST_F(PatientSessionTest, RejectsImplausiblyLargeStreamGeometry) {
  // Fuzz regression (fuzz/fuzz_ingest.cpp): finite-but-absurd rates used
  // to pass validation and reach lround(window_seconds * sample_rate_hz)
  // — long overflow, then a colossal ring allocation. validate() must
  // bound the products, not just the signs.
  SessionConfig bad;
  bad.sample_rate_hz = 1e30;
  EXPECT_THROW(validate(bad), InvalidArgument);
  bad = SessionConfig{};
  bad.window_seconds = 1e18;
  EXPECT_THROW(validate(bad), InvalidArgument);
  bad = SessionConfig{};
  bad.history_seconds = 1e20;
  EXPECT_THROW(validate(bad), InvalidArgument);
  // The paper's wearable geometry (and an aggressive-but-real research
  // rig at 20 kHz) stay accepted.
  SessionConfig fine;
  EXPECT_NO_THROW(validate(fine));
  fine.sample_rate_hz = 20000.0;
  fine.history_seconds = 3600.0;
  EXPECT_NO_THROW(validate(fine));
}

TEST_F(PatientSessionTest, HistoryDisabledByDefault) {
  const features::EglassFeatureExtractor extractor(2);
  PatientSession session(5, extractor, SessionConfig{});
  EXPECT_FALSE(session.history_enabled());
  EXPECT_THROW(session.history_record(), InvalidArgument);
}

TEST_F(PatientSessionTest, RejectsHistoryShorterThanWindow) {
  const features::EglassFeatureExtractor extractor(2);
  SessionConfig config;
  config.history_seconds = 1.0;  // < 4 s window
  EXPECT_THROW(PatientSession(6, extractor, config), InvalidArgument);
}

}  // namespace
}  // namespace esl::engine
