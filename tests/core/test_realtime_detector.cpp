#include "core/realtime_detector.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "features/extractor.hpp"
#include "sim/cohort.hpp"

namespace esl::core {
namespace {

/// Shared fixture: one training record + one test record for patient 5
/// (strong, clean discharges), short records to keep the test fast.
class RealtimeDetectorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    simulator_ = new sim::CohortSimulator();
    const auto events = simulator_->events_for_patient(4);
    train_record_ = new signal::EegRecord(
        simulator_->synthesize_sample(events[0], 0, 500.0, 600.0));
    test_record_ = new signal::EegRecord(
        simulator_->synthesize_sample(events[1], 1, 500.0, 600.0));
  }
  static void TearDownTestSuite() {
    delete train_record_;
    delete test_record_;
    delete simulator_;
    train_record_ = nullptr;
    test_record_ = nullptr;
    simulator_ = nullptr;
  }

  static sim::CohortSimulator* simulator_;
  static signal::EegRecord* train_record_;
  static signal::EegRecord* test_record_;
};

sim::CohortSimulator* RealtimeDetectorTest::simulator_ = nullptr;
signal::EegRecord* RealtimeDetectorTest::train_record_ = nullptr;
signal::EegRecord* RealtimeDetectorTest::test_record_ = nullptr;

TEST_F(RealtimeDetectorTest, WindowDatasetLabelsMatchAnnotations) {
  const ml::Dataset data =
      build_window_dataset(*train_record_, train_record_->seizures());
  data.check();
  const auto seizure = train_record_->seizures().front();
  // Positives should roughly equal the seizure duration in seconds.
  EXPECT_GT(data.positives(), static_cast<std::size_t>(seizure.duration() * 0.5));
  EXPECT_LT(data.positives(), static_cast<std::size_t>(seizure.duration() * 1.5));
  EXPECT_EQ(data.feature_count(), 108u);
}

TEST_F(RealtimeDetectorTest, EmptyIntervalsGiveAllNegatives) {
  const ml::Dataset data = build_window_dataset(*train_record_, {});
  EXPECT_EQ(data.positives(), 0u);
}

TEST_F(RealtimeDetectorTest, TrainedDetectorFindsHeldOutSeizure) {
  ml::Dataset train =
      build_window_dataset(*train_record_, train_record_->seizures());
  Rng rng(1);
  const ml::Dataset balanced = ml::balance_classes(train, rng);

  RealtimeDetector detector;
  detector.fit(balanced, 7);
  EXPECT_TRUE(detector.is_fitted());

  const ml::ConfusionMatrix m =
      detector.evaluate(*test_record_, test_record_->seizures());
  EXPECT_GT(m.sensitivity(), 0.55);
  EXPECT_GT(m.specificity(), 0.80);
  EXPECT_GT(m.geometric_mean(), 0.70);
}

TEST_F(RealtimeDetectorTest, AlarmRaisedOnSeizureRecordOnly) {
  ml::Dataset train =
      build_window_dataset(*train_record_, train_record_->seizures());
  Rng rng(2);
  RealtimeDetector detector;
  detector.fit(ml::balance_classes(train, rng), 7);

  EXPECT_TRUE(detector.raises_alarm(*test_record_));
  const signal::EegRecord quiet =
      simulator_->synthesize_background_record(4, 400.0, 5);
  EXPECT_FALSE(detector.raises_alarm(quiet, 5));
}

TEST_F(RealtimeDetectorTest, PredictionsOnePerWindow) {
  ml::Dataset train =
      build_window_dataset(*train_record_, train_record_->seizures());
  Rng rng(3);
  RealtimeDetector detector;
  detector.fit(ml::balance_classes(train, rng), 7);
  const std::vector<int> predictions = detector.predict_windows(*test_record_);
  const auto expected =
      static_cast<std::size_t>(test_record_->duration_seconds()) - 3;
  EXPECT_EQ(predictions.size(), expected);
}

TEST_F(RealtimeDetectorTest, DeployableModelsMatchOfflinePredictionsBitForBit) {
  // model() (the ForestModel adapter) and compile() (the flat artifact)
  // fed *raw* feature rows must reproduce the detector's offline
  // scale-then-predict path exactly — this is what makes them safe to
  // hot-swap into a live engine.
  ml::Dataset train =
      build_window_dataset(*train_record_, train_record_->seizures());
  Rng rng(4);
  RealtimeDetector detector;
  EXPECT_EQ(detector.model(), nullptr);  // no artifact before fit
  EXPECT_THROW(detector.compile(), InvalidArgument);
  detector.fit(ml::balance_classes(train, rng), 7);
  ASSERT_NE(detector.model(), nullptr);

  const features::WindowedFeatures windowed =
      features::extract_windowed_features(
          *test_record_, features::EglassFeatureExtractor(2),
          detector.config().window_seconds, detector.config().overlap);
  const std::vector<int> offline = detector.predict_windows(*test_record_);

  const std::shared_ptr<const ml::CompiledForest> compiled =
      detector.compile();
  EXPECT_EQ(compiled->tree_count(), detector.forest().tree_count());
  EXPECT_STREQ(compiled->name(), "compiled");
  for (const ml::InferenceModel* model :
       {static_cast<const ml::InferenceModel*>(detector.model().get()),
        static_cast<const ml::InferenceModel*>(compiled.get())}) {
    SCOPED_TRACE(model->name());
    Matrix raw = windowed.features;
    RealVector proba;
    std::vector<int> labels;
    model->predict_into(raw, proba, labels);
    EXPECT_EQ(labels, offline);
  }

  // Re-fitting replaces the artifact; the old one stays valid for
  // holders (immutability is what makes mid-stream swaps safe).
  const std::shared_ptr<const ml::InferenceModel> before = detector.model();
  Rng rng2(5);
  detector.fit(ml::balance_classes(train, rng2), 11);
  EXPECT_NE(detector.model(), before);
  EXPECT_EQ(before->tree_count(), detector.forest().tree_count());
}

TEST(RealtimeDetectorValidation, UnfittedDetectorThrows) {
  const RealtimeDetector detector;
  const sim::CohortSimulator simulator;
  const auto record = simulator.synthesize_background_record(0, 30.0, 1);
  EXPECT_THROW(detector.predict_windows(record), InvalidArgument);
  EXPECT_THROW(detector.raises_alarm(record), InvalidArgument);
  EXPECT_THROW(detector.evaluate(record, {}), InvalidArgument);
}

TEST(RealtimeDetectorValidation, FitRejectsTinyDatasets) {
  RealtimeDetector detector;
  ml::Dataset tiny;
  const RealVector row(108, 0.0);
  tiny.push_back(row, 1);
  EXPECT_THROW(detector.fit(tiny), InvalidArgument);
}

}  // namespace
}  // namespace esl::core
