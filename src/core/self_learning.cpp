#include "core/self_learning.hpp"

#include "common/error.hpp"
#include "features/extractor.hpp"

namespace esl::core {

SelfLearningPipeline::SelfLearningPipeline(SelfLearningConfig config)
    : config_(config),
      labeler_(config.labeling),
      detector_(config.realtime) {
  expects(config_.average_seizure_duration_s > 0.0,
          "SelfLearningPipeline: W must be positive");
}

signal::Interval SelfLearningPipeline::on_patient_trigger(
    const features::WindowedFeatures& paper_windows,
    const features::WindowedFeatures& eglass_windows) {
  expects(eglass_windows.window_seconds == config_.realtime.window_seconds,
          "SelfLearningPipeline::on_patient_trigger: e-Glass windows do not "
          "match the detector's window length");
  const signal::Interval label =
      labeler_.label(paper_windows, config_.average_seizure_duration_s);

  // The labeled windows provide both positive and negative rows.
  buffer_.append(build_window_dataset(eglass_windows, {label}));
  ++labeled_seizures_;
  if (config_.retrain_on_label) {
    retrain();
  }
  return label;
}

signal::Interval SelfLearningPipeline::on_patient_trigger(
    const signal::EegRecord& record) {
  const features::PaperFeatureExtractor paper;
  const features::EglassFeatureExtractor eglass(2);
  return on_patient_trigger(
      features::extract_windowed_features(record, paper,
                                          k_labeling_window_seconds,
                                          k_labeling_overlap),
      features::extract_windowed_features(record, eglass,
                                          config_.realtime.window_seconds,
                                          config_.realtime.overlap));
}

void SelfLearningPipeline::add_background_record(
    const signal::EegRecord& record) {
  buffer_.append(build_window_dataset(record, {}, config_.realtime));
}

void SelfLearningPipeline::retrain() {
  expects(labeled_seizures_ > 0,
          "SelfLearningPipeline::retrain: no labeled seizures yet");
  expects(buffer_.positives() > 0 && buffer_.positives() < buffer_.size(),
          "SelfLearningPipeline::retrain: buffer must hold both classes");
  // Balanced training set, as in §VI-B.
  Rng rng(config_.training_seed + labeled_seizures_);
  const ml::Dataset balanced = ml::balance_classes(buffer_, rng);
  detector_.fit(balanced, config_.training_seed);
}

MonitoringOutcome SelfLearningPipeline::monitor(
    const signal::EegRecord& record) {
  MonitoringOutcome outcome;
  if (detector_.is_fitted() && detector_.raises_alarm(record)) {
    outcome.alarm_raised = true;
    return outcome;  // caregivers alerted; nothing to learn
  }
  // Missed seizure: the patient recovers and presses the button.
  outcome.patient_triggered = true;
  outcome.label = on_patient_trigger(record);
  return outcome;
}

}  // namespace esl::core
