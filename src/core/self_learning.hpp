// The self-learning methodology (Fig. 1, §III).
//
// Temporal scenario: the wearable continuously monitors the patient. When
// a seizure is missed by the (initially untrained) real-time detector, the
// patient recovers within the hour and presses the button; the last hour
// of signal is labeled a posteriori by Algorithm 1 and appended to the
// personal training set; the real-time detector is retrained. With every
// missed seizure the detector becomes more robust.
#pragma once

#include <vector>

#include "core/aposteriori.hpp"
#include "core/realtime_detector.hpp"
#include "features/paper_features.hpp"
#include "signal/eeg_record.hpp"

namespace esl::core {

/// Window geometry of Algorithm 1's 10-feature windows (§III-A: 4 s
/// windows, 75 % overlap).
inline constexpr Seconds k_labeling_window_seconds = 4.0;
inline constexpr Real k_labeling_overlap = 0.75;

/// Pipeline configuration.
struct SelfLearningConfig {
  APosterioriConfig labeling;
  RealtimeConfig realtime;
  /// The expert-provided average seizure length of the patient (W).
  Seconds average_seizure_duration_s = 60.0;
  /// Retrain after every labeled seizure (true) or only on demand.
  bool retrain_on_label = true;
  std::uint64_t training_seed = 7;
};

/// What happened when one record was pushed through the pipeline.
struct MonitoringOutcome {
  bool alarm_raised = false;     // detector fired during the record
  bool patient_triggered = false;  // missed seizure -> button press
  signal::Interval label{};      // a-posteriori label (if triggered)
};

/// Orchestrates labeling, training-buffer management and retraining.
class SelfLearningPipeline {
 public:
  explicit SelfLearningPipeline(SelfLearningConfig config = {});

  /// Patient button press after a missed seizure, from windows already
  /// extracted over the "last hour of signal": runs Algorithm 1 on
  /// `paper_windows` (the 10 paper features, k_labeling_* geometry),
  /// stores `eglass_windows` (the detector's e-Glass rows, config().realtime
  /// geometry) labeled against the result in the training buffer and
  /// (optionally) retrains. Both share one time origin. Returns the label.
  signal::Interval on_patient_trigger(
      const features::WindowedFeatures& paper_windows,
      const features::WindowedFeatures& eglass_windows);

  /// The same from a record: extracts both window sets from it, then
  /// labels and learns as above.
  signal::Interval on_patient_trigger(const signal::EegRecord& record);

  /// Adds seizure-free data to the training buffer (negatives).
  void add_background_record(const signal::EegRecord& record);

  /// Retrains the real-time detector from the current buffer. Requires at
  /// least one labeled seizure and some background data.
  void retrain();

  /// Full monitoring step for a record that truly contains a seizure:
  /// if the current detector raises an alarm the record passes through;
  /// otherwise the patient triggers and the record is labeled + learned.
  MonitoringOutcome monitor(const signal::EegRecord& record);

  /// Number of seizures labeled so far.
  std::size_t labeled_seizures() const { return labeled_seizures_; }
  bool detector_ready() const { return detector_.is_fitted(); }
  const RealtimeDetector& detector() const { return detector_; }
  const SelfLearningConfig& config() const { return config_; }

 private:
  SelfLearningConfig config_;
  APosterioriDetector labeler_;
  RealtimeDetector detector_;
  ml::Dataset buffer_;
  std::size_t labeled_seizures_ = 0;
};

}  // namespace esl::core
