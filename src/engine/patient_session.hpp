// One monitored patient inside the streaming engine.
//
// A PatientSession ingests raw EEG in arbitrary-size chunks (from a radio
// packet, a file reader, a socket — the engine does not care), runs the
// incremental sliding-window extractor over per-channel ring buffers, and
// parks the resulting raw e-Glass feature rows in a pending matrix that
// the Engine drains into batched inference. The session keeps only
// stream state; the DSP scratch each window needs comes from the
// dsp::Workspace passed to ingest() — the Engine's one workspace, shared
// by all its sessions — so a warm ingest -> extract -> pending ->
// clear_pending cycle performs zero heap allocations end to end (see the
// engine ZeroAllocation suite), and a new session needs no warm-up of
// its own. The Engine is driven by one thread at a time, so the shared
// workspace is never used concurrently. It also owns the per-patient
// post-processing state (consecutive-positive alarm runs) and, optionally,
// a retrospective history so a patient button press can label and learn
// from the "last hour of signal" (see "Retrospective history" below).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "dsp/workspace.hpp"
#include "features/extractor.hpp"
#include "features/streaming.hpp"
#include "signal/eeg_record.hpp"
#include "signal/sample_ring.hpp"

namespace esl::engine {

/// Per-session stream geometry and post-processing knobs.
struct SessionConfig {
  Real sample_rate_hz = 256.0;
  Seconds window_seconds = 4.0;
  Real overlap = 0.75;
  /// Consecutive positive windows required to raise an alarm (§III-C
  /// post-processing; RealtimeDetector::raises_alarm uses the same rule).
  std::size_t alarm_consecutive = 3;
  /// Length of the retrospective history used for a-posteriori labeling
  /// on patient trigger ("the last hour"). 0 disables it, and the session
  /// then allocates neither the sample history nor the row ring.
  Seconds history_seconds = 0.0;
  /// Model policy, read by the Engine: when false the session never uses
  /// the shared fleet detector and stays cold until its own self-learning
  /// pipeline trains a personal one (the paper's patient-specific
  /// scenario, §III).
  bool use_fleet_model = true;
};

/// Throws InvalidArgument unless `config` describes a usable stream:
/// positive sample rate and window length, overlap in [0, 1),
/// alarm_consecutive >= 1, history_seconds >= 0. Engine::add_session and
/// DetectionService::create_session validate through this so bad
/// geometry is rejected up front instead of failing deep inside the
/// windowing path.
void validate(const SessionConfig& config);

/// Chunked ingest -> incremental windowing -> pending feature rows.
class PatientSession final : private features::WindowSink {
 public:
  /// `extractor` must outlive the session (the engine owns one shared
  /// extractor; sessions borrow it).
  PatientSession(std::uint64_t id,
                 const features::WindowFeatureExtractor& extractor,
                 const SessionConfig& config);

  std::uint64_t id() const { return id_; }
  const SessionConfig& config() const { return config_; }

  /// Feeds one chunk (one span per channel, equal lengths, any size).
  /// Completed windows are computed in `workspace` and accumulate as rows
  /// of pending(). Returns the number of windows completed by this chunk.
  std::size_t ingest(const std::vector<std::span<const Real>>& chunk,
                     dsp::Workspace& workspace);

  /// Raw (unscaled) feature rows awaiting inference, in window order.
  const Matrix& pending() const { return pending_; }
  /// Global window index of each pending row.
  const std::vector<std::size_t>& pending_window_indices() const {
    return pending_indices_;
  }
  /// Drops the pending rows after the engine consumed them; storage
  /// capacity is retained so steady-state ingest does not allocate.
  void clear_pending();

  /// Windows emitted since the stream started.
  std::size_t windows_emitted() const { return streaming_.emitted(); }
  /// Stream time (seconds) of the start of window `window_index`.
  Seconds window_start_s(std::size_t window_index) const;
  /// Samples currently buffered toward the next window.
  std::size_t buffered_samples() const { return streaming_.buffered(); }

  /// Feeds one classified window into the alarm post-processing, in
  /// window order. Returns true when this window completes a run of
  /// config().alarm_consecutive positive windows (an alarm).
  bool observe_label(int label);
  /// Alarms raised so far.
  std::size_t alarms() const { return alarms_; }

  // ------------------------------------------------ retrospective history
  // A history-enabled session keeps two rings, both allocated at open and
  // overwritten in place once full:
  //  * the raw samples of the last history_seconds, per channel; and
  //  * the row ring: the e-Glass rows of the last
  //    floor((history - window) / hop) + 1 streamed windows, i.e. every
  //    streamed window that can lie wholly inside the sample history.
  // The row ring costs one feature row per hop: 108 doubles (864 B) at the
  // e-Glass width, about +21 % over the sample history at 2 channels x
  // 256 Hz with a 1 s hop (4 KiB of samples per hop). Its storage is
  // reserved, not touched, at open, so both rings take pages only as the
  // stream fills them.

  bool history_enabled() const { return !history_.empty(); }
  /// Seconds of signal currently held in the history ring.
  Seconds history_buffered_s() const;
  /// Materializes the retrospective history as an EegRecord (wearable
  /// montage labels) for a-posteriori labeling. Requires history_enabled()
  /// and at least one buffered window's worth of signal.
  signal::EegRecord history_record(const std::string& record_id = "") const;

  /// Runs `extractor` over the sample history with the window plan of
  /// (window_seconds, overlap), reading each window straight from the
  /// history ring into `workspace.windows`: bit-identical to
  /// extract_windowed_features(history_record(), extractor,
  /// window_seconds, overlap) without materializing the record. Requires
  /// history_enabled() and at least one such window buffered.
  features::WindowedFeatures history_features(
      const features::WindowFeatureExtractor& extractor,
      Seconds window_seconds, Real overlap, dsp::Workspace& workspace) const;

  /// The e-Glass rows this session streamed for the windows lying wholly
  /// inside the sample history, oldest first, from the row ring (nothing
  /// is re-extracted). Start times are relative to the history start,
  /// like history_record()'s. While the dropped samples are a whole
  /// number of hops (always, with chunks of whole hops), these are
  /// exactly the windows of extract_windowed_features(history_record(),
  /// ...) and, by the streaming = offline parity, the same rows. When the
  /// history starts mid-hop they are still the streamed windows: the
  /// first starts at the first hop boundary inside the history, so the
  /// starts are offset from multiples of the hop. Requires
  /// history_enabled().
  features::WindowedFeatures history_windows() const;

 private:
  void on_window(std::size_t index, Seconds start_s,
                 std::span<const Real> row) override;

  std::uint64_t id_;
  SessionConfig config_;
  features::StreamingExtractor streaming_;
  Matrix pending_;
  std::vector<std::size_t> pending_indices_;
  std::vector<signal::SampleRing> history_;  // empty when disabled
  // Row ring: streamed window w lives in row w % row_capacity_. Appended
  // until full, then overwritten in place; row_capacity_ == 0 (and no
  // storage) when the history is disabled.
  Matrix rows_;
  std::size_t row_capacity_ = 0;
  std::size_t alarm_run_ = 0;
  std::size_t alarms_ = 0;
};

}  // namespace esl::engine
