#include "engine/engine.hpp"

#include "common/error.hpp"

namespace esl::engine {

Engine::Engine(std::shared_ptr<const core::RealtimeDetector> fleet_model,
               EngineConfig config)
    : fleet_(std::move(fleet_model)), config_(config), extractor_(2) {
  if (config_.screening.has_value()) {
    expects(config_.screening->feature < extractor_.feature_count(),
            "Engine: screening feature out of range");
  }
}

std::uint64_t Engine::add_session() { return add_session(config_.session); }

std::uint64_t Engine::add_session(const SessionConfig& config) {
  // validate(config) runs inside the PatientSession constructor, before
  // any state exists — a rejected config leaves the engine untouched.
  const auto id = static_cast<std::uint64_t>(slots_.size());
  Slot s;
  s.session = std::make_unique<PatientSession>(id, extractor_, config);
  s.model = config.use_fleet_model ? fleet_model() : nullptr;
  slots_.push_back(std::move(s));
  return id;
}

void Engine::pop_session(std::uint64_t id) {
  expects(id + 1 == slots_.size(),
          "Engine: pop_session must name the most recently added session");
  slots_.pop_back();
}

void Engine::remove_session(std::uint64_t id) {
  Slot& s = live_slot(id);
  // Tombstone: the slot stays (ids are indices and are never reused),
  // its state goes. Pending windows die with the session.
  s.session.reset();
  s.pipeline.reset();
  s.model.reset();
  s.override_model.reset();
}

Engine::Slot& Engine::slot(std::uint64_t id) {
  expects(id < slots_.size(), "Engine: unknown session id");
  return slots_[id];
}

const Engine::Slot& Engine::slot(std::uint64_t id) const {
  expects(id < slots_.size(), "Engine: unknown session id");
  return slots_[id];
}

Engine::Slot& Engine::live_slot(std::uint64_t id) {
  Slot& s = slot(id);
  expects(s.session != nullptr, "Engine: session was closed");
  return s;
}

const Engine::Slot& Engine::live_slot(std::uint64_t id) const {
  const Slot& s = slot(id);
  expects(s.session != nullptr, "Engine: session was closed");
  return s;
}

PatientSession& Engine::session(std::uint64_t id) {
  return *live_slot(id).session;
}

const PatientSession& Engine::session(std::uint64_t id) const {
  return *live_slot(id).session;
}

std::size_t Engine::ingest(std::uint64_t id,
                           const std::vector<std::span<const Real>>& chunk) {
  Slot& s = slot(id);
  if (s.session == nullptr) {
    // Chunks queued before a close silently drain away; see the header.
    return 0;
  }
  return s.session->ingest(chunk, workspace_);
}

std::shared_ptr<const ml::InferenceModel> Engine::fleet_model() const {
  // model() is nullptr until the detector is fitted. Fitting the fleet
  // detector after construction is fine on a single-threaded Engine (it
  // serves from the next poll) but is a data race while shard workers
  // poll — with a running service, deploy mid-stream via swap_model.
  return fleet_ ? fleet_->model() : nullptr;
}

void Engine::refresh_model(Slot& s) const {
  if (s.override_model) {
    s.model = s.override_model;
  } else if (s.pipeline && s.pipeline->detector_ready()) {
    s.model = s.pipeline->detector().model();
  } else {
    s.model = s.session->config().use_fleet_model ? fleet_model() : nullptr;
  }
}

void Engine::classify_group(const ml::InferenceModel* model) {
  batch_.clear_rows();
  batch_src_.clear();
  const bool fitted = model != nullptr;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    // Tombstones first: a closed slot's null model would otherwise join
    // the unfitted (nullptr) group.
    if (slots_[i].session == nullptr || slots_[i].model.get() != model) {
      continue;
    }
    const Matrix& pending = slots_[i].session->pending();
    for (std::size_t r = 0; r < pending.rows(); ++r) {
      if (config_.screening.has_value() &&
          pending(r, config_.screening->feature) <
              config_.screening->threshold) {
        screened_[i][r] = 1;        // label stays 0; the forest never runs
        ++stats_.screened_windows;
        continue;
      }
      if (!fitted) {
        ++stats_.unmodeled_windows;  // cold start: pass through as 0
        continue;
      }
      batch_.append_row(pending.row(r));
      batch_src_.emplace_back(i, r);
    }
  }
  if (batch_.rows() == 0) {
    return;
  }
  // One batched inference pass (scale + classify inside the model) over
  // the whole group's ready windows.
  model->predict_into(batch_, proba_scratch_, predicted_scratch_);
  ++stats_.batches;
  stats_.forest_windows += predicted_scratch_.size();
  for (std::size_t k = 0; k < predicted_scratch_.size(); ++k) {
    labels_[batch_src_[k].first][batch_src_[k].second] = predicted_scratch_[k];
  }
}

std::vector<Detection> Engine::poll() {
  std::vector<Detection> out;
  poll_into(out);
  return out;
}

void Engine::poll_into(std::vector<Detection>& out) {
  ++stats_.polls;

  // Refresh each session's effective model (override > pipeline >
  // fleet) so mid-stream fits and swaps take effect this poll.
  // Tombstoned (closed) slots are skipped throughout.
  for (auto& s : slots_) {
    if (s.session != nullptr) {
      refresh_model(s);
    }
  }

  labels_.resize(slots_.size());
  screened_.resize(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const std::size_t rows =
        slots_[i].session != nullptr ? slots_[i].session->pending().rows() : 0;
    labels_[i].assign(rows, 0);
    screened_[i].assign(rows, 0);
  }

  // One batched pass per distinct model, first-appearance order (the
  // fleet model first in the common case). The distinct count is the
  // number of personalized patients + 1, so the scan stays cheap.
  std::vector<const ml::InferenceModel*> distinct;
  for (const auto& s : slots_) {
    if (s.session == nullptr || s.session->pending().rows() == 0) {
      continue;
    }
    bool seen = false;
    for (const auto* m : distinct) {
      seen = seen || m == s.model.get();
    }
    if (!seen) {
      distinct.push_back(s.model.get());
    }
  }
  for (const auto* model : distinct) {
    classify_group(model);
  }

  // Per-session post-processing in window order: alarm run-lengths, hooks.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].session == nullptr) {
      continue;
    }
    PatientSession& session = *slots_[i].session;
    const Matrix& pending = session.pending();
    const auto& indices = session.pending_window_indices();
    for (std::size_t r = 0; r < pending.rows(); ++r) {
      Detection d;
      d.session_id = session.id();
      d.window_index = indices[r];
      d.window_start_s = session.window_start_s(indices[r]);
      d.label = labels_[i][r];
      d.screened_out = screened_[i][r] != 0;
      d.alarm = session.observe_label(d.label);
      if (d.alarm) {
        ++stats_.alarms;
        if (alarm_hook_) {
          alarm_hook_(d);
        }
      }
      out.push_back(d);
    }
    stats_.windows_classified += pending.rows();
    session.clear_pending();
  }
}

void Engine::attach_self_learning(std::uint64_t id,
                                  const core::SelfLearningConfig& config) {
  Slot& s = live_slot(id);
  expects(s.session->history_enabled(),
          "Engine::attach_self_learning: session needs history_seconds > 0 "
          "for a-posteriori labeling");
  // The personal model trains on the session's streamed rows and then
  // classifies its later ones, and Algorithm 1 labels those same
  // windows: the pipeline, the session and Algorithm 1 must share one
  // window geometry.
  const SessionConfig& session = s.session->config();
  expects(config.realtime.window_seconds == session.window_seconds &&
              config.realtime.overlap == session.overlap,
          "Engine::attach_self_learning: the pipeline's window geometry "
          "differs from the session's");
  expects(session.window_seconds == core::k_labeling_window_seconds &&
              session.overlap == core::k_labeling_overlap,
          "Engine::attach_self_learning: the session's window geometry "
          "differs from Algorithm 1's (4 s windows, 75 % overlap)");
  s.pipeline = std::make_unique<core::SelfLearningPipeline>(config);
}

bool Engine::has_self_learning(std::uint64_t id) const {
  return slot(id).pipeline != nullptr;
}

signal::Interval Engine::patient_trigger(std::uint64_t id) {
  Slot& s = live_slot(id);
  expects(s.pipeline != nullptr,
          "Engine::patient_trigger: no self-learning pipeline attached");
  // Algorithm 1 labels the streamed windows inside the history, and the
  // pipeline trains on their streamed e-Glass rows (the session's row
  // ring). Algorithm 1's band powers are columns of those rows; only the
  // F8-T4 DWT entropies are computed, from the history ring, in the
  // engine's workspace. Nothing is copied into a record and no window is
  // transformed twice. Times in the returned label are relative to the
  // start of the history (its oldest retained sample), not the whole
  // stream.
  const features::PaperFeatureExtractor paper;
  const signal::Interval label = s.pipeline->on_patient_trigger(
      s.session->history_paper_features(paper, workspace_),
      s.session->history_windows());
  // A retrain supersedes any pinned artifact: drop the override so the
  // fresh personal model takes over (re-compile + swap_model to pin a
  // flat artifact of the new fit).
  s.override_model.reset();
  refresh_model(s);
  if (label_hook_) {
    label_hook_(id, label);
  }
  return label;
}

void Engine::swap_model(std::uint64_t id,
                        std::shared_ptr<const ml::InferenceModel> model) {
  Slot& s = live_slot(id);
  s.override_model = std::move(model);
  refresh_model(s);  // effective immediately, not just at the next poll
}

std::shared_ptr<const ml::InferenceModel> Engine::session_model(
    std::uint64_t id) const {
  return slot(id).model;
}

}  // namespace esl::engine
