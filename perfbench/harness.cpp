#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include "common/error.hpp"
#include "core/realtime_detector.hpp"
#include "engine/engine.hpp"
#include "ml/dataset.hpp"

namespace perfbench {

using namespace esl;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

namespace {

/// Percentile of a time-ordered sample, read as the median over up to 5
/// consecutive segments that each hold at least `support` samples (a
/// burst of host noise then moves one segment, not the reading); over
/// the whole sample when fewer than 3 segments fit. A note is printed
/// when even the whole sample is below `support`.
double steady_percentile(const char* metric, const std::vector<double>& values,
                         double q, std::size_t support) {
  if (values.size() < support) {
    std::printf("note: %s read over %zu samples (fewer than the %zu its "
                "percentile needs)\n",
                metric, values.size(), support);
  }
  const std::size_t segments = std::min<std::size_t>(5, values.size() / support);
  if (segments < 3) {
    return percentile(values, q);
  }
  std::vector<double> readings;
  const std::size_t size = values.size() / segments;
  for (std::size_t k = 0; k < segments; ++k) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(k * size);
    readings.push_back(percentile(
        std::vector<double>(first, first + static_cast<std::ptrdiff_t>(size)), q));
  }
  return percentile(readings, 0.5);
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const EndToEnd& s) {
  // Tails are gated at p90 of the per-window latencies only: on a shared
  // 4-vCPU host the p99s (spread 0.2 to over 1 of the median across runs)
  // and the per-round p90 (+30% between quiet and busy hours of the host)
  // move with host stalls more than any usable regression bound allows.
  // They are still printed.
  const auto read = [](const char* name, const std::vector<double>& v,
                       double q) {
    // 100 samples per segment leave 10 beyond a p90.
    return Metric{name, steady_percentile(name, v, q, 100), "ms"};
  };
  std::printf("tails (printed, not gated): round_ms_p90 %.4f round_ms_p99 "
              "%.4f detect_ms_p99 %.4f open_ms_p99 %.4f\n",
              steady_percentile("round_ms_p90", s.round_ms, 0.9, 100),
              percentile(s.round_ms, 0.99), percentile(s.detect_ms, 0.99),
              percentile(s.open_ms, 0.99));
  const double on_time =
      s.expected_windows == 0 ? 0.0
                              : static_cast<double>(s.on_time_windows) /
                                    static_cast<double>(s.expected_windows);
  return {
      {"setup_s", percentile(s.setup_s, 0.5), "s"},
      {"windows_per_s",
       s.measured_s > 0.0 ? static_cast<double>(s.windows) / s.measured_s : 0.0,
       "windows/s"},
      read("round_ms_p50", s.round_ms, 0.5),
      read("detect_ms_p50", s.detect_ms, 0.5),
      read("detect_ms_p90", s.detect_ms, 0.9),
      {"on_time_ratio", on_time, "fraction"},
      read("open_ms_p50", s.open_ms, 0.5),
      read("open_ms_p90", s.open_ms, 0.9),
      read("relearn_ms_p50", s.relearn_ms, 0.5),
      read("relearn_ms_p90", s.relearn_ms, 0.9),
      {"rss_mb", peak_rss_mb(), "MiB"},
  };
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ull;
  }
}

// ---------------------------------------------------------------- inputs

std::vector<SeizureRecord> seizure_records(const sim::CohortSimulator& sim,
                                           std::size_t count,
                                           Seconds duration_s,
                                           std::uint64_t noise_base) {
  const std::vector<sim::SeizureEvent>& events = sim.events();
  // A fixed generator places the seizure inside each record; the seed
  // reaches the inputs only through the simulator's cohort.
  Rng layout(0x5EEDull + noise_base);
  std::vector<SeizureRecord> out;
  // Stride 7 is coprime with the 45 events, so consecutive records come
  // from different patients and every event is visited once.
  for (std::size_t i = 0; i < events.size() && out.size() < count; ++i) {
    const sim::SeizureEvent& event =
        events[(noise_base + i * 7) % events.size()];
    if (event.has_artifact) {
      continue;  // the artifact lead does not fit a short record
    }
    sim::RecordSpec spec;
    try {
      spec = sim.sample_record_spec(event, layout, duration_s, duration_s);
    } catch (const esl::InvalidArgument&) {
      continue;  // seizure plus post-ictal tail too long for the record
    }
    out.push_back({sim.synthesize(event, spec, noise_base + i),
                   sim.average_seizure_duration(event.patient_index)});
  }
  if (out.size() < count) {
    throw std::runtime_error("perfbench: not enough seizure events fit");
  }
  return out;
}

std::vector<std::span<const Real>> record_chunk(const signal::EegRecord& record,
                                                std::size_t offset,
                                                std::size_t count) {
  std::vector<std::span<const Real>> views;
  for (std::size_t c = 0; c < record.channel_count(); ++c) {
    views.push_back(
        std::span<const Real>(record.channel(c).samples).subspan(offset, count));
  }
  return views;
}

Tape::Tape(const std::vector<const signal::EegRecord*>& records) {
  sample_rate_hz_ = records.front()->sample_rate_hz();
  per_second_ = static_cast<std::size_t>(sample_rate_hz_);
  channels_.resize(2);
  for (const signal::EegRecord* record : records) {
    if (record->length_samples() % per_second_ != 0) {
      throw std::runtime_error("perfbench: tape records must be whole seconds");
    }
    for (std::size_t c = 0; c < channels_.size(); ++c) {
      const RealVector& samples = record->channel(c).samples;
      channels_[c].insert(channels_[c].end(), samples.begin(), samples.end());
    }
  }
  seconds_ = channels_[0].size() / per_second_;
  for (RealVector& channel : channels_) {
    channel.insert(channel.end(), channel.begin(),
                   channel.begin() + static_cast<std::ptrdiff_t>(4 * per_second_));
  }
}

std::vector<std::span<const Real>> Tape::chunk(std::size_t offset,
                                               std::size_t count) const {
  offset %= seconds_ * per_second_;
  std::vector<std::span<const Real>> views;
  for (const RealVector& channel : channels_) {
    views.push_back(std::span<const Real>(channel).subspan(offset, count));
  }
  return views;
}

std::vector<std::span<const Real>> Tape::window(std::size_t second) const {
  return chunk((second % seconds_) * per_second_, 4 * per_second_);
}

void Tape::digest(Digest& digest) const {
  for (const RealVector& channel : channels_) {
    digest.bytes(channel.data(), channel.size() * sizeof(Real));
  }
}

std::shared_ptr<core::RealtimeDetector> fit_fleet_model(
    const sim::CohortSimulator& sim) {
  ml::Dataset train;
  for (const SeizureRecord& s : seizure_records(sim, 3, 300.0, 9000)) {
    train.append(core::build_window_dataset(s.record, s.record.seizures()));
  }
  train.append(core::build_window_dataset(
      sim.synthesize_background_record(0, 300.0, 9100), {}));
  Rng rng(1);
  auto detector = std::make_shared<core::RealtimeDetector>();
  detector->fit(ml::balance_classes(train, rng), 7);
  return detector;
}

StreamWorld make_stream_world(std::uint64_t seed) {
  const sim::CohortSimulator sim(seed);
  const std::vector<SeizureRecord> seizures =
      seizure_records(sim, 6, 300.0, 100);
  const signal::EegRecord background_a =
      sim.synthesize_background_record(1, 300.0, 200);
  const signal::EegRecord background_b =
      sim.synthesize_background_record(5, 300.0, 201);
  const std::vector<const signal::EegRecord*> order = {
      &seizures[0].record, &seizures[1].record, &background_a,
      &seizures[2].record, &seizures[3].record, &background_b,
      &seizures[4].record, &seizures[5].record};
  StreamWorld world;
  world.tape = std::make_unique<Tape>(order);
  world.fleet = fit_fleet_model(sim);
  return world;
}

// ------------------------------------------------- correctness reference

TapeReference::TapeReference(
    const Tape& tape, std::shared_ptr<const core::RealtimeDetector> model,
    const engine::SessionConfig& config)
    : labels_(tape.seconds(), 0), alarm_consecutive_(config.alarm_consecutive) {
  engine::Engine reference(std::move(model));
  const std::uint64_t id = reference.add_session(config);
  const std::size_t per_second = tape.samples_per_second();
  std::size_t run = 0;
  std::vector<engine::Detection> detections;
  const auto drain = [&] {
    detections.clear();
    reference.poll_into(detections);
    for (const engine::Detection& d : detections) {
      labels_.at(d.window_index) = static_cast<std::uint8_t>(d.label);
      run = d.label == 1 ? run + 1 : 0;
      rule_drift_ += (run == alarm_consecutive_) != d.alarm ? 1 : 0;
    }
  };
  // Stream one full cycle plus the 3 s that complete the last windows.
  for (std::size_t second = 0; second < tape.seconds() + 3; ++second) {
    reference.ingest(id, tape.chunk(second * per_second, per_second));
    if (second % 256 == 255) {
      drain();
    }
  }
  drain();
}

std::uint64_t TapeReference::check(std::size_t phase, std::size_t expected,
                                   std::span<const Observed> observed) const {
  std::vector<std::uint8_t> expected_alarm(expected, 0);
  std::size_t run = 0;
  for (std::size_t w = 0; w < expected; ++w) {
    run = label_at(phase + w) == 1 ? run + 1 : 0;
    expected_alarm[w] = run == alarm_consecutive_ ? 1 : 0;
  }
  std::vector<std::uint8_t> seen(expected, 0);
  std::uint64_t failures = 0;
  std::int64_t previous = -1;
  for (const Observed& o : observed) {
    if (static_cast<std::int64_t>(o.window) <= previous) {
      ++failures;  // out of window order
    }
    previous = o.window;
    if (o.window >= expected || seen[o.window] != 0) {
      ++failures;  // extra or duplicate
      continue;
    }
    seen[o.window] = 1;
    if (o.label != label_at(phase + o.window) ||
        o.alarm != expected_alarm[o.window]) {
      ++failures;
    }
  }
  failures += static_cast<std::uint64_t>(
      std::count(seen.begin(), seen.end(), std::uint8_t{0}));
  return failures;
}

bool TapeReference::self_test(std::size_t phase, std::size_t expected,
                              std::span<const Observed> observed) const {
  if (observed.empty()) {
    return false;
  }
  const std::uint64_t base = check(phase, expected, observed);
  const std::size_t middle = observed.size() / 2;
  std::vector<Observed> flipped(observed.begin(), observed.end());
  flipped[middle].label ^= 1;
  std::vector<Observed> dropped(observed.begin(), observed.end());
  dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(middle));
  return check(phase, expected, flipped) > base &&
         check(phase, expected, dropped) > base;
}

// ----------------------------------------------------------------- trace

std::size_t Tracer::begin(const char* name, std::uint64_t request) {
  const std::size_t index = spans_.size();
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ns = now_ns();
  spans_.push_back(span);
  open_.push_back(static_cast<std::int32_t>(index));
  return index;
}

void Tracer::end(std::size_t index) {
  spans_[index].end_ns = now_ns();
  open_.pop_back();
}

void FeatureReplay::add(const std::vector<std::span<const Real>>& window,
                        Real sample_rate_hz, std::uint64_t request,
                        Tracer* tracer) {
  {
    Scope span(tracer, "features.eglass", request);
    extractor_.extract_into(window, sample_rate_hz, row_, workspace_);
  }
  batch_.append_row(row_);
  for (const std::span<const Real>& channel : window) {
    {
      Scope span(tracer, "dsp.periodogram", request);
      dsp::periodogram_into(channel, sample_rate_hz, workspace_, workspace_.psd);
    }
    Scope span(tracer, "dsp.wavedec", request);
    dsp::wavedec_into(channel, db4_, 7, workspace_, workspace_.decomposition,
                      dsp::ExtensionMode::kPeriodic);
  }
}

const std::vector<int>& FeatureReplay::predict(const ml::InferenceModel& model,
                                               std::uint64_t request,
                                               Tracer* tracer) {
  predicted_rows_ += batch_.rows();
  {
    Scope span(tracer, "ml.predict", request);
    model.predict_into(batch_, proba_, labels_);
  }
  batch_.clear_rows();
  return labels_;
}

namespace {

struct LayerStat {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

bool is_layer(const std::string& name) {
  static const char* const k_layers[] = {"engine.", "features.", "dsp.",
                                         "ml.",     "net.",      "core.",
                                         "signal."};
  for (const char* prefix : k_layers) {
    if (name.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

struct PerLayerSpec {
  const char* name;
  const char* unit;
};

// The per-layer metrics, in report order, with their units.
constexpr PerLayerSpec k_per_layer[] = {
    {"features.eglass_us_per_window", "us"},
    {"dsp.periodogram_us_per_channel", "us"},
    {"dsp.wavedec_us_per_channel", "us"},
    {"engine.ingest_us_per_window", "us"},
    {"trace.unattributed_us_per_window", "us"},
    {"engine.ingest_s", "s"},
    {"engine.ingest_calls", "count"},
    {"engine.flush_s", "s"},
    {"engine.flush_calls", "count"},
    {"engine.windows", "count"},
    {"engine.batches", "count"},
    {"engine.batch_rows_mean", "rows"},
    {"engine.poll_us_per_window", "us"},
    {"ml.predict_ns_per_row", "ns"},
    {"net.rtt_ms_p50", "ms"},
    {"net.flush_ms_mean", "ms"},
    {"net.bytes_per_window", "bytes"},
    {"net.encode_us_per_chunk", "us"},
    {"net.decode_us_per_chunk", "us"},
    {"engine.create_ms_mean", "ms"},
    {"engine.close_ms_mean", "ms"},
    {"core.aposteriori_ms_mean", "ms"},
    {"core.window_dataset_ms_mean", "ms"},
    {"features.paper_us_per_window", "us"},
    {"signal.history_record_ms_mean", "ms"},
    {"ml.fit_ms_mean", "ms"},
    {"ml.compile_ms_mean", "ms"},
    {"engine.swap_ms_mean", "ms"},
    {"load.lag_ms_p99", "ms"},
    {"load.offered_wps", "windows/s"},
    {"trace.coverage", "fraction"},
    {"trace.overhead", "fraction"},
    {"baseline.inline_windows_per_s", "windows/s"},
};

double per(double total, std::uint64_t count) {
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

}  // namespace

std::vector<Metric> trace_metrics(const Options& options, const Tracer& tracer,
                                  const TraceInputs& in) {
  const std::vector<Tracer::Span>& spans = tracer.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Tracer::Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, LayerStat> layers;
  std::vector<double> rtt_ms;
  std::int64_t top_level_ns = 0;
  std::int64_t replay_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& span = spans[i];
    const std::int64_t duration = span.end_ns - span.start_ns;
    LayerStat& stat = layers[span.name];
    ++stat.count;
    stat.total_ns += duration;
    stat.self_ns += duration - child_ns[i];
    if (span.parent < 0) {
      top_level_ns += duration;
    }
    if (std::string_view(span.name) == "bench.replay") {
      replay_ns += duration;
    }
    if (std::string_view(span.name) == "net.rtt") {
      rtt_ms.push_back(ms_of(duration));
    }
  }
  const auto stat = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? LayerStat{} : it->second;
  };
  const auto mean_us = [&](const char* name) {
    const LayerStat s = stat(name);
    return per(static_cast<double>(s.total_ns) / 1e3, s.count);
  };
  const auto mean_ms = [&](const char* name) { return mean_us(name) / 1e3; };

  std::int64_t layer_self_ns = 0;
  for (const auto& [name, s] : layers) {
    if (is_layer(name)) {
      layer_self_ns += s.self_ns;
    }
  }
  const double wall = static_cast<double>(std::max<std::int64_t>(1, in.traced_wall_ns));
  const double coverage = static_cast<double>(layer_self_ns) / wall;
  const double overhead =
      in.untraced_wall_ns > 0
          ? static_cast<double>(in.traced_wall_ns - replay_ns) /
                    static_cast<double>(in.untraced_wall_ns) -
                1.0
          : 0.0;

  std::map<std::string, double> v;
  v["features.eglass_us_per_window"] = mean_us("features.eglass");
  v["dsp.periodogram_us_per_channel"] = mean_us("dsp.periodogram");
  v["dsp.wavedec_us_per_channel"] = mean_us("dsp.wavedec");
  const LayerStat ingest = stat("engine.ingest");
  const LayerStat flush = stat("engine.flush");
  v["engine.ingest_us_per_window"] =
      per(static_cast<double>(ingest.total_ns) / 1e3, in.windows);
  v["trace.unattributed_us_per_window"] =
      v["engine.ingest_us_per_window"] - v["features.eglass_us_per_window"];
  v["engine.ingest_s"] = static_cast<double>(ingest.total_ns) / 1e9;
  v["engine.ingest_calls"] = static_cast<double>(ingest.count);
  v["engine.flush_s"] = static_cast<double>(flush.total_ns) / 1e9;
  v["engine.flush_calls"] = static_cast<double>(flush.count);
  v["engine.windows"] = static_cast<double>(in.windows);
  v["engine.batches"] = static_cast<double>(in.batches);
  v["engine.batch_rows_mean"] =
      per(static_cast<double>(in.forest_rows), in.batches);
  v["engine.poll_us_per_window"] =
      per(static_cast<double>(flush.total_ns) / 1e3, in.windows);
  v["ml.predict_ns_per_row"] =
      per(static_cast<double>(stat("ml.predict").total_ns), in.predicted_rows);
  v["net.rtt_ms_p50"] = percentile(rtt_ms, 0.5);
  v["net.flush_ms_mean"] = in.net_flush_ms_mean;
  v["net.bytes_per_window"] = in.net_bytes_per_window;
  v["net.encode_us_per_chunk"] = mean_us("net.encode");
  v["net.decode_us_per_chunk"] = mean_us("net.decode");
  v["engine.create_ms_mean"] = mean_ms("engine.create");
  v["engine.close_ms_mean"] = mean_ms("engine.close");
  v["core.aposteriori_ms_mean"] = mean_ms("core.aposteriori");
  v["core.window_dataset_ms_mean"] = mean_ms("core.window_dataset");
  v["features.paper_us_per_window"] = per(
      static_cast<double>(stat("features.paper").total_ns) / 1e3,
      in.paper_windows);
  v["signal.history_record_ms_mean"] = mean_ms("signal.history_record");
  v["ml.fit_ms_mean"] = mean_ms("ml.fit");
  v["ml.compile_ms_mean"] = mean_ms("ml.compile");
  v["engine.swap_ms_mean"] = mean_ms("engine.swap");
  v["load.lag_ms_p99"] = in.load_lag_ms_p99;
  v["load.offered_wps"] = in.load_offered_wps;
  v["trace.coverage"] = coverage;
  v["trace.overhead"] = overhead;
  v["baseline.inline_windows_per_s"] = in.baseline_windows_per_s;

  // Per-layer table: every span name with its call count, total and
  // self time, and self time as a share of the traced wall time.
  std::printf("trace: %zu spans over %.1f ms traced wall (%s, seed %llu)\n",
              spans.size(), wall / 1e6, options.workload.c_str(),
              static_cast<unsigned long long>(options.seed));
  std::printf("  %-24s %9s %11s %11s %10s %7s\n", "span", "calls", "total_ms",
              "self_ms", "mean_us", "self%");
  for (const auto& [name, s] : layers) {
    std::printf("  %-24s %9llu %11.2f %11.2f %10.2f %6.1f%%\n", name.c_str(),
                static_cast<unsigned long long>(s.count),
                static_cast<double>(s.total_ns) / 1e6,
                static_cast<double>(s.self_ns) / 1e6,
                per(static_cast<double>(s.total_ns) / 1e3, s.count),
                100.0 * static_cast<double>(s.self_ns) / wall);
  }
  std::printf("trace.coverage %.4f  trace.overhead %.4f\n", coverage, overhead);
  if (coverage < 0.9) {
    // Say where the time outside layer spans went instead of hiding it.
    std::printf("coverage below 0.90; unattributed time:\n");
    for (const auto& [name, s] : layers) {
      if (!is_layer(name)) {
        std::printf("  %-24s self %.2f ms (%.1f%% of wall)\n", name.c_str(),
                    static_cast<double>(s.self_ns) / 1e6,
                    100.0 * static_cast<double>(s.self_ns) / wall);
      }
    }
    const double outside = wall - static_cast<double>(top_level_ns);
    std::printf("  %-24s %.2f ms (%.1f%% of wall)\n", "(outside any span)",
                outside / 1e6, 100.0 * outside / wall);
  }

  const std::string path = options.out_dir + "/trace_" + options.workload +
                            "_seed" + std::to_string(options.seed) + ".csv";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "name,start_ns,end_ns,parent,request\n");
    const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    for (const Tracer::Span& span : spans) {
      std::fprintf(f, "%s,%lld,%lld,%d,%llu\n", span.name,
                   static_cast<long long>(span.start_ns - origin),
                   static_cast<long long>(span.end_ns - origin), span.parent,
                   static_cast<unsigned long long>(span.request));
    }
    std::fclose(f);
    std::printf("trace: spans written to %s\n", path.c_str());
  } else {
    std::printf("trace: could not write %s\n", path.c_str());
  }

  std::vector<Metric> metrics;
  for (const PerLayerSpec& spec : k_per_layer) {
    metrics.push_back({spec.name, v.at(spec.name), spec.unit});
  }
  return metrics;
}

// ----------------------------------------------------------------- stamp

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string stamp_json(const Options& options) {
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) != 0) {
    host[0] = '\0';
  }
  std::string out = "{";
  const auto field = [&](const char* key, const std::string& value,
                         bool last = false) {
    out += "\"";
    out += key;
    out += "\": \"";
    out += json_escape(value);
    out += last ? "\"" : "\", ";
  };
  field("host", host);
  field("nproc", std::to_string(std::thread::hardware_concurrency()));
  field("cpu", cpu_model());
  field("compiler", PERFBENCH_COMPILER);
  field("flags", PERFBENCH_FLAGS);
  field("build_type", PERFBENCH_BUILD_TYPE);
  field("esl_native", PERFBENCH_NATIVE);
  field("commit", options.commit, true);
  out += "}";
  return out;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
