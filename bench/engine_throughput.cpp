// Streaming engine + service throughput.
//
// Three measurements:
//   * inference stage in isolation — N feature rows (one ready window per
//     session) classified (a) row by row with
//     RealtimeDetector::predict_row, (b) through the engine's batched
//     tree-major path, and (c) through the compiled flat artifact
//     (ml::CompiledForest). The batched win grows with N because each
//     tree's node array stays cache-hot across the batch; the compiled
//     win comes from traversing contiguous SoA arrays instead of hopping
//     nodes (build with -DESL_NATIVE=ON to let it vectorize).
//   * end-to-end single Engine — N sessions ingesting 1-second chunks
//     with a poll per round (feature extraction included).
//   * sharded DetectionService — fixed session count spread over
//     1/2/4/8 shards under the InlineBackend (caller thread) and the
//     ThreadPoolBackend (one worker per shard, bounded MPSC ingest
//     queues). On multi-core hardware the threaded backend scales with
//     shard count; on a single core it shows the queue/handoff overhead.
//
// Usage:
//   engine_throughput [--json PATH] [--sessions N] [--seconds S]
//                     [--shards CSV] [--backend inline|threads|both]
//                     [--model forest|compiled] [--artifact-dir DIR]
//                     [--serve ADDR] [--connect ADDR] [--no-wire]
//
// --model selects the artifact the end-to-end engine/service runs deploy
// to every session (compiled = swap_model with the compiled fleet
// artifact; detections are bit-identical either way).
//
// --artifact-dir enables the model-artifact stage in DIR: save latency,
// cold-mmap vs registry-cached load latency, mapped-model serving
// throughput (both traversal flavors, parity-checked against the
// in-memory compiled artifact), and the fleet redeploy numbers —
// swap-from-disk latency plus time to the first window classified after
// the swap, measured under live ThreadPoolBackend ingest.
//
// The wire stage prices the cross-process serving tier: by default a
// ShardServer is started in-process on a loopback unix socket and the
// same streaming workload is driven once through a RemoteBackend
// (every chunk crosses the socket) and once through the in-process
// ThreadPoolBackend, reporting sessions/sec (open-session round trips)
// and windows/sec for both. `--serve ADDR` instead runs only the
// server side and blocks (for cross-machine measurements); `--connect
// ADDR` runs only the client side against an external server;
// `--no-wire` skips the stage.
//
// --json writes the backend x shard-count matrix (plus the inference
// numbers, including the compiled-vs-baseline speedup, the wire
// section, and the artifact stage when enabled) as machine-readable
// JSON, e.g. BENCH_engine.json, so the perf trajectory can be tracked
// across commits.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/realtime_detector.hpp"
#include "engine/model_registry.hpp"
#include "engine/service.hpp"
#include "ml/artifact.hpp"
#include "ml/dataset.hpp"
#include "net/client.hpp"
#include "net/shard_server.hpp"
#include "sim/cohort.hpp"

namespace {

using namespace esl;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<std::span<const Real>> chunk_views(const signal::EegRecord& record,
                                               std::size_t offset,
                                               std::size_t count) {
  std::vector<std::span<const Real>> views;
  for (std::size_t c = 0; c < record.channel_count(); ++c) {
    views.push_back(
        std::span<const Real>(record.channel(c).samples).subspan(offset, count));
  }
  return views;
}

struct InferenceResult {
  double single_wps = 0.0;
  double batched_wps = 0.0;
  double compiled_wps = 0.0;
};

/// Inference-stage comparison on one poll round's worth of rows (N rows,
/// one ready window per session): per-row loop, batched node-hopping
/// interpreter, and the compiled flat artifact.
InferenceResult inference_stage(const core::RealtimeDetector& det,
                                const Matrix& rows,
                                std::size_t target_windows) {
  const std::size_t n = rows.rows();
  const std::size_t reps = std::max<std::size_t>(1, target_windows / n);

  // (a) per-window single-session loop.
  RealVector scratch;
  int sink = 0;
  auto start = Clock::now();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t r = 0; r < n; ++r) {
      sink += det.predict_row(rows.row(r), scratch);
    }
  }
  const double single_s = seconds_since(start);

  // (b) engine-style batched path: gather + in-place scale + one
  // tree-major forest pass, all through reused scratch buffers.
  Matrix batch;
  batch.reserve_rows(n, rows.cols());
  RealVector proba;
  std::vector<int> labels;
  start = Clock::now();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    batch.clear_rows();
    for (std::size_t r = 0; r < n; ++r) {
      batch.append_row(rows.row(r));
    }
    det.scale_rows_in_place(batch);
    det.forest().predict_all_into(batch, proba, labels);
    sink += labels.empty() ? 0 : labels[0];
  }
  const double batched_s = seconds_since(start);

  // (c) compiled flat artifact: same gather, scale + traversal inside
  // the model (what a swap_model-deployed session runs per poll).
  const std::shared_ptr<const ml::CompiledForest> compiled = det.compile();
  start = Clock::now();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    batch.clear_rows();
    for (std::size_t r = 0; r < n; ++r) {
      batch.append_row(rows.row(r));
    }
    compiled->predict_into(batch, proba, labels);
    sink += labels.empty() ? 0 : labels[0];
  }
  const double compiled_s = seconds_since(start);
  if (sink == -1) {
    std::printf("(unreachable checksum %d)\n", sink);  // keep calls live
  }

  const double total = static_cast<double>(reps * n);
  return {total / single_s, total / batched_s, total / compiled_s};
}

/// End-to-end single Engine: N sessions, 1 s chunks, poll per round.
/// `compiled` deploys the compiled fleet artifact to every session
/// (the --model=compiled path; detections are bit-identical).
double engine_end_to_end(
    const std::shared_ptr<const core::RealtimeDetector>& det,
    const signal::EegRecord& record, std::size_t sessions,
    Seconds stream_seconds, bool compiled) {
  engine::Engine eng(det);
  const std::shared_ptr<const ml::CompiledForest> artifact =
      compiled ? det->compile() : nullptr;
  for (std::size_t s = 0; s < sessions; ++s) {
    const std::uint64_t id = eng.add_session();
    if (artifact != nullptr) {
      eng.swap_model(id, artifact);
    }
  }
  const auto chunk = static_cast<std::size_t>(record.sample_rate_hz());
  const auto rounds = static_cast<std::size_t>(stream_seconds);
  const std::size_t length = record.length_samples();

  const auto start = Clock::now();
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t s = 0; s < sessions; ++s) {
      // Stagger sessions through the record so batches mix signal.
      const std::size_t offset = ((round + s * 37) * chunk) % (length - chunk);
      eng.ingest(s, chunk_views(record, offset, chunk));
    }
    eng.poll();
  }
  const double elapsed = seconds_since(start);
  return static_cast<double>(eng.stats().windows_classified) / elapsed;
}

/// Detections go nowhere: the bench measures the pipeline, not a consumer.
class NullSink final : public engine::DetectionSink {
 public:
  void on_detections(std::span<const engine::Detection>) override {}
};

/// End-to-end DetectionService: `sessions` hash-partitioned over
/// `shards`, 1 s chunks, one flush per round.
double service_end_to_end(
    const std::shared_ptr<const core::RealtimeDetector>& det,
    const signal::EegRecord& record, std::size_t sessions,
    std::size_t shards, bool threaded, Seconds stream_seconds,
    bool compiled) {
  engine::ServiceConfig config;
  config.shards = shards;
  std::unique_ptr<engine::ExecutionBackend> backend;
  if (threaded) {
    backend = std::make_unique<engine::ThreadPoolBackend>();
  }
  engine::DetectionService service(det, config, std::move(backend));
  NullSink sink;
  service.set_detection_sink(&sink);
  const std::shared_ptr<const ml::CompiledForest> artifact =
      compiled ? det->compile() : nullptr;
  std::vector<engine::SessionHandle> handles;
  for (std::size_t s = 0; s < sessions; ++s) {
    handles.push_back(service.create_session(s, engine::SessionConfig{}));
    if (artifact != nullptr) {
      service.swap_model(handles.back(), artifact);
    }
  }
  const auto chunk = static_cast<std::size_t>(record.sample_rate_hz());
  const auto rounds = static_cast<std::size_t>(stream_seconds);
  const std::size_t length = record.length_samples();

  const auto start = Clock::now();
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t s = 0; s < sessions; ++s) {
      const std::size_t offset = ((round + s * 37) * chunk) % (length - chunk);
      service.ingest(handles[s], chunk_views(record, offset, chunk));
    }
    service.flush();
  }
  const double elapsed = seconds_since(start);
  const double wps =
      static_cast<double>(service.stats().windows_classified) / elapsed;
  service.stop();
  return wps;
}

struct ServiceResult {
  const char* backend;
  std::size_t shards;
  double windows_per_s;
};

// ----------------------------------------------------------- wire stage

struct WireResult {
  std::size_t shards = 0;
  double wire_sessions_per_s = 0.0;    // open-session round trips
  double wire_windows_per_s = 0.0;     // every chunk crosses the socket
  double inproc_sessions_per_s = 0.0;  // same workload, ThreadPoolBackend
  double inproc_windows_per_s = 0.0;
  // Per-round ingest+flush round-trip time — the delay between samples
  // arriving and their windows being classified, i.e. the per-window
  // delivery-latency proxy for a 1 s streaming cadence.
  double wire_latency_p50_ms = 0.0;
  double wire_latency_p99_ms = 0.0;
  double inproc_latency_p50_ms = 0.0;
  double inproc_latency_p99_ms = 0.0;
};

constexpr std::size_t k_wire_shards = 2;

/// Drives the service_end_to_end workload through `service`, timing
/// session creation separately from streaming. `windows` reads the
/// classified-window counter wherever the compute actually runs (the
/// remote server for the wire run — the client's mirror Engines never
/// classify). Each round's ingest+flush round trip is recorded; the
/// p50/p99 of those are the per-window delivery-latency proxy.
template <typename WindowCount>
void drive_service(engine::DetectionService& service,
                   const signal::EegRecord& record, std::size_t sessions,
                   Seconds stream_seconds, WindowCount&& windows,
                   double& sessions_per_s, double& windows_per_s,
                   double& latency_p50_ms, double& latency_p99_ms) {
  auto start = Clock::now();
  std::vector<engine::SessionHandle> handles;
  for (std::size_t s = 0; s < sessions; ++s) {
    handles.push_back(service.create_session(s, engine::SessionConfig{}));
  }
  sessions_per_s = static_cast<double>(sessions) / seconds_since(start);

  const auto chunk = static_cast<std::size_t>(record.sample_rate_hz());
  const auto rounds = static_cast<std::size_t>(stream_seconds);
  const std::size_t length = record.length_samples();
  std::vector<double> round_ms;
  round_ms.reserve(rounds);
  const std::uint64_t before = windows();
  start = Clock::now();
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto round_start = Clock::now();
    for (std::size_t s = 0; s < sessions; ++s) {
      const std::size_t offset = ((round + s * 37) * chunk) % (length - chunk);
      service.ingest(handles[s], chunk_views(record, offset, chunk));
    }
    service.flush();
    round_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - round_start)
            .count());
  }
  const double elapsed = seconds_since(start);
  windows_per_s = static_cast<double>(windows() - before) / elapsed;
  if (!round_ms.empty()) {
    std::sort(round_ms.begin(), round_ms.end());
    latency_p50_ms = round_ms[round_ms.size() / 2];
    latency_p99_ms = round_ms[(round_ms.size() * 99) / 100];
  }
}

/// Client side of the wire stage: the streaming workload through a
/// RemoteBackend (socket) and through the in-process ThreadPoolBackend.
WireResult wire_client_stage(
    const std::shared_ptr<const core::RealtimeDetector>& det,
    const signal::EegRecord& record, std::size_t sessions,
    Seconds stream_seconds, const platform::SocketAddress& address) {
  WireResult result;
  result.shards = k_wire_shards;
  NullSink sink;
  {
    engine::ServiceConfig config;
    config.shards = k_wire_shards;
    auto backend = std::make_unique<net::RemoteBackend>(address);
    net::RemoteBackend* remote = backend.get();
    engine::DetectionService service(det, config, std::move(backend));
    service.set_detection_sink(&sink);
    drive_service(
        service, record, sessions, stream_seconds,
        [&] { return remote->remote_stats().windows_classified; },
        result.wire_sessions_per_s, result.wire_windows_per_s,
        result.wire_latency_p50_ms, result.wire_latency_p99_ms);
    service.stop();
  }
  {
    engine::ServiceConfig config;
    config.shards = k_wire_shards;
    engine::DetectionService service(
        det, config, std::make_unique<engine::ThreadPoolBackend>());
    service.set_detection_sink(&sink);
    drive_service(
        service, record, sessions, stream_seconds,
        [&] { return service.stats().windows_classified; },
        result.inproc_sessions_per_s, result.inproc_windows_per_s,
        result.inproc_latency_p50_ms, result.inproc_latency_p99_ms);
    service.stop();
  }
  return result;
}

// ------------------------------------------------- model artifact stage

struct ArtifactResult {
  double save_ms = 0.0;
  double cold_open_ms = 0.0;    // fresh mmap + header validation
  double cached_open_ms = 0.0;  // registry LRU hit
  double compiled_wps = 0.0;    // in-memory baseline, same batch loop
  double mapped_wps = 0.0;
  bool parity = false;
  double swap_cold_ms = 0.0;  // replaced file: stat + mmap + deploy
  double swap_warm_ms = 0.0;  // cached mapping: stat + deploy
  double first_window_after_swap_ms = 0.0;
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Records the delay from arm() to the first delivered window of the
/// armed session — the observable redeploy-to-serving latency.
class SwapLatencySink final : public engine::DetectionSink {
 public:
  void arm(std::uint64_t session_id) {
    target_ = session_id;
    start_ = Clock::now();
    armed_.store(true, std::memory_order_release);
  }
  void on_detections(std::span<const engine::Detection> detections) override {
    if (!armed_.load(std::memory_order_acquire)) {
      return;
    }
    for (const engine::Detection& d : detections) {
      if (d.session_id == target_) {
        latency_ms_.store(ms_since(start_), std::memory_order_relaxed);
        armed_.store(false, std::memory_order_release);
        return;
      }
    }
  }
  double latency_ms() const {
    return latency_ms_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> armed_{false};
  std::uint64_t target_ = 0;  // written before armed_ release, read after acquire
  Clock::time_point start_;
  std::atomic<double> latency_ms_{0.0};
};

/// Per-model serving throughput on the inference_stage batch loop.
double serving_wps(const ml::InferenceModel& model, const Matrix& rows,
                   std::size_t target_windows) {
  const std::size_t n = rows.rows();
  const std::size_t reps = std::max<std::size_t>(1, target_windows / n);
  Matrix batch;
  batch.reserve_rows(n, rows.cols());
  RealVector proba;
  std::vector<int> labels;
  const auto start = Clock::now();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    batch.clear_rows();
    for (std::size_t r = 0; r < n; ++r) {
      batch.append_row(rows.row(r));
    }
    model.predict_into(batch, proba, labels);
  }
  return static_cast<double>(reps * n) / seconds_since(start);
}

ArtifactResult artifact_stage(
    const std::shared_ptr<const core::RealtimeDetector>& det,
    const signal::EegRecord& record, const Matrix& rows,
    const std::string& dir) {
  ArtifactResult result;
  const std::shared_ptr<const ml::CompiledForest> compiled = det->compile();
  const std::string path = dir + "/bench_fleet.eslm";

  auto start = Clock::now();
  ml::save_artifact(path, *compiled);
  result.save_ms = ms_since(start);

  start = Clock::now();
  const auto mapped = ml::load_artifact(path);
  result.cold_open_ms = ms_since(start);

  engine::RegistryConfig registry_config;
  registry_config.directory = dir;
  const engine::ModelRegistry registry(registry_config);
  (void)registry.open("bench_fleet");  // populate the cache
  start = Clock::now();
  const auto cached = registry.open("bench_fleet");
  result.cached_open_ms = ms_since(start);

  // Serving throughput + parity: mapped models must match the in-memory
  // compiled artifact bit for bit while serving straight from the file.
  result.compiled_wps = serving_wps(*compiled, rows, 100000);
  result.mapped_wps = serving_wps(*mapped, rows, 100000);
  {
    Matrix batch = rows;
    RealVector proba_compiled;
    std::vector<int> labels_compiled;
    compiled->predict_into(batch, proba_compiled, labels_compiled);
    batch = rows;
    RealVector proba_mapped;
    std::vector<int> labels_mapped;
    mapped->predict_into(batch, proba_mapped, labels_mapped);
    result.parity =
        proba_mapped == proba_compiled && labels_mapped == labels_compiled;
  }

  // Fleet redeploy under live ingest: sessions stream on worker threads
  // while a replaced artifact is swapped in from disk.
  engine::ServiceConfig config;
  config.shards = 2;
  engine::DetectionService service(
      det, config, std::make_unique<engine::ThreadPoolBackend>());
  SwapLatencySink sink;
  service.set_detection_sink(&sink);
  constexpr std::size_t k_swap_sessions = 8;
  std::vector<engine::SessionHandle> handles;
  for (std::size_t s = 0; s < k_swap_sessions; ++s) {
    handles.push_back(service.create_session(s, engine::SessionConfig{}));
  }
  const auto chunk = static_cast<std::size_t>(record.sample_rate_hz());
  const std::size_t length = record.length_samples();
  const std::size_t rounds = 20;
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round == rounds / 2) {
      // Trainer redeploys: replace the file (atomic rename), drop the
      // stale mapping, then deploy cold (remap) and warm (cache hit).
      ml::save_artifact(path, *compiled);
      registry.refresh();
      sink.arm(handles[0].value);
      start = Clock::now();
      service.swap_model(handles[0], registry, "bench_fleet");
      result.swap_cold_ms = ms_since(start);
      start = Clock::now();
      service.swap_model(handles[1], registry, "bench_fleet");
      result.swap_warm_ms = ms_since(start);
    }
    for (std::size_t s = 0; s < k_swap_sessions; ++s) {
      const std::size_t offset = ((round + s * 37) * chunk) % (length - chunk);
      service.ingest(handles[s], chunk_views(record, offset, chunk));
    }
  }
  service.flush();
  service.stop();
  result.first_window_after_swap_ms = sink.latency_ms();
  return result;
}

struct Options {
  std::string json_path;
  std::size_t sessions = 32;
  Seconds stream_seconds = 20.0;
  std::vector<std::size_t> shards = {1, 2, 4, 8};
  bool run_inline = true;
  bool run_threads = true;
  /// Artifact deployed to end-to-end sessions: the fleet ForestModel
  /// ("forest") or the compiled flat artifact via swap_model
  /// ("compiled").
  std::string model = "forest";
  /// When non-empty, run the model-artifact stage in this directory
  /// (save/load latency, mapped serving throughput, swap-from-disk).
  std::string artifact_dir;
  /// --serve: run only the ShardServer side on this address and block.
  std::string serve_address;
  /// --connect: run the wire client stage against this external server
  /// instead of an in-process loopback one.
  std::string connect_address;
  /// --no-wire clears this (the wire stage needs POSIX sockets).
  bool run_wire = true;
};

Options parse_options(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      opts.json_path = value();
    } else if (arg == "--sessions") {
      opts.sessions = static_cast<std::size_t>(std::atol(value()));
    } else if (arg == "--seconds") {
      opts.stream_seconds = std::atof(value());
    } else if (arg == "--shards") {
      opts.shards.clear();
      for (const char* token = std::strtok(const_cast<char*>(value()), ",");
           token != nullptr; token = std::strtok(nullptr, ",")) {
        opts.shards.push_back(static_cast<std::size_t>(std::atol(token)));
      }
    } else if (arg == "--backend") {
      const std::string backend = value();
      if (backend != "inline" && backend != "threads" && backend != "both") {
        std::fprintf(stderr, "unknown --backend %s\n", backend.c_str());
        std::exit(2);
      }
      opts.run_inline = backend == "inline" || backend == "both";
      opts.run_threads = backend == "threads" || backend == "both";
    } else if (arg == "--model") {
      opts.model = value();
      if (opts.model != "forest" && opts.model != "compiled") {
        std::fprintf(stderr, "unknown --model %s\n", opts.model.c_str());
        std::exit(2);
      }
    } else if (arg == "--artifact-dir") {
      opts.artifact_dir = value();
    } else if (arg == "--serve") {
      opts.serve_address = value();
    } else if (arg == "--connect") {
      opts.connect_address = value();
    } else if (arg == "--no-wire") {
      opts.run_wire = false;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return opts;
}

void write_json(
    const Options& opts,
    const std::vector<std::pair<std::size_t, InferenceResult>>& inference,
    const std::vector<std::pair<std::size_t, double>>& engine,
    const std::vector<ServiceResult>& services, const WireResult* wire,
    const ArtifactResult* artifact) {
  std::FILE* f = std::fopen(opts.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opts.json_path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"engine_throughput\",\n");
  std::fprintf(f, "  \"sessions\": %zu,\n  \"stream_seconds\": %.1f,\n",
               opts.sessions, opts.stream_seconds);
  std::fprintf(f, "  \"model\": \"%s\",\n", opts.model.c_str());
  std::fprintf(f, "  \"inference\": [\n");
  for (std::size_t i = 0; i < inference.size(); ++i) {
    const InferenceResult& r = inference[i].second;
    std::fprintf(f,
                 "    {\"rows\": %zu, \"single_wps\": %.1f, "
                 "\"batched_wps\": %.1f, \"compiled_wps\": %.1f, "
                 "\"compiled_speedup\": %.3f}%s\n",
                 inference[i].first, r.single_wps, r.batched_wps,
                 r.compiled_wps, r.compiled_wps / r.batched_wps,
                 i + 1 < inference.size() ? "," : "");
  }
  // End-to-end single-Engine streaming (feature extraction included):
  // the number the zero-alloc DSP work moves.
  std::fprintf(f, "  ],\n  \"engine\": [\n");
  for (std::size_t i = 0; i < engine.size(); ++i) {
    std::fprintf(f,
                 "    {\"sessions\": %zu, \"windows_per_s\": %.1f}%s\n",
                 engine[i].first, engine[i].second,
                 i + 1 < engine.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"service\": [\n");
  for (std::size_t i = 0; i < services.size(); ++i) {
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"shards\": %zu, "
                 "\"windows_per_s\": %.1f}%s\n",
                 services[i].backend, services[i].shards,
                 services[i].windows_per_s,
                 i + 1 < services.size() ? "," : "");
  }
  std::fprintf(f, "  ]");
  if (wire != nullptr) {
    std::fprintf(f, ",\n  \"wire\": {\n");
    std::fprintf(f, "    \"shards\": %zu,\n", wire->shards);
    std::fprintf(f, "    \"wire_sessions_per_s\": %.1f,\n",
                 wire->wire_sessions_per_s);
    std::fprintf(f, "    \"wire_windows_per_s\": %.1f,\n",
                 wire->wire_windows_per_s);
    std::fprintf(f, "    \"inproc_sessions_per_s\": %.1f,\n",
                 wire->inproc_sessions_per_s);
    std::fprintf(f, "    \"inproc_windows_per_s\": %.1f,\n",
                 wire->inproc_windows_per_s);
    std::fprintf(f, "    \"wire_latency_p50_ms\": %.3f,\n",
                 wire->wire_latency_p50_ms);
    std::fprintf(f, "    \"wire_latency_p99_ms\": %.3f,\n",
                 wire->wire_latency_p99_ms);
    std::fprintf(f, "    \"inproc_latency_p50_ms\": %.3f,\n",
                 wire->inproc_latency_p50_ms);
    std::fprintf(f, "    \"inproc_latency_p99_ms\": %.3f\n",
                 wire->inproc_latency_p99_ms);
    std::fprintf(f, "  }");
  }
  if (artifact == nullptr) {
    std::fprintf(f, "\n}\n");
  } else {
    std::fprintf(f, ",\n  \"artifact\": {\n");
    std::fprintf(f, "    \"save_ms\": %.3f,\n", artifact->save_ms);
    std::fprintf(f, "    \"cold_open_ms\": %.3f,\n", artifact->cold_open_ms);
    std::fprintf(f, "    \"cached_open_ms\": %.3f,\n",
                 artifact->cached_open_ms);
    std::fprintf(f, "    \"compiled_wps\": %.1f,\n", artifact->compiled_wps);
    std::fprintf(f, "    \"mapped_wps\": %.1f,\n", artifact->mapped_wps);
    std::fprintf(f, "    \"parity\": %s,\n",
                 artifact->parity ? "true" : "false");
    std::fprintf(f, "    \"swap_cold_ms\": %.3f,\n", artifact->swap_cold_ms);
    std::fprintf(f, "    \"swap_warm_ms\": %.3f,\n", artifact->swap_warm_ms);
    std::fprintf(f, "    \"first_window_after_swap_ms\": %.3f\n",
                 artifact->first_window_after_swap_ms);
    std::fprintf(f, "  }\n}\n");
  }
  std::fclose(f);
  std::printf("\nwrote %s\n", opts.json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_options(argc, argv);
  esl::bench::print_header(
      "Engine + service throughput: batching, sharding, backends");

  const sim::CohortSimulator simulator;
  const auto events = simulator.events_for_patient(4);
  const signal::EegRecord train_record =
      simulator.synthesize_sample(events[0], 0, 500.0, 600.0);
  const signal::EegRecord stream_record =
      simulator.synthesize_background_record(4, 120.0, 3);

  ml::Dataset train =
      core::build_window_dataset(train_record, train_record.seizures());
  Rng rng(1);
  auto detector = std::make_shared<core::RealtimeDetector>();
  detector->fit(ml::balance_classes(train, rng), 7);

  // One poll round's rows per session count, cut from real features.
  const features::EglassFeatureExtractor extractor(2);
  const features::WindowedFeatures windowed =
      features::extract_windowed_features(stream_record, extractor);

  if (!opts.serve_address.empty()) {
    // Server-only mode for cross-machine wire measurements: own the
    // shards here, let a --connect invocation elsewhere drive them.
    net::ShardServerConfig server_config;
    server_config.address =
        platform::SocketAddress::parse(opts.serve_address);
    server_config.service.shards = k_wire_shards;
    server_config.threaded_backend = true;
    net::ShardServer server(detector, server_config);
    server.start();
    std::printf("serving %zu shards on %s (ctrl-c to stop)\n", k_wire_shards,
                server.address().to_string().c_str());
    while (server.running()) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    return 0;
  }

  const bool compiled_model = opts.model == "compiled";
  std::printf("\n-- inference stage (isolated), single vs batched vs "
              "compiled --\n");
  std::printf("%8s %14s %14s %14s %9s %13s\n", "sessions", "single (w/s)",
              "batched (w/s)", "compiled (w/s)", "speedup",
              "engine (w/s)");
  std::vector<std::pair<std::size_t, InferenceResult>> inference;
  std::vector<std::pair<std::size_t, double>> engine;
  for (const std::size_t sessions : {1u, 4u, 16u, 64u, 256u}) {
    Matrix rows(sessions, windowed.features.cols());
    for (std::size_t r = 0; r < sessions; ++r) {
      const auto src = windowed.features.row(r % windowed.count());
      std::copy(src.begin(), src.end(), rows.row(r).begin());
    }
    const InferenceResult wps = inference_stage(*detector, rows, 100000);
    inference.emplace_back(sessions, wps);
    if (sessions <= 64) {
      const double engine_wps = engine_end_to_end(
          detector, stream_record, sessions, 30.0, compiled_model);
      engine.emplace_back(sessions, engine_wps);
      std::printf("%8zu %14.0f %14.0f %14.0f %7.2fx %13.0f\n", sessions,
                  wps.single_wps, wps.batched_wps, wps.compiled_wps,
                  wps.compiled_wps / wps.batched_wps, engine_wps);
    } else {
      std::printf("%8zu %14.0f %14.0f %14.0f %7.2fx %13s\n", sessions,
                  wps.single_wps, wps.batched_wps, wps.compiled_wps,
                  wps.compiled_wps / wps.batched_wps, "-");
    }
  }

  std::printf(
      "\n-- sharded service, %zu sessions (%s model), 1 s chunks, flush "
      "per round --\n",
      opts.sessions, opts.model.c_str());
  std::printf("%8s %16s %16s %9s\n", "shards", "inline (w/s)",
              "threads (w/s)", "speedup");
  std::vector<ServiceResult> services;
  for (const std::size_t shards : opts.shards) {
    double inline_wps = 0.0;
    double threads_wps = 0.0;
    if (opts.run_inline) {
      inline_wps =
          service_end_to_end(detector, stream_record, opts.sessions, shards,
                             false, opts.stream_seconds, compiled_model);
      services.push_back({"inline", shards, inline_wps});
    }
    if (opts.run_threads) {
      threads_wps =
          service_end_to_end(detector, stream_record, opts.sessions, shards,
                             true, opts.stream_seconds, compiled_model);
      services.push_back({"threads", shards, threads_wps});
    }
    if (opts.run_inline && opts.run_threads) {
      std::printf("%8zu %16.0f %16.0f %8.2fx\n", shards, inline_wps,
                  threads_wps, threads_wps / inline_wps);
    } else {
      std::printf("%8zu %16.0f %16.0f %9s\n", shards, inline_wps, threads_wps,
                  "-");
    }
  }

  WireResult wire;
  bool have_wire = false;
  if (opts.run_wire && ESL_HAVE_POSIX_SOCKETS) {
    // Wire stage: the same streaming workload with every chunk crossing
    // a socket, against an in-process loopback server unless --connect
    // names an external one.
    std::unique_ptr<net::ShardServer> server;
    platform::SocketAddress address;
    if (opts.connect_address.empty()) {
      const auto stamp = static_cast<unsigned long long>(
          Clock::now().time_since_epoch().count());
      const std::string path =
          (std::filesystem::temp_directory_path() /
           ("esl_bench_wire_" + std::to_string(stamp) + ".sock"))
              .string();
      address = platform::SocketAddress::parse("unix:" + path);
      net::ShardServerConfig server_config;
      server_config.address = address;
      server_config.service.shards = k_wire_shards;
      server_config.threaded_backend = true;
      server = std::make_unique<net::ShardServer>(detector, server_config);
      server->start();
    } else {
      address = platform::SocketAddress::parse(opts.connect_address);
    }
    wire = wire_client_stage(detector, stream_record, opts.sessions,
                             opts.stream_seconds, address);
    have_wire = true;
    if (server != nullptr) {
      server->stop();
    }
    std::printf("\n-- wire stage, %zu sessions over %zu shards (%s) --\n",
                opts.sessions, k_wire_shards,
                opts.connect_address.empty() ? "loopback unix socket"
                                             : opts.connect_address.c_str());
    std::printf("%12s %16s %16s\n", "", "socket", "in-process");
    std::printf("%12s %16.0f %16.0f\n", "sessions/s", wire.wire_sessions_per_s,
                wire.inproc_sessions_per_s);
    std::printf("%12s %16.0f %16.0f\n", "windows/s", wire.wire_windows_per_s,
                wire.inproc_windows_per_s);
    std::printf("%12s %13.2f ms %13.2f ms   (per-round ingest+flush)\n",
                "p50 latency", wire.wire_latency_p50_ms,
                wire.inproc_latency_p50_ms);
    std::printf("%12s %13.2f ms %13.2f ms\n", "p99 latency",
                wire.wire_latency_p99_ms, wire.inproc_latency_p99_ms);
  }

  ArtifactResult artifact;
  bool have_artifact = false;
  if (!opts.artifact_dir.empty()) {
    Matrix rows(64, windowed.features.cols());
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      const auto src = windowed.features.row(r % windowed.count());
      std::copy(src.begin(), src.end(), rows.row(r).begin());
    }
    artifact =
        artifact_stage(detector, stream_record, rows, opts.artifact_dir);
    have_artifact = true;
    std::printf("\n-- model artifact stage (%s) --\n",
                opts.artifact_dir.c_str());
    std::printf("save                 %10.3f ms\n", artifact.save_ms);
    std::printf("cold open (mmap)     %10.3f ms\n", artifact.cold_open_ms);
    std::printf("cached open          %10.3f ms\n", artifact.cached_open_ms);
    std::printf("compiled serving     %10.0f w/s\n", artifact.compiled_wps);
    std::printf("mapped serving       %10.0f w/s  (parity %s)\n",
                artifact.mapped_wps, artifact.parity ? "ok" : "FAILED");
    std::printf("swap from disk cold  %10.3f ms   (replaced file, remap)\n",
                artifact.swap_cold_ms);
    std::printf("swap from disk warm  %10.3f ms   (registry cache hit)\n",
                artifact.swap_warm_ms);
    std::printf("first window after swap %7.3f ms  (live threads ingest)\n",
                artifact.first_window_after_swap_ms);
  }

  std::printf(
      "\nsingle   = per-window RealtimeDetector::predict_row loop\n"
      "batched  = engine path: gather + in-place z-score + tree-major forest\n"
      "compiled = flat SoA artifact (ml::CompiledForest), bit-identical\n"
      "           labels; speedup column is compiled vs batched\n"
      "engine   = end-to-end single-Engine streaming windows/sec\n"
      "service  = end-to-end DetectionService (feature extraction included);\n"
      "           the threads backend runs one worker per shard and scales\n"
      "           with cores, inline shows the single-thread baseline\n");

  if (!opts.json_path.empty()) {
    write_json(opts, inference, engine, services, have_wire ? &wire : nullptr,
               have_artifact ? &artifact : nullptr);
  }
  return 0;
}
