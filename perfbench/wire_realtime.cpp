// wire_realtime: open-loop wearables over the wire.
//
// A RemoteBackend DetectionService talks over one loopback unix-socket
// connection to an in-process ShardServer (2 threaded shards; caller,
// server loop and 2 workers = 4 threads). 128 wearable slots send 0.25 s
// radio packets on a fixed schedule that never slows down for the
// system, at a constant offered window rate of about half the path's
// capacity, so the net layer, the ingest queue and the session lifecycle
// sit in the blocking path while feature extraction stays below
// capacity. Each session streams 40 s of signal and is then closed and
// replaced, so open and close round trips run at a steady rate. Each
// tick sends every packet that is due, then flushes. Latencies are timed
// from each packet's due time, so a stall anywhere shows. Every 8th
// session gets its model redeployed from the server's registry
// mid-stream, which times the redeploy leg of relearn_ms.
#include <filesystem>
#include <functional>
#include <limits>
#include <queue>
#include <thread>
#include <unordered_map>

#include "engine/service.hpp"
#include "harness.hpp"
#include "ml/artifact.hpp"
#include "net/client.hpp"
#include "net/shard_server.hpp"
#include "net/wire.hpp"

namespace perfbench {

using namespace esl;

namespace {

constexpr std::size_t k_slots = 128;
constexpr std::size_t k_shards = 2;
constexpr std::size_t k_chunk_samples = 64;      // 0.25 s at 256 Hz
constexpr std::size_t k_session_chunks = 160;    // 40 s of signal per session
constexpr std::size_t k_session_windows = 37;    // (40 s - 4 s) / 1 s + 1
/// Offered load in windows per second: about half of what this path
/// sustains closed-loop (~4.2k windows/s measured on a 4-vCPU 2.0 GHz
/// Xeon VM when this benchmark was added). Fixed: never derived at run
/// time.
constexpr double k_offered_wps = 2000.0;
/// Every k_press_every-th session gets a registry redeploy just before
/// the packet that completes its window k_press_window.
constexpr std::size_t k_press_every = 8;
constexpr std::uint32_t k_press_window = 10;
/// Sessions streamed closed-loop during set-up (warm-up).
constexpr std::size_t k_warmup_sessions = 8;
/// The detection digest covers the first sessions only, so it does not
/// depend on how many a run fits in its time.
constexpr std::size_t k_digest_sessions = 200;
/// Stats pings timed for net.rtt_ms_p50 in traced runs.
constexpr std::size_t k_rtt_pings = 200;
constexpr const char* k_registry_key = "fleet";

/// Chunk interval of one slot, so that k_slots slots offer
/// k_offered_wps windows per second.
constexpr std::int64_t chunk_interval_ns() {
  return static_cast<std::int64_t>(
      1e9 * static_cast<double>(k_slots * k_session_windows) /
      (static_cast<double>(k_session_chunks) * k_offered_wps));
}

/// Windows completed by the first `chunks` packets of a session.
std::size_t windows_after(std::size_t chunks) {
  const std::size_t samples = chunks * k_chunk_samples;
  return samples < 1024 ? 0 : (samples - 1024) / 256 + 1;
}

/// Packet index whose arrival completes window `w`.
std::size_t chunk_completing(std::size_t w) { return (1024 + 256 * w) / k_chunk_samples - 1; }

struct Instance {
  engine::SessionHandle handle;
  std::size_t phase = 0;        // tape second the session starts at
  std::int64_t open_due_ns = 0; // schedule time of its first packet
  std::size_t chunks_sent = 0;
  bool open = false;
  bool scheduled = false;       // opened by the schedule, not the warm-up
  std::int64_t press_ns = -1;
  std::vector<Observed> observed;
  std::vector<std::int64_t> arrived_ns;
};

/// One client-side service plus the schedule state driving it.
class WireRun final : public engine::DetectionSink {
 public:
  using Press = std::function<void(engine::DetectionService&,
                                   engine::SessionHandle)>;

  WireRun(const StreamWorld& world, std::unique_ptr<engine::DetectionService> service,
          Press press)
      : world_(world), service_(std::move(service)), press_(std::move(press)) {
    service_->set_detection_sink(this);
    instances_.reserve(16384);
  }
  ~WireRun() override { service_->stop(); }
  WireRun(const WireRun&) = delete;
  WireRun& operator=(const WireRun&) = delete;

  void on_detections(std::span<const engine::Detection> detections) override {
    const std::int64_t t = now_ns();
    for (const engine::Detection& d : detections) {
      const auto it = by_handle_.find(d.session_id);
      if (it == by_handle_.end()) {
        ++failed_;  // a detection for a session the benchmark never fed
        continue;
      }
      Instance& inst = instances_[it->second];
      inst.observed.push_back({static_cast<std::uint32_t>(d.window_index),
                               static_cast<std::uint8_t>(d.label),
                               static_cast<std::uint8_t>(d.alarm)});
      inst.arrived_ns.push_back(t);
      arrivals_ += t >= measure_from_ns_ ? 1 : 0;
      if (replay_) {
        wire_detections_.push_back(net::to_wire(d));
        replayed_.push_back({inst.phase + d.window_index, d.label});
      }
    }
  }

  /// Streams `sessions` whole sessions closed-loop (set-up warm-up).
  void warm_up(std::size_t sessions) {
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < sessions; ++i) {
      ids.push_back(open_instance(now_ns(), nullptr, i));
    }
    for (std::size_t k = 0; k < k_session_chunks; ++k) {
      for (const std::size_t id : ids) {
        send_chunk(id, nullptr, k);
      }
      if (k % 4 == 3) {
        flush(nullptr, k);
      }
    }
    flush(nullptr, 0);
    for (const std::size_t id : ids) {
      close_instance(id, nullptr, 0);
    }
  }

  /// Starts the fixed schedule at `origin_ns`. Samples are taken from
  /// `measure_from_ns` on, once every slot is streaming.
  void start_schedule(std::int64_t origin_ns, std::int64_t measure_from_ns) {
    measure_from_ns_ = measure_from_ns;
    const std::int64_t dt = chunk_interval_ns();
    const std::int64_t stagger =
        dt * static_cast<std::int64_t>(k_session_chunks) / static_cast<std::int64_t>(k_slots);
    slots_.assign(k_slots, Slot{});
    for (std::size_t j = 0; j < k_slots; ++j) {
      queue_.push({origin_ns + static_cast<std::int64_t>(j) * stagger, j});
    }
  }
  std::int64_t next_due() const { return queue_.top().due_ns; }

  /// One tick: every packet due by `horizon_ns` (opening and redeploying
  /// sessions on the way), one flush, then the closes that flush made
  /// safe. `real_time` records generator lag and tick latency.
  void tick(std::int64_t horizon_ns, bool real_time, Tracer* tracer,
            std::uint64_t request) {
    const std::int64_t tick_start = now_ns();
    const std::int64_t dt = chunk_interval_ns();
    closing_.clear();
    while (!queue_.empty() && queue_.top().due_ns <= horizon_ns) {
      const Due due = queue_.top();
      queue_.pop();
      Slot& slot = slots_[due.slot];
      if (slot.instance < 0) {
        const std::int64_t t0 = now_ns();
        const std::size_t id = open_instance(due.due_ns, tracer, request);
        if (real_time && t0 >= measure_from_ns_) {
          open_ms.push_back(ms_of(now_ns() - t0));
        }
        instances_[id].scheduled = true;
        slot.instance = static_cast<std::int64_t>(id);
      }
      const auto id = static_cast<std::size_t>(slot.instance);
      Instance& inst = instances_[id];
      if (id % k_press_every == 0 &&
          inst.chunks_sent == chunk_completing(k_press_window)) {
        inst.press_ns = now_ns();
        ++calls_;
        if (!attempt(failed_, [&] {
              Scope span(tracer, "engine.swap", request);
              press_(*service_, inst.handle);
            })) {
          inst.press_ns = -1;
        }
      }
      if (real_time && due.due_ns >= measure_from_ns_) {
        lag_ms.push_back(ms_of(now_ns() - due.due_ns));
      }
      send_chunk(id, tracer, request);
      if (inst.chunks_sent == k_session_chunks) {
        closing_.push_back(id);
        slot.instance = -1;
      }
      queue_.push({due.due_ns + dt, due.slot});
    }
    flush(tracer, request);
    for (const std::size_t id : closing_) {
      close_instance(id, tracer, request);
    }
    if (real_time && tick_start >= measure_from_ns_) {
      round_ms.push_back(ms_of(now_ns() - tick_start));
    }
  }

  /// Flushes and closes every session still open (end of a run).
  void finish() {
    flush(nullptr, 0);
    for (std::size_t id = 0; id < instances_.size(); ++id) {
      if (instances_[id].open) {
        close_instance(id, nullptr, 0);
      }
    }
  }

  /// Correctness against the reference; latency of measured windows.
  void verify(const TapeReference& reference, Outcome& out, EndToEnd* e2e) {
    const std::int64_t dt = chunk_interval_ns();
    Digest digest;
    bool selftest_done = false;
    for (std::size_t id = 0; id < instances_.size(); ++id) {
      const Instance& inst = instances_[id];
      const std::size_t expected = windows_after(inst.chunks_sent);
      out.attempted += expected;
      out.failed += reference.check(inst.phase, expected, inst.observed);
      if (!selftest_done && expected > 0) {
        out.selftest_ok = reference.self_test(inst.phase, expected, inst.observed);
        selftest_done = true;
      }
      if (id < k_digest_sessions) {
        digest.value(id);
        for (const Observed& o : inst.observed) {
          digest_observed(digest, o);
        }
      }
      if (e2e == nullptr || !inst.scheduled) {
        continue;
      }
      const auto due_of = [&](std::size_t w) {
        return inst.open_due_ns + static_cast<std::int64_t>(chunk_completing(w)) * dt;
      };
      for (std::size_t w = 0; w < expected; ++w) {
        e2e->expected_windows += due_of(w) >= measure_from_ns_ ? 1 : 0;
      }
      for (std::size_t k = 0; k < inst.observed.size(); ++k) {
        const std::uint32_t w = inst.observed[k].window;
        if (w >= expected || due_of(w) < measure_from_ns_) {
          continue;
        }
        const double ms = ms_of(inst.arrived_ns[k] - due_of(w));
        e2e->detect_ms.push_back(ms);
        e2e->on_time_windows += ms <= k_latency_limit_ms ? 1 : 0;
        if (w == k_press_window && inst.press_ns >= measure_from_ns_) {
          e2e->relearn_ms.push_back(ms_of(inst.arrived_ns[k] - inst.press_ns));
        }
      }
    }
    out.attempted += calls_;
    out.failed += failed_;
    out.detection_digest = digest.get();
  }

  std::uint64_t input_digest() const {
    Digest digest;
    world_.tape->digest(digest);
    digest.value(k_offered_wps);
    digest.value(chunk_interval_ns());
    return digest.get();
  }

  engine::DetectionService& service() { return *service_; }
  /// Detections delivered since sampling started.
  std::uint64_t measured_arrivals() const { return arrivals_; }
  /// Windows made due, since sampling started, by the packets sent.
  std::uint64_t windows_due() const {
    const std::int64_t dt = chunk_interval_ns();
    std::uint64_t total = 0;
    for (const Instance& inst : instances_) {
      for (std::size_t w = 0; inst.scheduled && w < windows_after(inst.chunks_sent);
           ++w) {
        const std::int64_t due =
            inst.open_due_ns + static_cast<std::int64_t>(chunk_completing(w)) * dt;
        total += due >= measure_from_ns_ ? 1 : 0;
      }
    }
    return total;
  }
  /// Enables the wire replay: every packet is encoded and decoded with
  /// the public frame calls, and every delivered detection is encoded.
  void replay_wire(bool on) { replay_ = on; }
  std::uint64_t wire_bytes() const { return wire_bytes_; }
  std::uint64_t predicted_rows() const { return features_.predicted_rows(); }

  std::vector<double> open_ms;
  std::vector<double> round_ms;
  std::vector<double> lag_ms;
  std::vector<double> flush_ms;

 private:
  struct Due {
    std::int64_t due_ns;
    std::size_t slot;
    bool operator>(const Due& other) const {
      return due_ns != other.due_ns ? due_ns > other.due_ns : slot > other.slot;
    }
  };
  struct Slot {
    std::int64_t instance = -1;
  };

  std::size_t open_instance(std::int64_t due_ns, Tracer* tracer,
                            std::uint64_t request) {
    const std::size_t id = instances_.size();
    instances_.emplace_back();
    Instance& inst = instances_.back();
    inst.phase = (id * 97) % world_.tape->seconds();
    inst.open_due_ns = due_ns;
    ++calls_;
    attempt(failed_, [&] {
      Scope span(tracer, "engine.create", request);
      inst.handle = service_->create_session(id, engine::SessionConfig{});
      inst.open = true;
      by_handle_[inst.handle.value] = id;
    });
    return id;
  }

  void send_chunk(std::size_t id, Tracer* tracer, std::uint64_t request) {
    Instance& inst = instances_[id];
    const Tape& tape = *world_.tape;
    const std::vector<std::span<const Real>> chunk = tape.chunk(
        inst.phase * tape.samples_per_second() + inst.chunks_sent * k_chunk_samples,
        k_chunk_samples);
    ++inst.chunks_sent;
    if (!inst.open) {
      return;  // its open failed; the missing windows are counted
    }
    ++calls_;
    attempt(failed_, [&] {
      Scope span(tracer, "engine.ingest", request);
      service_->ingest(inst.handle, chunk);
    });
    if (replay_) {
      Scope replay(tracer, "bench.replay", request);
      {
        Scope span(tracer, "net.encode", request);
        net::encode_chunk(wire_buffer_, inst.handle.value, request, chunk);
      }
      {
        Scope span(tracer, "net.decode", request);
        const net::FrameView view = net::parse_frame(wire_buffer_);
        const net::ChunkView decoded = net::decode_chunk(view);
        failed_ += decoded.samples_per_channel == k_chunk_samples ? 0 : 1;
      }
      wire_bytes_ += wire_buffer_.size();
      wire_buffer_.clear();
    }
  }

  void flush(Tracer* tracer, std::uint64_t request) {
    ++calls_;
    const std::int64_t t0 = now_ns();
    attempt(failed_, [&] {
      Scope span(tracer, "engine.flush", request);
      service_->flush();
    });
    if (t0 >= measure_from_ns_) {
      flush_ms.push_back(ms_of(now_ns() - t0));
    }
    if (replay_ && !wire_detections_.empty()) {
      Scope replay(tracer, "bench.replay", request);
      {
        Scope span(tracer, "net.encode_detections", request);
        net::encode_detections(wire_buffer_, request, wire_detections_);
      }
      wire_bytes_ += wire_buffer_.size();
      wire_buffer_.clear();
      wire_detections_.clear();
      // The delivered windows through the public feature and ml calls.
      const Tape& tape = *world_.tape;
      for (const auto& [second, label] : replayed_) {
        features_.add(tape.window(second), tape.sample_rate_hz(), request,
                      tracer);
      }
      const std::vector<int>& labels =
          features_.predict(*world_.fleet->model(), request, tracer);
      for (std::size_t k = 0; k < replayed_.size(); ++k) {
        failed_ += labels[k] != replayed_[k].second ? 1 : 0;
      }
      calls_ += replayed_.size();
      replayed_.clear();
    }
  }

  void close_instance(std::size_t id, Tracer* tracer, std::uint64_t request) {
    Instance& inst = instances_[id];
    if (!inst.open) {
      return;
    }
    inst.open = false;
    ++calls_;
    attempt(failed_, [&] {
      Scope span(tracer, "engine.close", request);
      service_->close_session(inst.handle);
    });
  }

  const StreamWorld& world_;
  std::unique_ptr<engine::DetectionService> service_;
  Press press_;
  std::vector<Instance> instances_;
  std::unordered_map<std::uint64_t, std::size_t> by_handle_;
  std::vector<Slot> slots_;
  std::priority_queue<Due, std::vector<Due>, std::greater<Due>> queue_;
  std::vector<std::size_t> closing_;
  std::uint64_t calls_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t arrivals_ = 0;
  /// Start of sampling; nothing before the schedule starts is sampled.
  std::int64_t measure_from_ns_ = std::numeric_limits<std::int64_t>::max();
  bool replay_ = false;
  std::vector<std::byte> wire_buffer_;
  std::vector<net::WireDetection> wire_detections_;
  std::uint64_t wire_bytes_ = 0;
  /// Windows delivered in the current tick (tape second, engine label),
  /// replayed after its flush.
  std::vector<std::pair<std::size_t, int>> replayed_;
  FeatureReplay features_;
};

/// Server plus remote client service, set up and warmed.
struct System {
  StreamWorld world;
  std::unique_ptr<net::ShardServer> server;
  std::unique_ptr<WireRun> run;
};

std::unique_ptr<System> make_system(const Options& options) {
  auto sys = std::make_unique<System>();
  sys->world = make_stream_world(options.seed);
  const std::string registry = options.out_dir + "/registry";
  std::filesystem::create_directories(registry);
  ml::save_artifact(registry + "/" + k_registry_key + ".eslm",
                    *sys->world.fleet->compile());
  net::ShardServerConfig server_config;
  server_config.address =
      platform::SocketAddress::parse("unix:" + options.out_dir + "/wire.sock");
  server_config.service.shards = k_shards;
  server_config.threaded_backend = true;
  server_config.registry_directory = registry;
  sys->server = std::make_unique<net::ShardServer>(sys->world.fleet, server_config);
  sys->server->start();
  engine::ServiceConfig client_config;
  client_config.shards = k_shards;
  auto backend = std::make_unique<net::RemoteBackend>(sys->server->address());
  net::RemoteBackend* remote = backend.get();
  sys->run = std::make_unique<WireRun>(
      sys->world,
      std::make_unique<engine::DetectionService>(sys->world.fleet, client_config,
                                                 std::move(backend)),
      [remote](engine::DetectionService&, engine::SessionHandle handle) {
        remote->remote_swap_model(handle, k_registry_key);
      });
  sys->run->warm_up(k_warmup_sessions);
  return sys;
}

/// Runs the open-loop schedule until `seconds` have passed. Samples are
/// taken once every slot has opened its first session (one session
/// lifetime in, at most half the run); returns the sampled seconds.
double open_loop(WireRun& run, double seconds) {
  const std::int64_t begin = now_ns();
  const auto length = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t deadline = begin + length;
  const std::int64_t measure_from =
      begin + std::min(chunk_interval_ns() *
                           static_cast<std::int64_t>(k_session_chunks),
                       length / 2);
  run.start_schedule(begin, measure_from);
  for (;;) {
    const std::int64_t due = run.next_due();
    const std::int64_t now = now_ns();
    if (now >= deadline) {
      break;
    }
    if (due > now) {
      std::this_thread::sleep_until(Clock::time_point(
          std::chrono::nanoseconds(std::min(due, deadline))));
      continue;
    }
    run.tick(now, true, nullptr, 0);
  }
  const double measured_s = static_cast<double>(now_ns() - measure_from) / 1e9;
  run.finish();
  return measured_s;
}

Outcome measure(const Options& options) {
  Outcome out;
  EndToEnd e2e;
  std::unique_ptr<System> sys;
  for (std::size_t i = 0; i < k_setup_repeats; ++i) {
    sys.reset();
    const std::int64_t t0 = now_ns();
    sys = make_system(options);
    e2e.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  WireRun& run = *sys->run;
  e2e.measured_s = open_loop(run, options.seconds);
  e2e.windows = run.measured_arrivals();
  e2e.round_ms = run.round_ms;
  e2e.open_ms = run.open_ms;
  const TapeReference reference(*sys->world.tape, sys->world.fleet,
                                engine::SessionConfig{});
  run.verify(reference, out, &e2e);
  out.failed += reference.rule_drift();
  out.metrics = end_to_end_metrics(e2e);
  out.input_digest = run.input_digest();
  std::printf("wire_realtime: %zu slots offering %.0f windows/s over a unix "
              "socket; %zu ticks, %zu sessions opened, generator lag p99 "
              "%.3f ms, flush mean %.3f ms\n",
              k_slots, k_offered_wps, e2e.round_ms.size(), e2e.open_ms.size(),
              percentile(run.lag_ms, 0.99), mean_of(run.flush_ms));
  return out;
}

/// Virtual-time step of the replays: each tick sends the packets due in
/// the next 2 ms of schedule time, then flushes.
constexpr std::int64_t k_replay_tick_ns = 2'000'000;

/// Traced run: a short open-loop pass for the load and wire readings,
/// then the same schedule replayed as fast as possible with the shards
/// on the caller thread (InlineBackend), untraced (the baseline) and
/// traced with the wire replay and a stats-ping probe.
Outcome trace(const Options& options) {
  Outcome out;
  TraceInputs in;
  std::unique_ptr<System> sys = make_system(options);
  const double seconds = open_loop(*sys->run, 0.3 * options.seconds);
  in.load_lag_ms_p99 = percentile(sys->run->lag_ms, 0.99);
  in.load_offered_wps = static_cast<double>(sys->run->windows_due()) / seconds;
  in.net_flush_ms_mean = mean_of(sys->run->flush_ms);
  const StreamWorld& world = sys->world;
  const TapeReference reference(*world.tape, world.fleet,
                                engine::SessionConfig{});
  sys->run->verify(reference, out, nullptr);
  sys->run.reset();
  net::ShardClient pinger;
  pinger.connect(sys->server->address());

  const std::shared_ptr<const ml::InferenceModel> compiled =
      world.fleet->compile();
  const auto make_inline = [&] {
    engine::ServiceConfig config;
    config.shards = k_shards;
    auto run = std::make_unique<WireRun>(
        world, std::make_unique<engine::DetectionService>(world.fleet, config),
        [compiled](engine::DetectionService& service,
                   engine::SessionHandle handle) {
          service.swap_model(handle, compiled);
        });
    run->warm_up(k_warmup_sessions);
    return run;
  };

  std::unique_ptr<WireRun> base = make_inline();
  std::int64_t t0 = now_ns();
  const auto deadline =
      t0 + static_cast<std::int64_t>(0.25 * options.seconds * 1e9);
  std::int64_t schedule_ns = 0;
  std::uint64_t ticks = 0;
  base->start_schedule(0, std::numeric_limits<std::int64_t>::min());
  while (now_ns() < deadline) {
    schedule_ns += k_replay_tick_ns;
    base->tick(schedule_ns, false, nullptr, ticks++);
  }
  in.untraced_wall_ns = now_ns() - t0;
  in.baseline_windows_per_s =
      static_cast<double>(base->measured_arrivals()) /
      (static_cast<double>(in.untraced_wall_ns) / 1e9);
  base->finish();

  std::unique_ptr<WireRun> traced = make_inline();
  traced->replay_wire(true);
  const engine::EngineStats stats0 = traced->service().stats();
  Tracer tracer;
  t0 = now_ns();
  schedule_ns = 0;
  traced->start_schedule(0, std::numeric_limits<std::int64_t>::min());
  for (std::uint64_t i = 0; i < ticks; ++i) {
    schedule_ns += k_replay_tick_ns;
    traced->tick(schedule_ns, false, &tracer, i);
  }
  {
    Scope replay(&tracer, "bench.replay", ticks);
    for (std::size_t k = 0; k < k_rtt_pings; ++k) {
      Scope span(&tracer, "net.rtt", k);
      (void)pinger.stats();
    }
  }
  in.traced_wall_ns = now_ns() - t0;
  const engine::EngineStats stats1 = traced->service().stats();
  in.windows = stats1.windows_classified - stats0.windows_classified;
  in.batches = stats1.batches - stats0.batches;
  in.forest_rows = stats1.forest_windows - stats0.forest_windows;
  in.predicted_rows = traced->predicted_rows();
  in.net_bytes_per_window =
      in.windows == 0 ? 0.0
                      : static_cast<double>(traced->wire_bytes()) /
                            static_cast<double>(in.windows);
  out.metrics = trace_metrics(options, tracer, in);
  traced->finish();
  pinger.close();
  sys->server->stop();

  Outcome replays;
  base->verify(reference, replays, nullptr);
  traced->verify(reference, replays, nullptr);
  out.attempted += replays.attempted;
  out.failed += replays.failed + reference.rule_drift();
  out.selftest_ok = out.selftest_ok && replays.selftest_ok;
  out.input_digest = traced->input_digest();
  out.detection_digest = replays.detection_digest;
  std::printf("wire_realtime trace: %llu replay ticks inline, baseline %.0f "
              "windows/s single-threaded\n",
              static_cast<unsigned long long>(ticks),
              in.baseline_windows_per_s);
  return out;
}

}  // namespace

Outcome run_wire_realtime(const Options& options) {
  return options.trace ? trace(options) : measure(options);
}

}  // namespace perfbench
