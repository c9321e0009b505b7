// fleet_stream: closed-loop steady-state fleet monitoring.
//
// 64 sessions on an in-process DetectionService over ThreadPoolBackend
// with 2 shards (caller + 2 workers = 3 threads). Each round ingests one
// 1 s chunk per session, then one flush(). Feature extraction does
// nearly all the work, and the 64 sessions' rings and workspaces exceed
// L2, so this is where feature-stage changes show (windows_per_s,
// round_ms_*). Each round also redeploys the fleet model onto one
// session (swap_model), which times the redeploy leg of relearn_ms.
#include <cstdio>
#include <unordered_map>

#include "engine/service.hpp"
#include "harness.hpp"
#include "net/client.hpp"
#include "net/shard_server.hpp"
#include "net/wire.hpp"

namespace perfbench {

using namespace esl;

namespace {

constexpr std::size_t k_sessions = 64;
constexpr std::size_t k_shards = 2;
/// Rounds streamed during set-up, before anything is timed.
constexpr std::size_t k_warmup_rounds = 8;
/// The detection digest covers the windows of the first rounds only, so
/// it does not depend on how many rounds a run fits in its time.
constexpr std::size_t k_digest_rounds = 200;

std::size_t phase_of(std::size_t session, const Tape& tape) {
  return (session * 37) % tape.seconds();
}

struct Arrival {
  std::uint64_t session = 0;
  std::uint32_t window = 0;
  std::uint8_t label = 0;
  std::uint8_t alarm = 0;
  std::int64_t t_ns = 0;
};

/// Records every detection with its arrival time. Shard workers deliver
/// concurrently, each into its own vector (calls are serialized per
/// shard), reserved up front so the timed path does not reallocate.
class ArrivalSink final : public engine::DetectionSink {
 public:
  ArrivalSink(std::size_t shards, std::size_t reserve) : per_shard_(shards) {
    for (std::vector<Arrival>& v : per_shard_) {
      v.reserve(reserve);
    }
  }
  void on_detections(std::span<const engine::Detection> detections) override {
    const std::int64_t t = now_ns();
    for (const engine::Detection& d : detections) {
      per_shard_[engine::SessionHandle{d.session_id}.shard()].push_back(
          {d.session_id, static_cast<std::uint32_t>(d.window_index),
           static_cast<std::uint8_t>(d.label),
           static_cast<std::uint8_t>(d.alarm), t});
    }
  }
  const std::vector<std::vector<Arrival>>& arrivals() const {
    return per_shard_;
  }

 private:
  std::vector<std::vector<Arrival>> per_shard_;
};

struct Press {
  std::size_t session = 0;
  std::uint32_t window = 0;
  std::int64_t t_ns = 0;
};

/// One service with its 64 streaming sessions.
struct Fleet {
  std::unique_ptr<ArrivalSink> sink;
  std::unique_ptr<engine::DetectionService> service;
  std::vector<engine::SessionHandle> handles;
  std::vector<std::int64_t> round_start_ns;
  std::vector<Press> presses;
  std::size_t rounds = 0;
  std::size_t probes = 0;  // open/close pairs so far
  std::uint64_t calls = 0;
  std::uint64_t failed_calls = 0;
};

/// The 64 sessions on a service over `backend` (null: InlineBackend).
std::unique_ptr<Fleet> make_fleet(
    const StreamWorld& world,
    std::unique_ptr<engine::ExecutionBackend> backend, std::size_t reserve) {
  auto fleet = std::make_unique<Fleet>();
  engine::ServiceConfig config;
  config.shards = k_shards;
  fleet->service = std::make_unique<engine::DetectionService>(
      world.fleet, config, std::move(backend));
  fleet->sink = std::make_unique<ArrivalSink>(k_shards, reserve);
  fleet->service->set_detection_sink(fleet->sink.get());
  for (std::size_t s = 0; s < k_sessions; ++s) {
    fleet->handles.push_back(
        fleet->service->create_session(s, engine::SessionConfig{}));
  }
  return fleet;
}

/// One round: redeploy the fleet model onto one session, ingest one 1 s
/// chunk per session, flush. The chunk of round r completes window r - 3
/// of every session.
void run_round(Fleet& fleet, const StreamWorld& world, Tracer* tracer) {
  const std::size_t round = fleet.rounds++;
  const Tape& tape = *world.tape;
  const std::size_t per_second = tape.samples_per_second();
  fleet.round_start_ns.push_back(now_ns());
  if (round >= 3) {
    const std::size_t s = round % k_sessions;
    const std::int64_t t = now_ns();
    ++fleet.calls;
    if (attempt(fleet.failed_calls, [&] {
          Scope span(tracer, "engine.swap", round);
          fleet.service->swap_model(fleet.handles[s], world.fleet->model());
        })) {
      fleet.presses.push_back({s, static_cast<std::uint32_t>(round - 3), t});
    }
  }
  ++fleet.calls;
  attempt(fleet.failed_calls, [&] {
    for (std::size_t s = 0; s < k_sessions; ++s) {
      Scope span(tracer, "engine.ingest", round);
      const std::size_t second = phase_of(s, tape) + round;
      fleet.service->ingest(fleet.handles[s],
                            tape.chunk(second * per_second, per_second));
    }
    Scope span(tracer, "engine.flush", round);
    fleet.service->flush();
  });
}

/// A wearable connecting between rounds: one session opened and closed
/// on the live service. Returns the open's milliseconds, or -1 when a
/// call failed (counted). The fleet's own sessions never reconnect, so
/// this is what open_ms times on this workload.
double open_and_close(Fleet& fleet, Tracer* tracer) {
  const std::uint64_t request = fleet.probes++;
  fleet.calls += 2;
  engine::SessionHandle handle;
  const std::int64_t t0 = now_ns();
  const bool opened = attempt(fleet.failed_calls, [&] {
    Scope span(tracer, "engine.create", request);
    handle = fleet.service->create_session(k_sessions + request,
                                           engine::SessionConfig{});
  });
  const std::int64_t t1 = now_ns();
  if (!opened) {
    ++fleet.failed_calls;  // the close cannot be attempted
    return -1.0;
  }
  attempt(fleet.failed_calls, [&] {
    Scope span(tracer, "engine.close", request);
    fleet.service->close_session(handle);
  });
  return ms_of(t1 - t0);
}

/// Correctness and latency bookkeeping over everything the sink saw.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool selftest_ok = false;
  std::uint64_t detection_digest = 0;
  std::vector<double> detect_ms;
  std::vector<double> relearn_ms;
  std::uint64_t measured_windows = 0;
  std::uint64_t on_time = 0;
};

Verdict verify(const Fleet& fleet, const Tape& tape,
               const TapeReference& reference, std::size_t first_measured) {
  Verdict v;
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (std::size_t s = 0; s < k_sessions; ++s) {
    index_of[fleet.handles[s].value] = s;
  }
  std::vector<std::vector<Observed>> observed(k_sessions);
  std::vector<std::vector<std::int64_t>> arrived(k_sessions);
  for (const std::vector<Arrival>& shard : fleet.sink->arrivals()) {
    for (const Arrival& a : shard) {
      const auto it = index_of.find(a.session);
      if (it == index_of.end()) {
        ++v.failed;  // a detection for a session the benchmark never fed
        continue;
      }
      observed[it->second].push_back({a.window, a.label, a.alarm});
      arrived[it->second].push_back(a.t_ns);
    }
  }
  const std::size_t expected = fleet.rounds >= 3 ? fleet.rounds - 3 : 0;
  Digest digest;
  for (std::size_t s = 0; s < k_sessions; ++s) {
    const std::size_t phase = phase_of(s, tape);
    v.attempted += expected;
    v.failed += reference.check(phase, expected, observed[s]);
    std::vector<std::int64_t> at_window(expected, -1);
    for (std::size_t k = 0; k < observed[s].size(); ++k) {
      const Observed& o = observed[s][k];
      if (o.window < expected) {
        at_window[o.window] = arrived[s][k];
      }
      if (o.window + 3 < k_digest_rounds) {
        digest.value(s);
        digest_observed(digest, o);
      }
    }
    // Latency of the windows completed by measured rounds; a missing
    // window counts as late.
    for (std::size_t w = first_measured >= 3 ? first_measured - 3 : 0;
         w < expected; ++w) {
      ++v.measured_windows;
      if (at_window[w] < 0) {
        continue;
      }
      const double ms = ms_of(at_window[w] - fleet.round_start_ns[w + 3]);
      v.detect_ms.push_back(ms);
      v.on_time += ms <= k_latency_limit_ms ? 1 : 0;
    }
    for (const Press& p : fleet.presses) {
      if (p.session == s && p.window < expected && at_window[p.window] >= 0 &&
          p.window + 3 >= first_measured) {
        v.relearn_ms.push_back(ms_of(at_window[p.window] - p.t_ns));
      }
    }
  }
  v.attempted += fleet.calls;
  v.failed += fleet.failed_calls + reference.rule_drift();
  v.selftest_ok = reference.self_test(phase_of(0, tape), expected, observed[0]);
  v.detection_digest = digest.get();
  return v;
}

std::uint64_t input_digest(const Tape& tape) {
  Digest digest;
  tape.digest(digest);
  for (std::size_t s = 0; s < k_sessions; ++s) {
    digest.value(phase_of(s, tape));
  }
  return digest.get();
}

/// Replays the windows completed in `round` through the public feature,
/// dsp and ml calls, and checks the replayed labels against the
/// reference.
void replay_round(std::size_t round, const StreamWorld& world,
                  const TapeReference& reference, FeatureReplay& replay,
                  std::uint64_t& mismatches, Tracer* tracer) {
  if (round < 3) {
    return;
  }
  Scope span(tracer, "bench.replay", round);
  const Tape& tape = *world.tape;
  for (std::size_t s = 0; s < k_sessions; ++s) {
    replay.add(tape.window(phase_of(s, tape) + round - 3),
               tape.sample_rate_hz(), round, tracer);
  }
  const std::vector<int>& labels =
      replay.predict(*world.fleet->model(), round, tracer);
  for (std::size_t s = 0; s < k_sessions; ++s) {
    mismatches += labels[s] != reference.label_at(phase_of(s, tape) + round - 3)
                      ? 1
                      : 0;
  }
}

Outcome measure(const Options& options) {
  Outcome out;
  EndToEnd e2e;
  StreamWorld world;
  std::unique_ptr<Fleet> fleet;
  // Room for every detection of a run at up to ~12k windows/s.
  const auto reserve =
      static_cast<std::size_t>((options.seconds + 10.0) * 12000.0 / k_shards);
  for (std::size_t i = 0; i < k_setup_repeats; ++i) {
    fleet.reset();
    world = {};
    const std::int64_t t0 = now_ns();
    world = make_stream_world(options.seed);
    fleet = make_fleet(world, std::make_unique<engine::ThreadPoolBackend>(),
                       reserve);
    for (std::size_t r = 0; r < k_warmup_rounds; ++r) {
      run_round(*fleet, world, nullptr);
    }
    e2e.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const std::size_t before = fleet->service->stats().windows_classified;
  const std::int64_t begin = now_ns();
  const auto deadline = begin + static_cast<std::int64_t>(options.seconds * 1e9);
  std::int64_t probe_ns = 0;
  while (now_ns() < deadline) {
    const std::int64_t t0 = now_ns();
    run_round(*fleet, world, nullptr);
    const std::int64_t t1 = now_ns();
    e2e.round_ms.push_back(ms_of(t1 - t0));
    // Kept out of the stream's time.
    const double open_ms = open_and_close(*fleet, nullptr);
    if (open_ms >= 0.0) {
      e2e.open_ms.push_back(open_ms);
    }
    probe_ns += now_ns() - t1;
  }
  e2e.measured_s = static_cast<double>(now_ns() - begin - probe_ns) / 1e9;
  e2e.windows = fleet->service->stats().windows_classified - before;
  fleet->service->stop();

  const TapeReference reference(*world.tape, world.fleet,
                                engine::SessionConfig{});
  Verdict v = verify(*fleet, *world.tape, reference, k_warmup_rounds);
  e2e.detect_ms = std::move(v.detect_ms);
  e2e.relearn_ms = std::move(v.relearn_ms);
  e2e.expected_windows = v.measured_windows;
  e2e.on_time_windows = v.on_time;
  out.metrics = end_to_end_metrics(e2e);
  out.attempted = v.attempted;
  out.failed = v.failed;
  out.selftest_ok = v.selftest_ok;
  out.input_digest = input_digest(*world.tape);
  out.detection_digest = v.detection_digest;
  std::printf("fleet_stream: %zu sessions, %zu shards (threads), %zu rounds "
              "in %.2f s\n",
              k_sessions, k_shards, e2e.round_ms.size(), e2e.measured_s);
  return out;
}

/// Rounds streamed over the wire in the traced run.
constexpr std::size_t k_wire_rounds = 40;
/// Stats pings timed for net.rtt_ms_p50.
constexpr std::size_t k_rtt_pings = 200;

/// The net layer on this workload's traffic, for the traced run: the same
/// sessions and rounds through a RemoteBackend over a unix socket to an
/// in-process ShardServer (2 threaded shards), with spans around the
/// client's ingest (net.ingest) and flush (net.flush) calls, every chunk
/// also encoded and decoded with the public frame calls, and a stats ping
/// probe (net.rtt). Its detections are checked like the others.
struct WirePass {
  std::unique_ptr<Fleet> fleet;
  std::vector<double> flush_ms;
  std::uint64_t bytes = 0;
  std::uint64_t windows = 0;
};

WirePass run_wire_pass(const Options& options, const StreamWorld& world,
                       std::size_t reserve, Tracer& tracer) {
  WirePass pass;
  Scope replay(&tracer, "bench.replay", 0);
  net::ShardServerConfig config;
  config.address =
      platform::SocketAddress::parse("unix:" + options.out_dir + "/fleet.sock");
  config.service.shards = k_shards;
  config.threaded_backend = true;
  net::ShardServer server(world.fleet, config);
  server.start();
  pass.fleet = make_fleet(
      world, std::make_unique<net::RemoteBackend>(server.address()), reserve);
  Fleet& fleet = *pass.fleet;
  const Tape& tape = *world.tape;
  const std::size_t per_second = tape.samples_per_second();
  std::vector<std::byte> frame;
  for (std::size_t r = 0; r < k_wire_rounds; ++r) {
    const std::size_t round = fleet.rounds++;
    fleet.round_start_ns.push_back(now_ns());
    ++fleet.calls;
    attempt(fleet.failed_calls, [&] {
      for (std::size_t s = 0; s < k_sessions; ++s) {
        const std::vector<std::span<const Real>> chunk = tape.chunk(
            (phase_of(s, tape) + round) * per_second, per_second);
        {
          Scope span(&tracer, "net.ingest", round);
          fleet.service->ingest(fleet.handles[s], chunk);
        }
        {
          Scope span(&tracer, "net.encode", round);
          net::encode_chunk(frame, fleet.handles[s].value, round, chunk);
        }
        {
          Scope span(&tracer, "net.decode", round);
          (void)net::decode_chunk(net::parse_frame(frame));
        }
        pass.bytes += frame.size();
        frame.clear();
      }
      const std::int64_t t0 = now_ns();
      {
        Scope span(&tracer, "net.flush", round);
        fleet.service->flush();
      }
      pass.flush_ms.push_back(ms_of(now_ns() - t0));
    });
    pass.windows += round >= 3 ? k_sessions : 0;
  }
  // Detection records travel back in kDetections frames.
  pass.bytes += pass.windows * sizeof(net::WireDetection);
  net::ShardClient pinger;
  pinger.connect(server.address());
  for (std::size_t k = 0; k < k_rtt_pings; ++k) {
    Scope span(&tracer, "net.rtt", k);
    (void)pinger.stats();
  }
  pinger.close();
  fleet.service->stop();
  server.stop();
  return pass;
}

/// Traced run: the same rounds with the shards on the caller thread
/// (InlineBackend), untraced first (the baseline), then traced with the
/// layer replay and the wire pass.
Outcome trace(const Options& options) {
  Outcome out;
  const StreamWorld world = make_stream_world(options.seed);
  const TapeReference reference(*world.tape, world.fleet,
                                engine::SessionConfig{});
  const auto reserve =
      static_cast<std::size_t>((options.seconds + 10.0) * 6000.0);

  std::unique_ptr<Fleet> base = make_fleet(world, nullptr, reserve);
  for (std::size_t r = 0; r < k_warmup_rounds; ++r) {
    run_round(*base, world, nullptr);
  }
  const std::size_t base_windows0 = base->service->stats().windows_classified;
  std::int64_t t0 = now_ns();
  const auto deadline =
      t0 + static_cast<std::int64_t>(0.3 * options.seconds * 1e9);
  while (now_ns() < deadline) {
    run_round(*base, world, nullptr);
    (void)open_and_close(*base, nullptr);
  }
  const std::size_t rounds = base->rounds - k_warmup_rounds;
  TraceInputs in;
  in.untraced_wall_ns = now_ns() - t0;
  in.baseline_windows_per_s =
      static_cast<double>(base->service->stats().windows_classified -
                          base_windows0) /
      (static_cast<double>(in.untraced_wall_ns) / 1e9);

  std::unique_ptr<Fleet> traced = make_fleet(world, nullptr, reserve);
  for (std::size_t r = 0; r < k_warmup_rounds; ++r) {
    run_round(*traced, world, nullptr);
  }
  const engine::EngineStats stats0 = traced->service->stats();
  Tracer tracer;
  FeatureReplay replay;
  std::uint64_t mismatches = 0;
  t0 = now_ns();
  for (std::size_t r = 0; r < rounds; ++r) {
    run_round(*traced, world, &tracer);
    (void)open_and_close(*traced, &tracer);
    replay_round(traced->rounds - 1, world, reference, replay, mismatches,
                 &tracer);
  }
  const engine::EngineStats stats1 = traced->service->stats();
  const WirePass wire = run_wire_pass(options, world, reserve, tracer);
  in.traced_wall_ns = now_ns() - t0;
  in.windows = stats1.windows_classified - stats0.windows_classified;
  in.batches = stats1.batches - stats0.batches;
  in.forest_rows = stats1.forest_windows - stats0.forest_windows;
  in.predicted_rows = replay.predicted_rows();
  in.net_flush_ms_mean = mean_of(wire.flush_ms);
  in.net_bytes_per_window =
      wire.windows == 0 ? 0.0
                        : static_cast<double>(wire.bytes) /
                              static_cast<double>(wire.windows);
  out.metrics = trace_metrics(options, tracer, in);

  const Verdict vb = verify(*base, *world.tape, reference, k_warmup_rounds);
  const Verdict vt = verify(*traced, *world.tape, reference, k_warmup_rounds);
  const Verdict vw = verify(*wire.fleet, *world.tape, reference, 0);
  out.attempted = vb.attempted + vt.attempted + vw.attempted +
                  replay.predicted_rows();
  out.failed = vb.failed + vt.failed + vw.failed + mismatches;
  out.selftest_ok = vb.selftest_ok && vt.selftest_ok && vw.selftest_ok;
  out.input_digest = input_digest(*world.tape);
  out.detection_digest = vt.detection_digest;
  std::printf("fleet_stream trace: %zu rounds inline, baseline %.0f "
              "windows/s single-threaded\n",
              rounds, in.baseline_windows_per_s);
  return out;
}

}  // namespace

Outcome run_fleet_stream(const Options& options) {
  return options.trace ? trace(options) : measure(options);
}

}  // namespace perfbench
