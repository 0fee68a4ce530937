// snapstab_perf — one command for the end-to-end and per-layer numbers of
// the svc session API on the Simulator, the mailbox ThreadRuntime and the
// UDP SocketRuntime.
//
//   snapstab_perf --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//                 [--smoke] [--out-dir <dir>] [--sha <sha>]
//
// --trace 0 measures for --seconds and prints every end-to-end metric.
// --trace 1 runs the same phase untraced, then again with spans on, then
// the layer probes, and prints every per-layer metric plus trace_overhead;
// it also writes <out-dir>/<workload>-seed<n>.trace.json (Chrome trace).
// Every run writes <out-dir>/<workload>-seed<n>[-trace].json and prints, as
// its last stdout line, {"correct", "attempted", "failed", "metrics"}. Any
// wrong session result or failed check exits 1. See bench/perf/README.md.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "load/workload.hpp"
#include "perf.hpp"
#include "probes.hpp"
#include "rounds.hpp"

#ifndef SNAPSTAB_PERF_SHA
#define SNAPSTAB_PERF_SHA "unknown"
#endif
#ifndef SNAPSTAB_PERF_BUILD_TYPE
#define SNAPSTAB_PERF_BUILD_TYPE "unknown"
#endif

namespace snapstab::perf {
namespace {

constexpr std::uint64_t kAll = ~std::uint64_t{0};

// Quantile q of v, interpolating linearly between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;  // 1/50 for --smoke
  std::string trace_path;  // Chrome-trace file of a traced run
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += (i == 0 ? "" : ", ") + json_number(v[i]);
  return s + "]";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string metrics_json(const MetricSet& m) {
  std::string s = "{";
  for (std::size_t i = 0; i < m.all().size(); ++i) {
    const Metric& x = m.all()[i];
    if (i != 0) s += ", ";
    s += json_string(x.name) + ": {\"value\": " + json_number(x.value) +
         ", \"unit\": " + json_string(x.unit) + "}";
  }
  return s + "}";
}

bool all_finite(const MetricSet& m) {
  for (const Metric& x : m.all())
    if (!std::isfinite(x.value)) return false;
  return true;
}

// What a workload produced. `e2e` is filled by every run, `layer` only by
// traced runs.
struct Outcome {
  MetricSet e2e;
  MetricSet layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failed_checks;
  std::uint64_t latency_samples = 0;
  std::uint64_t step_samples = 0;
  std::string segments_json = "{}";  // per-segment values, for the run file

  void check(bool ok, const std::string& what) {
    if (!ok) failed_checks.push_back(what);
  }
};

// One measured segment of a phase: what the end-to-end time metrics are
// computed on.
struct Segment {
  std::uint64_t ok = 0;  // sessions Done with the right result
  std::uint64_t wall_ns = 0;
  load::LatencyHistogram latency_ns;
};

// A phase is cut into segments, and each end-to-end time metric reports a
// "best" quantile over them: quantile 1 - best of the per-segment
// throughputs, quantile `best` of the per-segment latency percentiles and
// of the set-up times. Other tenants of a shared machine only ever slow a
// segment down, so the best segments track the code and not the
// neighbours, while a change that slows every segment still moves them.
//
// The Simulator workloads are single-threaded and CPU-bound, and follow
// the machine's speed closely: on a shared 4-vCPU VM their throughput
// switches between two levels about 1.6x apart, in phases of one to a few
// seconds. They use short segments and their best 5%, so a run reports
// the fast level whenever about a second of it falls inside the run. The
// live workloads are paced by sleeps, polls and the kernel and use 10
// segments and their best quartile.
struct Timing {
  int segments = 10;
  double best = 0.25;
};
constexpr double kSimSegmentS = 0.25;  // sim_rounds segment length
constexpr double kSimBest = 0.05;

Timing sim_timing(double seconds) {
  return Timing{std::max(10, static_cast<int>(std::lround(seconds / kSimSegmentS))),
                kSimBest};
}

void set_e2e(Outcome& out, const std::vector<Segment>& segments,
             const load::LatencyHistogram& steps,
             const std::vector<double>& setup_s, double best) {
  std::vector<double> rate, p50, p99, p999;
  for (const Segment& s : segments) {
    rate.push_back(ratio(static_cast<double>(s.ok),
                         static_cast<double>(s.wall_ns) / 1e9));
    p50.push_back(percentile(s.latency_ns, 50) / 1e6);
    p99.push_back(percentile(s.latency_ns, 99) / 1e6);
    p999.push_back(percentile(s.latency_ns, 99.9) / 1e6);
    out.latency_samples += s.latency_ns.count();
  }
  out.step_samples = steps.count();
  out.segments_json = "{\"sessions_per_s\": " + json_array(rate) +
                      ", \"latency_p50_ms\": " + json_array(p50) +
                      ", \"latency_p99_ms\": " + json_array(p99) +
                      ", \"latency_p999_ms\": " + json_array(p999) +
                      ", \"setup_s\": " + json_array(setup_s) + "}";
  MetricSet& m = out.e2e;
  m.set("sessions_per_s", quantile(rate, 1.0 - best), "sessions/s");
  m.set("latency_p50_ms", quantile(p50, best), "ms");
  m.set("latency_p99_ms", quantile(p99, best), "ms");
  m.set("latency_p50_steps", percentile(steps, 50), "steps");
  m.set("latency_p99_steps", percentile(steps, 99), "steps");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  m.set("setup_s", quantile(setup_s, best), "s");
}

// Sessions per second over a whole phase.
double phase_rate(const std::vector<Segment>& segments) {
  std::uint64_t ok = 0, wall = 0;
  for (const Segment& s : segments) {
    ok += s.ok;
    wall += s.wall_ns;
  }
  return ratio(static_cast<double>(ok), static_cast<double>(wall));
}

// Layer metrics of the live backends; zero where the workload does not
// use the layer.
void set_live_layers(MetricSet& m, const RoundsStats& s, int n, bool live) {
  const double sessions = static_cast<double>(s.sessions);
  const auto& w = s.wire;
  const double sent = static_cast<double>(w.datagrams_sent);
  const double received =
      static_cast<double>(w.datagrams_received) - static_cast<double>(s.injected);
  m.set("net.datagrams_per_session", ratio(sent, sessions), "count");
  m.set("net.delivered_ratio", ratio(static_cast<double>(w.delivered), sent),
        "ratio");
  m.set("net.unreceived_ratio", ratio(sent - received, sent), "ratio");
  m.set("net.rx_queue_bytes_p50", percentile(s.rx_queue_bytes, 50), "bytes");
  m.set("net.rx_queue_bytes_max", static_cast<double>(s.rx_queue_bytes.max()),
        "bytes");
  m.set("net.kernel_drops_per_session",
        ratio(static_cast<double>(s.kernel_drops), sessions), "count");
  m.set("net.loss_drops_per_session",
        ratio(static_cast<double>(w.loss_drops), sessions), "count");
  m.set("net.rejected_frames", static_cast<double>(w.rejected_frames),
        "count");
  const double pushes =
      static_cast<double>(s.mailbox_pushed + s.mailbox_lost_on_full);
  m.set("mailbox.pushes_per_session", ratio(pushes, sessions), "count");
  m.set("mailbox.lost_on_full_ratio",
        ratio(static_cast<double>(s.mailbox_lost_on_full), pushes), "ratio");
  m.set("process.cpu_ms_per_session",
        ratio(static_cast<double>(s.process.cpu_ns) / 1e6, sessions), "ms");
  const double wall = static_cast<double>(s.wall_ns);
  const double node_cpu =
      live ? static_cast<double>(s.process.cpu_ns - s.driver.cpu_ns) : 0.0;
  m.set("live.node_cpu_share", ratio(node_cpu, wall * n), "ratio");
  m.set("live.driver_cpu_share",
        ratio(static_cast<double>(s.driver.cpu_ns), wall), "ratio");
  m.set("live.ctx_switches_per_session",
        ratio(static_cast<double>(s.process.ctx_switches), sessions), "count");
  m.set("live.observations_per_session",
        ratio(static_cast<double>(s.live_observations), sessions), "count");
}

void set_svc_layers(MetricSet& m, Tracer& tr, const RoundsStats& s) {
  m.set("svc.submit_us", percentile(tr.durations(SpanKind::Submit), 50) / 1e3,
        "us");
  m.set("svc.release_us",
        percentile(tr.durations(SpanKind::Release), 50) / 1e3, "us");
  m.set("svc.await_ms", percentile(tr.durations(SpanKind::Await), 50) / 1e6,
        "ms");
  m.set("svc.await_overshoot_ms", percentile(s.overshoot_ns, 50) / 1e6, "ms");
  m.set("round.self_us", percentile(tr.round_self(), 50) / 1e3, "us");
  m.set("runtime.construct_us",
        percentile(tr.durations(SpanKind::Construct), 50) / 1e3, "us");
}

void set_sim_layers(MetricSet& m, const RoundsStats& twin) {
  m.set("sim.ns_per_step",
        ratio(static_cast<double>(twin.await_ns),
              static_cast<double>(twin.steps)),
        "ns");
  m.set("sim.steps_per_session",
        ratio(static_cast<double>(twin.steps),
              static_cast<double>(twin.sessions)),
        "steps");
  m.set("sim.observations_per_session",
        ratio(static_cast<double>(twin.observations),
              static_cast<double>(twin.sessions)),
        "count");
}

void set_probe_layers(MetricSet& m, const ProbeResult& p) {
  m.set("sim.draw_ns", p.draw_ns, "ns");
  m.set("sim.execute_ns", p.execute_ns, "ns");
  m.set("msg.encode_ns", p.encode_ns, "ns");
  m.set("msg.decode_ns", p.decode_ns, "ns");
  m.set("net.frame_encode_ns", p.frame_encode_ns, "ns");
  m.set("net.frame_decode_ns", p.frame_decode_ns, "ns");
  m.set("net.sendto_ns", p.sendto_ns, "ns");
  m.set("net.recv_ns", p.recv_ns, "ns");
  m.set("mailbox.push_ns", p.push_ns, "ns");
  m.set("mailbox.pop_ns", p.pop_ns, "ns");
}

// The round script on a Simulator world of `shape`, for a fixed number of
// rounds from a fresh world: the engine-layer numbers of every workload.
struct Twin {
  RoundsStats stats;
  Tracer tracer{true};
};

Twin run_twin(const BackendSpec& shape, std::uint64_t rounds, Outcome& out) {
  Twin twin;
  BackendSpec spec = shape;
  spec.kind = BackendKind::Simulator;
  spec.loss_rate = 0.0;
  RoundScript script(spec, false, 0);
  script.setup(1, 0, twin.tracer);
  twin.stats = script.run(1e9, rounds, rounds, twin.tracer);
  out.check(twin.stats.ok == twin.stats.sessions,
            "simulator twin: every session Done with the right result");
  return twin;
}

// --- sim_load --------------------------------------------------------------

// exp_load's `mixed` closed loop on ring/32, run as a sequence of fixed
// chunks. Chunk k's world derives from (seed, k) only.
load::WorkloadSpec sim_load_spec(std::uint64_t seed, std::uint64_t chunk,
                                 double scale) {
  load::WorkloadSpec spec;
  spec.topology = "ring";
  spec.n = 32;
  spec.channel_capacity = 1;
  spec.set_weight(svc::ServiceId::PifBroadcast, 4);
  spec.set_weight(svc::ServiceId::Idl, 2);
  spec.set_weight(svc::ServiceId::Snapshot, 1);
  spec.set_weight(svc::ServiceId::TermDetect, 1);
  spec.set_weight(svc::ServiceId::Election, 1);
  spec.concurrency = 1024;
  spec.warmup = scaled(10'000, scale);
  spec.measure = scaled(140'000, scale);  // about half a second per chunk
  spec.record_wall = true;
  std::uint64_t mix = seed ^ (0x9E3779B97F4A7C15ull * (chunk + 1));
  spec.seed = splitmix64(mix);
  return spec;
}

// Step metrics come from the first kStepChunks chunks of a phase, which
// every run reaches, so they are identical for the same seed.
constexpr std::uint64_t kStepChunks = 4;

// Set-ups repeated per run of a Simulator workload, spread over the phase
// so that they sample the machine's phases as the segments do.
constexpr int kSimSetupReps = 10;

// The i-th of `reps` set-ups is due once the phase is i/reps through.
bool setup_due(std::size_t done, int reps, double progress) {
  return done < static_cast<std::size_t>(reps) &&
         progress >= static_cast<double>(done) / reps;
}

// One sim_load set-up: a warm-up-only run_sharded of the chunk spec.
double sim_load_setup(const Options& o, Outcome& out) {
  load::WorkloadSpec warm = sim_load_spec(o.seed, kAll, o.scale);
  warm.measure = 0;
  const std::uint64_t t0 = now_ns();
  const load::LoadReport r = load::run_sharded(warm, 1, 1);
  const double s = static_cast<double>(now_ns() - t0) / 1e9;
  out.check(!r.total.stalled && !r.total.hit_step_budget,
            "sim_load warmup: no stall or step-budget hit");
  return s;
}

// A phase of sim_load: one Segment per chunk.
struct LoadPhase {
  std::vector<Segment> chunks;
  std::uint64_t completed = 0;
  std::uint64_t target = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t steps = 0;
  load::LatencyHistogram latency_steps;  // first kStepChunks chunks
  std::uint64_t det_steps = 0, det_completed = 0;
  std::uint64_t det_submitted = 0, det_coalesced = 0;
  Usage process;
  bool clean = true;  // no stall, no step-budget hit, no refusal
};

// Runs chunks until the next one would end past `seconds`. With `setup`,
// also runs `setup_reps` set-ups spread over the phase, between chunks,
// and appends their times.
LoadPhase run_load_phase(const Options& o, double seconds, Tracer& tr,
                         int setup_reps, std::vector<double>* setup,
                         Outcome& out) {
  LoadPhase ph;
  const Usage p0 = process_usage();
  const std::uint64_t t0 = now_ns();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint64_t k = 0;; ++k) {
    while (setup != nullptr &&
           setup_due(setup->size(), setup_reps,
                     static_cast<double>(now_ns() - t0) /
                         static_cast<double>(budget)))
      setup->push_back(sim_load_setup(o, out));
    const load::WorkloadSpec spec = sim_load_spec(o.seed, k, o.scale);
    const std::uint64_t c0 = now_ns();
    const load::LoadReport r = load::run_sharded(spec, 1, 1);
    const std::uint64_t c1 = now_ns();
    tr.record(SpanKind::Chunk, c0, c1);
    const load::ShardResult& t = r.total;
    ph.chunks.push_back(
        Segment{t.counters.completed, r.harness_wall_ns, t.wall_hist});
    ph.target += spec.warmup + spec.measure;
    ph.completed += t.counters.completed;
    ph.wall_ns += r.harness_wall_ns;
    ph.steps += t.steps;
    ph.clean = ph.clean && !t.stalled && !t.hit_step_budget &&
               t.counters.refused == 0 && t.counters.failed == 0 &&
               t.counters.completed >= spec.warmup + spec.measure;
    if (k < kStepChunks) {
      ph.latency_steps.merge(t.steps_hist);
      ph.det_steps += t.steps;
      ph.det_completed += t.counters.completed;
      ph.det_submitted += t.counters.submitted;
      ph.det_coalesced += t.counters.coalesced;
    }
    if (c1 - t0 + (c1 - c0) > budget) break;
  }
  ph.process = usage_delta(p0, process_usage());
  return ph;
}

void run_sim_load(const Options& o, Outcome& out) {
  // A traced run splits --seconds between its untraced and traced phases.
  const double seconds = o.trace ? o.seconds / 2 : o.seconds;
  Tracer off(false);
  std::vector<double> setup;
  const LoadPhase ph = run_load_phase(
      o, seconds, off, o.scale < 1.0 ? 1 : kSimSetupReps, &setup, out);
  out.attempted = ph.target;
  out.failed = ph.target - std::min(ph.target, ph.completed);
  out.check(ph.clean, "sim_load: no stall, step-budget hit or refusal");
  set_e2e(out, ph.chunks, ph.latency_steps, setup, kSimBest);
  if (!o.trace) return;

  Tracer tr(true);
  const Usage d0 = thread_usage();
  const LoadPhase traced = run_load_phase(o, seconds, tr, 0, nullptr, out);
  const double driver_cpu =
      static_cast<double>(thread_usage().cpu_ns - d0.cpu_ns);
  out.attempted += traced.target;
  out.failed += traced.target - std::min(traced.target, traced.completed);
  out.check(traced.clean, "sim_load traced: no stall, step-budget hit or refusal");
  out.check(tr.write_chrome(o.trace_path), "Chrome trace written");
  out.layer.set("trace_overhead",
                1.0 - ratio(phase_rate(traced.chunks), phase_rate(ph.chunks)),
                "ratio");

  // The load generator keeps its sessions inside the library; the svc and
  // observation numbers come from the round script on the same world shape.
  const BackendSpec shape{BackendKind::Simulator, "ring", 32, true, o.seed, 0.0};
  Twin twin = run_twin(shape, scaled(2'000, o.scale), out);
  set_svc_layers(out.layer, twin.tracer, twin.stats);
  set_sim_layers(out.layer, twin.stats);
  out.layer.set("sim.ns_per_step",
                ratio(static_cast<double>(traced.wall_ns),
                      static_cast<double>(traced.steps)),
                "ns");
  out.layer.set("sim.steps_per_session",
                ratio(static_cast<double>(traced.det_steps),
                      static_cast<double>(traced.det_completed)),
                "steps");
  out.layer.set("load.coalesced_ratio",
                ratio(static_cast<double>(traced.det_coalesced),
                      static_cast<double>(traced.det_submitted)),
                "ratio");
  // No live runtime: the live layers read zero, the driver's share is real.
  RoundsStats usage;
  usage.sessions = traced.completed;
  usage.wall_ns = traced.wall_ns;
  usage.process = traced.process;
  usage.driver.cpu_ns = static_cast<std::uint64_t>(driver_cpu);
  set_live_layers(out.layer, usage, 0, false);
  const ProbeResult probes = run_probes(shape, o.scale);
  out.check(probes.ok, "layer probes: every round trip returned its input");
  set_probe_layers(out.layer, probes);
}

// --- the round-script workloads --------------------------------------------

struct RoundsWorkload {
  BackendSpec spec;
  bool fresh_per_round = false;
  int inject_per_round = 0;
  int setup_reps = 3;
  int warmup_rounds = 1;
  std::uint64_t step_rounds = kAll;
};

void run_rounds(const Options& o, const RoundsWorkload& w, Outcome& out) {
  const bool live = w.spec.kind != BackendKind::Simulator;
  const bool lossy = w.inject_per_round > 0;
  // A traced run splits --seconds between its untraced and traced phases.
  const double seconds = o.trace ? o.seconds / 2 : o.seconds;
  const Timing timing = live ? Timing{} : sim_timing(seconds);
  const int reps = o.scale < 1.0 ? 1 : w.setup_reps;
  const auto warmup = static_cast<int>(
      scaled(static_cast<std::uint64_t>(w.warmup_rounds), o.scale));
  Tracer off(false);
  Tracer tr(o.trace);
  RoundScript script(w.spec, w.fresh_per_round, w.inject_per_round);
  // A live backend's node threads would compete with a second one, so the
  // live workloads repeat their set-up up front. On the Simulator, every
  // set-up but the first builds a spare world between segments.
  std::vector<double> setup = script.setup(live ? reps : 1, warmup, tr);
  std::uint64_t step_rounds =
      w.step_rounds == kAll ? kAll : scaled(w.step_rounds, o.scale);
  std::vector<Segment> segments;
  load::LatencyHistogram steps;
  for (int i = 0; i < timing.segments && !script.broken(); ++i) {
    while (!live && setup_due(setup.size(), reps,
                              static_cast<double>(i) / timing.segments)) {
      RoundScript spare(w.spec, w.fresh_per_round, w.inject_per_round);
      setup.push_back(spare.setup(1, warmup, off).front());
    }
    const RoundsStats st =
        script.run(seconds / timing.segments, kAll, step_rounds, off);
    step_rounds -= std::min(step_rounds, st.rounds);
    segments.push_back(Segment{st.ok, st.wall_ns, st.latency_ns});
    steps.merge(st.latency_steps);
    out.attempted += st.sessions;
    out.failed += st.sessions - st.ok;
  }
  out.check(!script.broken(), "every round's await returned Done");
  set_e2e(out, segments, steps, setup, timing.best);

  RoundsStats traced;
  if (o.trace) {
    traced = script.run(seconds, kAll, kAll, tr);
    out.attempted += traced.sessions;
    out.failed += traced.sessions - traced.ok;
    out.check(!script.broken(), "every traced round's await returned Done");
    out.check(tr.write_chrome(o.trace_path), "Chrome trace written");
    out.layer.set("trace_overhead",
                  1.0 - ratio(ratio(static_cast<double>(traced.ok),
                                    static_cast<double>(traced.wall_ns)),
                              phase_rate(segments)),
                  "ratio");
  }
  if (lossy) {
    // The hostile datagrams of the last round may still sit in a socket
    // buffer: give the node threads time to drain them.
    net::SocketRuntime& srt = *script.backend()->socket;
    const std::uint64_t deadline = now_ns() + 2'000'000'000ull;
    while (srt.wire_stats().rejected_frames < script.injected_total() &&
           now_ns() < deadline)
      usleep(1000);
    const net::SocketRuntime::WireStats ws = srt.wire_stats();
    out.check(ws.loss_drops > 0, "udp_lossy: the loss filter dropped datagrams");
    out.check(ws.bad_edge == 0, "udp_lossy: no frame named a foreign edge");
    out.check(ws.rejected_frames == script.injected_total(),
              "udp_lossy: rejected frames == injected datagrams (" +
                  std::to_string(ws.rejected_frames) + " vs " +
                  std::to_string(script.injected_total()) + ")");
  }
  if (!o.trace) return;

  set_svc_layers(out.layer, tr, traced);
  BackendSpec shape = w.spec;
  shape.kind = BackendKind::Simulator;
  const Twin twin = run_twin(shape, scaled(20'000, o.scale), out);
  set_sim_layers(out.layer, twin.stats);
  out.layer.set("load.coalesced_ratio",
                ratio(static_cast<double>(traced.coalesced),
                      static_cast<double>(traced.sessions)),
                "ratio");
  set_live_layers(out.layer, traced, w.spec.n, live);
  const ProbeResult probes = run_probes(shape, o.scale);
  out.check(probes.ok, "layer probes: every round trip returned its input");
  set_probe_layers(out.layer, probes);
}

bool rounds_workload(const std::string& name, std::uint64_t seed,
                     RoundsWorkload& w) {
  w.spec.topology = "complete";
  w.spec.n = 3;
  w.spec.seed = seed;
  if (name == "sim_rounds") {
    w.spec.kind = BackendKind::Simulator;
    w.setup_reps = kSimSetupReps;
    w.warmup_rounds = 2'000;
    w.step_rounds = 100'000;
  } else if (name == "mailbox_rounds") {
    w.spec.kind = BackendKind::Mailbox;
    w.fresh_per_round = true;  // ThreadRuntime is one-shot
    w.setup_reps = 5;
    w.warmup_rounds = 40;
  } else if (name == "udp_rounds" || name == "udp_lossy") {
    w.spec.kind = BackendKind::Udp;
    w.setup_reps = 3;
    w.warmup_rounds = 3;
    if (name == "udp_lossy") {
      w.spec.loss_rate = 0.10;
      w.inject_per_round = 8;  // 4 noise + 4 corrupted frames
    }
  } else {
    return false;
  }
  return true;
}

}  // namespace
}  // namespace snapstab::perf

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::perf;
  const CliArgs args(argc, argv, {"workload", "seed", "seconds", "trace",
                                  "smoke", "out-dir", "sha"});
  Options o;
  o.workload = args.get("workload", "");
  o.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  o.seconds = args.get_double("seconds", 10.0);
  o.trace = args.get_int("trace", 0) != 0;
  if (args.get_bool("smoke")) o.scale = 1.0 / 50.0;
  o.seconds *= o.scale;
  const std::string out_dir = args.get("out-dir", ".");
  const std::string sha = args.get("sha", SNAPSTAB_PERF_SHA);
  const std::string stem = out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed);
  o.trace_path = stem + ".trace.json";

  Outcome out;
  RoundsWorkload rw;
  if (o.workload == "sim_load") {
    run_sim_load(o, out);
  } else if (rounds_workload(o.workload, o.seed, rw)) {
    run_rounds(o, rw, out);
  } else {
    std::fprintf(stderr,
                 "unknown --workload '%s' (sim_load, sim_rounds, "
                 "mailbox_rounds, udp_rounds, udp_lossy)\n",
                 o.workload.c_str());
    return 2;
  }
  out.check(out.failed == 0, "every session Done with the right result");
  out.check(out.attempted > 0, "at least one session ran");
  const MetricSet& shown = o.trace ? out.layer : out.e2e;
  out.check(all_finite(shown), "every metric is a finite number");
  const bool correct = out.failed_checks.empty();

  std::printf("snapstab_perf %s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  for (const Metric& m : shown.all())
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  sessions attempted %llu, failed %llu, latency samples %llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.latency_samples));
  for (const std::string& c : out.failed_checks)
    std::printf("  FAILED CHECK: %s\n", c.c_str());

  const std::string result_path = stem + (o.trace ? "-trace" : "") + ".json";
  std::string checks = "[";
  for (std::size_t i = 0; i < out.failed_checks.size(); ++i)
    checks += (i == 0 ? "" : ", ") + json_string(out.failed_checks[i]);
  checks += "]";
  if (std::FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::fprintf(
        f,
        "{\"benchmark\": \"snapstab_perf\", \"meta\": {\"sha\": %s, "
        "\"build_type\": %s, \"nproc\": %ld, \"workload\": %s, \"seed\": "
        "%llu, \"seconds\": %s, \"trace\": %d, \"smoke\": %s}, "
        "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"failed_checks\": %s, \"latency_samples\": %llu, "
        "\"step_samples\": %llu, \"segments\": %s, \"metrics\": %s}\n",
        json_string(sha).c_str(), json_string(SNAPSTAB_PERF_BUILD_TYPE).c_str(),
        sysconf(_SC_NPROCESSORS_ONLN), json_string(o.workload).c_str(),
        static_cast<unsigned long long>(o.seed), json_number(o.seconds).c_str(),
        o.trace ? 1 : 0, o.scale < 1.0 ? "true" : "false",
        correct ? "true" : "false",
        static_cast<unsigned long long>(out.attempted),
        static_cast<unsigned long long>(out.failed), checks.c_str(),
        static_cast<unsigned long long>(out.latency_samples),
        static_cast<unsigned long long>(out.step_samples),
        out.segments_json.c_str(), metrics_json(shown).c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", result_path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              metrics_json(shown).c_str());
  return correct ? 0 : 1;
}
