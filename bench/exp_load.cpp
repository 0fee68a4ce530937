// exp_load — Experiment E14 (extension): the million-session sharded load
// generator (src/load/) driving the svc session API at production
// intensity.
//
// The paper proves snap-stabilizing PIF safe from any configuration; the
// services built on it only earn a production-scale claim when the svc
// layer demonstrably holds its latency/throughput envelope under 10^5+
// concurrent sessions. This experiment sweeps the workload space —
// service mix x arrival model x topology size x shard count — and reports
// saturation throughput plus p50/p90/p99/p999 submit->Done latency from
// the mergeable log-scale histogram. The sharded runs double as the
// determinism demonstration: the aggregate JSON is bit-identical for any
// --threads, pinned here as a verdict and in tests/test_load.cpp.
#include <string>
#include <thread>
#include <vector>

#include "exp_common.hpp"
#include "load/workload.hpp"

namespace snapstab::bench {
namespace {

using load::LoadReport;
using load::WorkloadSpec;
using svc::ServiceId;

WorkloadSpec base_spec(const std::string& mix) {
  WorkloadSpec spec;
  if (mix == "pif") {
    spec.set_weight(ServiceId::PifBroadcast, 1);
  } else if (mix == "mixed") {
    spec.set_weight(ServiceId::PifBroadcast, 4);
    spec.set_weight(ServiceId::Idl, 2);
    spec.set_weight(ServiceId::Snapshot, 1);
    spec.set_weight(ServiceId::TermDetect, 1);
    spec.set_weight(ServiceId::Election, 1);
  } else if (mix == "forward") {
    spec.set_weight(ServiceId::PifBroadcast, 1);
    spec.set_weight(ServiceId::ForwardMsg, 3);
  } else if (mix == "cs") {
    spec.set_weight(ServiceId::CriticalSection, 1);
  } else {
    std::fprintf(stderr, "unknown mix %s\n", mix.c_str());
    std::exit(1);
  }
  return spec;
}

double per_sec(std::uint64_t count, std::uint64_t wall_ns) {
  return wall_ns == 0 ? 0.0
                      : static_cast<double>(count) * 1e9 /
                            static_cast<double>(wall_ns);
}

std::string json_cell(const WorkloadSpec& spec, const LoadReport& r,
                      const std::string& label) {
  const load::LatencyHistogram& h = r.total.steps_hist;
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"label\":\"%s\",\"concurrency\":%llu,\"completed\":%llu,"
      "\"coalesced\":%llu,\"p50\":%llu,\"p90\":%llu,\"p99\":%llu,"
      "\"p999\":%llu,\"steps\":%llu,\"sessions_per_sec\":%.0f,"
      "\"steps_per_sec\":%.0f}",
      label.c_str(), static_cast<unsigned long long>(spec.concurrency),
      static_cast<unsigned long long>(r.total.counters.completed),
      static_cast<unsigned long long>(r.total.counters.coalesced),
      static_cast<unsigned long long>(h.percentile(50)),
      static_cast<unsigned long long>(h.percentile(90)),
      static_cast<unsigned long long>(h.percentile(99)),
      static_cast<unsigned long long>(h.percentile(99.9)),
      static_cast<unsigned long long>(r.total.steps),
      per_sec(r.total.counters.completed, r.harness_wall_ns),
      per_sec(r.total.steps, r.harness_wall_ns));
  return buf;
}

}  // namespace
}  // namespace snapstab::bench

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::bench;
  CliArgs args(argc, argv,
               {"smoke", "shards", "threads", "n", "topology", "concurrency",
                "measure", "warmup", "seed", "check_every", "json"});
  const bool smoke = args.get_bool("smoke");
  const int shards = static_cast<int>(args.get_int("shards", smoke ? 2 : 8));
  const unsigned hw = std::thread::hardware_concurrency();
  const int threads = static_cast<int>(
      args.get_int("threads", hw != 0 ? static_cast<int>(hw) : 1));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 14000));
  const std::string topology = args.get("topology", "ring");
  const int n = static_cast<int>(args.get_int("n", smoke ? 8 : 32));
  const auto measure = static_cast<std::uint64_t>(
      args.get_int("measure", smoke ? 256 : 20'000));
  const auto warmup = static_cast<std::uint64_t>(
      args.get_int("warmup", smoke ? 32 : 2'000));
  const int check_every =
      static_cast<int>(args.get_int("check_every", 64));

  banner("E14: exp_load",
         "scale-out of §4.1's services: sessions/sec and tail latency "
         "under 10^5+ concurrent sessions",
         "Closed/open-loop workloads over the svc session API, sharded\n"
         "across workers with a deterministic merge (load::run_sharded).");

  BenchJson json("exp_load");
  json.set_meta("topology", topology + "/" + std::to_string(n));
  json.set("shards", shards);
  json.set("threads", threads);
  json.set("smoke", smoke);

  const auto configure = [&](WorkloadSpec& spec) {
    spec.topology = topology;
    spec.n = n;
    spec.seed = seed;
    spec.measure = measure;
    spec.warmup = warmup;
    spec.check_every = check_every;
    spec.record_wall = true;
    // A stuck cell must cost seconds, not the library's default budget: an
    // ME world is never quiescent, so a non-progressing mix would otherwise
    // spin out the full 5e8 steps per shard.
    spec.max_steps = smoke ? 5'000'000 : 100'000'000;
  };

  // --- closed-loop saturation: mix x concurrency --------------------------
  std::printf("--- Closed-loop saturation (mix x concurrency) ---\n");
  TextTable sat({"mix", "concurrency", "completed", "coalesced", "p50", "p99",
                 "p999", "sessions/s", "Msteps/s"});
  std::string sat_json = "[";
  const std::vector<std::uint64_t> ladder =
      smoke ? std::vector<std::uint64_t>{64}
            : std::vector<std::uint64_t>{1024, 16384, 131072};
  bool first_cell = true;
  for (const char* mix : {"pif", "mixed", "forward", "cs"}) {
    const bool is_cs = std::string(mix) == "cs";
    for (const std::uint64_t c : ladder) {
      WorkloadSpec spec = base_spec(mix);
      configure(spec);
      if (is_cs) {
        // The ME stack assumes the complete graph (every ME host is built
        // with degree n-1), and grants complete one per host phase
        // cycle — pin the CS cell to a small complete world with a
        // proportionate target, and run it once, not per ladder rung.
        if (c != ladder.front()) continue;
        spec.topology = "complete";
        spec.n = std::min(n, 8);
        spec.concurrency = std::min<std::uint64_t>(c, 1024);
        spec.measure = std::min<std::uint64_t>(measure, 2048);
        spec.warmup = std::min<std::uint64_t>(warmup, 128);
      } else {
        spec.concurrency = c;
      }
      const LoadReport r = load::run_sharded(spec, shards, threads);
      const load::LatencyHistogram& h = r.total.steps_hist;
      const std::string label =
          is_cs ? "cs (complete/" + std::to_string(spec.n) + ")" : mix;
      sat.add_row({label, TextTable::cell(static_cast<std::int64_t>(
                              spec.concurrency)),
                   TextTable::cell(static_cast<std::int64_t>(
                       r.total.counters.completed)),
                   TextTable::cell(static_cast<std::int64_t>(
                       r.total.counters.coalesced)),
                   TextTable::cell(static_cast<std::int64_t>(
                       h.percentile(50))),
                   TextTable::cell(static_cast<std::int64_t>(
                       h.percentile(99))),
                   TextTable::cell(static_cast<std::int64_t>(
                       h.percentile(99.9))),
                   TextTable::cell(
                       per_sec(r.total.counters.completed, r.harness_wall_ns),
                       0),
                   TextTable::cell(per_sec(r.total.steps, r.harness_wall_ns) /
                                       1e6,
                                   1)});
      if (!first_cell) sat_json += ",";
      first_cell = false;
      sat_json += json_cell(spec, r, std::string(mix));
    }
  }
  sat_json += "]";
  sat.print();
  json.set_raw("closed_loop", sat_json);

  // --- the high-water cell: >= 10^5 concurrent recycled sessions ---------
  std::uint64_t highwater_live = 0;
  bool highwater_ok = true;
  if (!smoke) {
    std::printf("\n--- High-water mark: 131072 concurrent sessions ---\n");
    WorkloadSpec spec = base_spec("pif");
    configure(spec);
    spec.topology = "complete";
    spec.n = 64;
    spec.concurrency = 131072;
    spec.warmup = 4096;
    spec.measure = 262144;  // every live slot recycles ~2x through the
                            // svc free list at 131072 in flight
    const LoadReport r = load::run_sharded(spec, shards, threads);
    highwater_live = spec.concurrency;
    highwater_ok = r.total.counters.completed >= spec.measure &&
                   !r.total.hit_step_budget && !r.total.stalled;
    const load::LatencyHistogram& h = r.total.steps_hist;
    std::printf("completed %llu sessions, p50/p99/p999 = %llu/%llu/%llu "
                "steps, %.0f sessions/s\n",
                static_cast<unsigned long long>(r.total.counters.completed),
                static_cast<unsigned long long>(h.percentile(50)),
                static_cast<unsigned long long>(h.percentile(99)),
                static_cast<unsigned long long>(h.percentile(99.9)),
                per_sec(r.total.counters.completed, r.harness_wall_ns));
    json.set_raw("highwater", json_cell(spec, r, "pif-complete64"));
  }

  // --- open-loop offered load --------------------------------------------
  std::printf("\n--- Open-loop offered load (mixed mix) ---\n");
  TextTable open({"inter-arrival", "completed", "shed", "p50", "p99",
                  "sessions/s"});
  std::string open_json = "[";
  const std::vector<std::uint64_t> gaps =
      smoke ? std::vector<std::uint64_t>{16}
            : std::vector<std::uint64_t>{64, 16, 4};
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    WorkloadSpec spec = base_spec("mixed");
    configure(spec);
    spec.arrival = WorkloadSpec::Arrival::Open;
    spec.inter_arrival = gaps[i];
    spec.max_in_flight = 1u << 14;
    const LoadReport r = load::run_sharded(spec, shards, threads);
    const load::LatencyHistogram& h = r.total.steps_hist;
    open.add_row(
        {TextTable::cell(static_cast<std::int64_t>(gaps[i])),
         TextTable::cell(
             static_cast<std::int64_t>(r.total.counters.completed)),
         TextTable::cell(static_cast<std::int64_t>(r.total.counters.shed)),
         TextTable::cell(static_cast<std::int64_t>(h.percentile(50))),
         TextTable::cell(static_cast<std::int64_t>(h.percentile(99))),
         TextTable::cell(per_sec(r.total.counters.completed,
                                 r.harness_wall_ns),
                         0)});
    if (i != 0) open_json += ",";
    open_json += json_cell(spec, r, "gap" + std::to_string(gaps[i]));
  }
  open_json += "]";
  open.print();
  json.set_raw("open_loop", open_json);

  // --- shard scaling ------------------------------------------------------
  std::printf("\n--- Shard scaling (one workload, 1..%d shards) ---\n",
              shards);
  TextTable scaling({"shards", "threads", "steps", "wall ms", "Msteps/s",
                     "speedup"});
  std::string scaling_json = "[";
  double base_rate = 0.0;
  const std::vector<int> shard_ladder = [&] {
    std::vector<int> l{1};
    for (int s = 2; s <= shards; s *= 2) l.push_back(s);
    return l;
  }();
  for (std::size_t i = 0; i < shard_ladder.size(); ++i) {
    const int s = shard_ladder[i];
    WorkloadSpec spec = base_spec("pif");
    configure(spec);
    spec.concurrency = smoke ? 128 : 8192;
    spec.measure = smoke ? 512 : 16384;
    spec.warmup = smoke ? 64 : 1024;
    const LoadReport r = load::run_sharded(spec, s, std::min(s, threads));
    const double rate = per_sec(r.total.steps, r.harness_wall_ns);
    if (i == 0) base_rate = rate;
    scaling.add_row(
        {TextTable::cell(s), TextTable::cell(std::min(s, threads)),
         TextTable::cell(static_cast<std::int64_t>(r.total.steps)),
         TextTable::cell(static_cast<double>(r.harness_wall_ns) / 1e6, 1),
         TextTable::cell(rate / 1e6, 1),
         TextTable::cell(base_rate > 0 ? rate / base_rate : 0.0, 2)});
    char cell[160];
    std::snprintf(cell, sizeof cell,
                  "%s{\"shards\":%d,\"threads\":%d,\"steps_per_sec\":%.0f,"
                  "\"speedup\":%.2f}",
                  i == 0 ? "" : ",", s, std::min(s, threads), rate,
                  base_rate > 0 ? rate / base_rate : 0.0);
    scaling_json += cell;
  }
  scaling_json += "]";
  scaling.print();
  json.set_raw("shard_scaling", scaling_json);

  // --- determinism: merged JSON identical for any worker count ------------
  WorkloadSpec pin = base_spec("mixed");
  configure(pin);
  pin.concurrency = 64;
  pin.measure = smoke ? 128 : 512;
  pin.warmup = 16;
  const std::string json1 =
      load::run_sharded(pin, 4, 1).deterministic_json(pin);
  const std::string json4 =
      load::run_sharded(pin, 4, 4).deterministic_json(pin);
  const bool deterministic = json1 == json4;

  std::printf("\n");
  verdict(deterministic,
          "sharded merge deterministic: aggregate JSON bit-identical for "
          "--threads 1 vs 4");
  verdict(highwater_ok,
          smoke ? "high-water cell skipped (--smoke)"
                : "131072 concurrent sessions completed and recycled "
                  "through the svc free list");

  json.set("deterministic", deterministic);
  json.set("highwater_concurrency", highwater_live);
  json.set("highwater_ok", highwater_ok);
  json.set_raw("determinism_pin", json1);
  return finish(json, args);
}
