// exp_faults — Experiment E15: recovery under the fault engine (src/fault/)
// driving the sharded load generator.
//
// The paper's claim is snap-stabilization: requests issued after the
// transient fault CEASES are served correctly, whatever the fault did to
// process state and channel contents while it lasted. This experiment lands
// that fault mid-flight — each shard compiles a seeded FaultPlan (process
// crash-restarts, channel garbage refills, per-edge loss/duplication, link
// partitions) and polls its Injector from the driver pump — and measures
// the recovery story the theorem promises: every cell must reach the
// recovered state (a session submitted at/after the last window's close
// completes correctly), with recovery-latency percentiles and goodput
// during vs after the fault span across an intensity ladder x topology x
// service mix. The faulted runs keep the sharded-merge determinism pin:
// identical (spec, fault plan) aggregate JSON for any --threads.
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "exp_common.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "load/workload.hpp"
#include "svc/host.hpp"
#include "svc/supervisor.hpp"

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
  } else {
    std::fprintf(stderr, "unknown mix %s\n", mix.c_str());
    std::exit(1);
  }
  return spec;
}

// The intensity ladder: window counts scale with the level, the horizon
// stays fixed so heavier rungs mean denser (and overlapping) windows, not
// longer fault eras.
fault::FaultPlanSpec fault_rung(int level, bool smoke, std::uint64_t seed,
                                int n) {
  fault::FaultPlanSpec fs;
  fs.seed = seed;
  fs.horizon = smoke ? 2'000 : 10'000;
  fs.min_len = smoke ? 50 : 200;
  fs.max_len = smoke ? 300 : 800;
  fs.crash_windows = level;
  fs.garbage_windows = level + 1;
  fs.loss_windows = level;
  fs.duplicate_windows = level > 1 ? level - 1 : 0;
  fs.partition_windows = (level >= 4 && n <= 64) ? 1 : 0;
  return fs;
}

// The storm ladder: one rung per correlated pattern, plus the full storm
// combining all four. Pure-pattern specs — every window below comes out of
// the pattern compiler, so the rung exercises exactly the correlation
// structure its label names.
fault::FaultPlanSpec storm_rung(const std::string& pattern, bool smoke,
                                std::uint64_t seed) {
  fault::FaultPlanSpec fs;
  fs.seed = seed;
  fs.horizon = smoke ? 2'000 : 10'000;
  fs.min_len = smoke ? 50 : 200;
  fs.max_len = smoke ? 300 : 800;
  const auto add = [&](fault::PatternKind k) {
    fault::PatternSpec ps;
    ps.kind = k;
    ps.begin = smoke ? 100 : 500;
    ps.span = smoke ? 1'500 : 8'000;
    ps.count = 3;
    ps.len = smoke ? 150 : 500;
    ps.period = smoke ? 400 : 2'000;
    ps.lag_max = smoke ? 200 : 1'000;
    fs.patterns.push_back(ps);
  };
  if (pattern == "rolling-partition") {
    add(fault::PatternKind::RollingPartition);
  } else if (pattern == "crash-storm") {
    add(fault::PatternKind::CrashStorm);
  } else if (pattern == "flapping-link") {
    add(fault::PatternKind::FlappingLink);
  } else if (pattern == "cascade") {
    add(fault::PatternKind::Cascade);
  } else {  // "all": the full storm
    add(fault::PatternKind::RollingPartition);
    add(fault::PatternKind::CrashStorm);
    add(fault::PatternKind::FlappingLink);
    add(fault::PatternKind::Cascade);
  }
  return fs;
}

double per_sec(std::uint64_t count, std::uint64_t wall_ns) {
  return wall_ns == 0 ? 0.0
                      : static_cast<double>(count) * 1e9 /
                            static_cast<double>(wall_ns);
}

// Completions per 1000 engine steps inside vs after the fault span,
// summed over shards on each shard's own step clock.
struct Goodput {
  double during = 0.0;
  double after = 0.0;
};

Goodput goodput(const LoadReport& r) {
  std::uint64_t during_steps = 0;
  std::uint64_t after_steps = 0;
  for (const load::ShardResult& s : r.shards) {
    if (s.fault_last_end == 0) continue;
    const std::uint64_t b = std::min(s.steps, s.fault_first_begin);
    const std::uint64_t e = std::min(s.steps, s.fault_last_end);
    during_steps += e - b;
    after_steps += s.steps - e;
  }
  Goodput g;
  if (during_steps > 0)
    g.during = static_cast<double>(r.total.completed_during_fault) * 1000.0 /
               static_cast<double>(during_steps);
  if (after_steps > 0)
    g.after = static_cast<double>(r.total.completed_after_fault) * 1000.0 /
              static_cast<double>(after_steps);
  return g;
}

bool all_shards_recovered(const LoadReport& r) {
  return std::all_of(
      r.shards.begin(), r.shards.end(),
      [](const load::ShardResult& s) { return s.recovered; });
}

// --- supervisor policy sweep machinery -------------------------------------
// One deterministic Simulator world per (seed, policy): the same topology,
// scheduler seed and compiled storm plan, so plain retry and the
// breaker+hedging stack face the identical fault schedule.

struct PolicyRun {
  std::uint64_t p99 = 0;  // p99 settle step across all tickets
  int ok = 0;             // tickets that settled Ok
  std::uint64_t trips = 0;
  std::uint64_t hedges = 0;
};

PolicyRun run_policy(std::uint64_t seed, bool smoke, bool resilience) {
  const int n = 6;
  const sim::Topology topo = sim::Topology::complete(n);
  auto sim = svc::service_world(topo, 1, seed, [](sim::ProcessId p) {
    svc::HostConfig cfg;
    cfg.id = p + 1;
    return cfg;
  });
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(seed + 1));
  svc::Client client(*sim);

  // The heavy storm, shaped like the outage hedging exists for: the link
  // pair between the ticket origin (0) and peer n-1 goes dark for most of
  // the horizon. Origin-0 waves stall against their attempt deadline —
  // every ticket below submits at origin 0 — while a wave from any OTHER
  // origin sails through, which is exactly the escape a hedged resubmit
  // (sprayed to origin 1) takes and a plain retry (same origin, same dead
  // link) cannot.
  fault::FaultPlanSpec fs;
  fs.seed = seed;
  fs.horizon = smoke ? 2'000 : 5'000;
  fs.min_len = 100;
  fs.max_len = smoke ? 400 : 800;
  fault::PatternSpec flap;
  flap.kind = fault::PatternKind::FlappingLink;
  flap.begin = 100;
  flap.count = 1;
  flap.len = smoke ? 1'200 : 2'400;
  flap.edge = topo.edge_between(0, n - 1);
  fs.patterns = {flap};
  const fault::FaultPlan plan = fault::FaultPlan::compile(fs, topo);
  fault::Injector inj(plan);

  svc::SuperviseOptions so;
  so.attempt_deadline = smoke ? 1'500 : 2'500;
  so.retry_budget = 6;
  so.backoff_base = 16;
  so.backoff_max = 256;
  so.seed = seed;
  if (resilience) {
    so.breaker.enabled = true;
    so.breaker.failure_threshold = 2;
    so.breaker.open_cooldown = 400;
    so.hedge.enabled = true;
    so.hedge.hedge_after = smoke ? 300 : 500;
  }
  svc::Supervisor sup(client, so);
  const int k = smoke ? 16 : 32;
  std::vector<svc::Supervisor::Ticket> ts;
  for (int i = 0; i < k; ++i)
    ts.push_back(
        sup.supervise(0, svc::PifBroadcast{Value::integer(3'000 + i)}));
  std::vector<std::uint64_t> settle_step(static_cast<std::size_t>(k), 0);
  std::vector<bool> settled(static_cast<std::size_t>(k), false);
  sup.set_on_pump([&] {
    inj.poll(*sim);
    for (int i = 0; i < k; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (!settled[idx] && sup.terminal(ts[idx])) {
        settled[idx] = true;
        settle_step[idx] = sim->step_count();
      }
    }
  });
  svc::AwaitOptions aw;
  aw.max_steps = 4'000'000;
  // Poll the injector every step: a LinkDown window must wipe the channel
  // faster than the protocol retransmits, or the "outage" is a no-op.
  aw.policy.check_every = 1;
  sup.run_all(aw);

  PolicyRun out;
  for (int i = 0; i < k; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (!settled[idx]) settle_step[idx] = sim->step_count();
    if (sup.outcome(ts[idx]) == svc::SessionOutcome::Ok) ++out.ok;
  }
  std::vector<std::uint64_t> lat = settle_step;
  std::sort(lat.begin(), lat.end());
  out.p99 = lat[(lat.size() * 99 + 99) / 100 - 1];
  out.trips = sup.stats().breaker_trips;
  out.hedges = sup.stats().hedges_launched;
  return out;
}

struct PolicySweepCell {
  std::uint64_t plain_p99 = 0;
  std::uint64_t policy_p99 = 0;
  int plain_ok = 0;
  int policy_ok = 0;
  std::uint64_t trips = 0;
  std::uint64_t hedges = 0;
};

PolicySweepCell run_policy_cell(std::uint64_t seed, bool smoke) {
  const PolicyRun plain = run_policy(seed, smoke, /*resilience=*/false);
  const PolicyRun policy = run_policy(seed, smoke, /*resilience=*/true);
  PolicySweepCell cell;
  cell.plain_p99 = plain.p99;
  cell.policy_p99 = policy.p99;
  cell.plain_ok = plain.ok;
  cell.policy_ok = policy.ok;
  cell.trips = policy.trips;
  cell.hedges = policy.hedges;
  return cell;
}

std::string json_cell(const LoadReport& r, const std::string& label) {
  const load::LatencyHistogram& rec = r.total.recovery_hist;
  const Goodput g = goodput(r);
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "{\"label\":\"%s\",\"windows\":%llu,\"completed\":%llu,"
      "\"retries\":%llu,\"failed\":%llu,\"during\":%llu,\"after\":%llu,"
      "\"goodput_during\":%.2f,\"goodput_after\":%.2f,"
      "\"recovery_p50\":%llu,\"recovery_p99\":%llu,\"recovery_max\":%llu,"
      "\"first_success_after\":%llu,\"recovered\":%s,"
      "\"sessions_per_sec\":%.0f}",
      // Compiled window count summed over shards: pattern-generated windows
      // have no spec-side count, only the compiler knows how many landed.
      label.c_str(), static_cast<unsigned long long>(r.total.fault_windows),
      static_cast<unsigned long long>(r.total.counters.completed),
      static_cast<unsigned long long>(r.total.counters.retries),
      static_cast<unsigned long long>(r.total.counters.failed),
      static_cast<unsigned long long>(r.total.completed_during_fault),
      static_cast<unsigned long long>(r.total.completed_after_fault),
      g.during, g.after,
      static_cast<unsigned long long>(rec.percentile(50)),
      static_cast<unsigned long long>(rec.percentile(99)),
      static_cast<unsigned long long>(rec.max()),
      static_cast<unsigned long long>(r.total.first_success_after_fault),
      all_shards_recovered(r) ? "true" : "false",
      per_sec(r.total.counters.completed, r.harness_wall_ns));
  return buf;
}

}  // namespace
}  // namespace snapstab::bench

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::bench;
  CliArgs args(argc, argv,
               {"smoke", "shards", "threads", "n", "topology", "measure",
                "warmup", "seed", "check_every", "json"});
  const bool smoke = args.get_bool("smoke");
  const int shards = static_cast<int>(args.get_int("shards", smoke ? 2 : 4));
  const unsigned hw = std::thread::hardware_concurrency();
  const int threads = static_cast<int>(
      args.get_int("threads", hw != 0 ? static_cast<int>(hw) : 1));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 15000));
  const std::string topology = args.get("topology", "ring");
  const int n = static_cast<int>(args.get_int("n", smoke ? 8 : 16));
  const auto measure = static_cast<std::uint64_t>(
      args.get_int("measure", smoke ? 256 : 4'000));
  const auto warmup = static_cast<std::uint64_t>(
      args.get_int("warmup", smoke ? 32 : 400));
  const int check_every = static_cast<int>(args.get_int("check_every", 64));

  banner("E15: exp_faults",
         "snap-stabilization under load: requests issued after the fault "
         "ceases complete correctly",
         "Seeded fault windows (crash-restart, channel garbage, loss,\n"
         "duplication, partitions) land mid-flight in the sharded load\n"
         "generator; sessions retry under the client-side deadline and\n"
         "every cell must recover after the last window closes.");

  BenchJson json("exp_faults");
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
    spec.concurrency = 64;
    spec.fault_deadline = smoke ? 1'000 : 4'000;
    spec.max_steps = smoke ? 5'000'000 : 100'000'000;
  };

  bool all_recovered = true;
  bool all_completed = true;

  // --- intensity ladder x service mix -------------------------------------
  std::printf("--- Fault intensity x mix (%s/%d) ---\n", topology.c_str(),
              n);
  TextTable lad({"intensity", "mix", "windows", "completed", "retries",
                 "failed", "gput dur", "gput aft", "rec p50", "rec p99",
                 "first-ok"});
  std::string lad_json = "[";
  const std::vector<std::pair<const char*, int>> rungs = {
      {"light", 1}, {"medium", 2}, {"heavy", 4}};
  bool first_cell = true;
  for (const auto& [rung_name, level] : rungs) {
    for (const char* mix : {"pif", "mixed", "forward"}) {
      WorkloadSpec spec = base_spec(mix);
      configure(spec);
      spec.faults = fault_rung(level, smoke, seed + level, n);
      const LoadReport r = load::run_sharded(spec, shards, threads);
      const Goodput g = goodput(r);
      const load::LatencyHistogram& rec = r.total.recovery_hist;
      const bool recovered = all_shards_recovered(r);
      const bool completed = r.total.counters.completed >= spec.measure &&
                             !r.total.hit_step_budget && !r.total.stalled;
      all_recovered = all_recovered && recovered;
      all_completed = all_completed && completed;
      lad.add_row(
          {rung_name, mix,
           TextTable::cell(static_cast<std::int64_t>(r.total.fault_windows)),
           TextTable::cell(
               static_cast<std::int64_t>(r.total.counters.completed)),
           TextTable::cell(
               static_cast<std::int64_t>(r.total.counters.retries)),
           TextTable::cell(
               static_cast<std::int64_t>(r.total.counters.failed)),
           TextTable::cell(g.during, 2), TextTable::cell(g.after, 2),
           TextTable::cell(static_cast<std::int64_t>(rec.percentile(50))),
           TextTable::cell(static_cast<std::int64_t>(rec.percentile(99))),
           TextTable::cell(static_cast<std::int64_t>(
               r.total.first_success_after_fault))});
      if (!first_cell) lad_json += ",";
      first_cell = false;
      lad_json += json_cell(r, std::string(rung_name) + "/" + mix);
    }
  }
  lad_json += "]";
  lad.print();
  json.set_raw("intensity_ladder", lad_json);

  // --- topology sweep at medium intensity ---------------------------------
  std::printf("\n--- Topology sweep (medium intensity, pif mix) ---\n");
  TextTable topo({"topology", "completed", "retries", "failed", "gput dur",
                  "gput aft", "rec p50", "rec p99", "first-ok"});
  std::string topo_json = "[";
  const std::vector<std::string> topologies = {"ring", "complete", "tree"};
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    WorkloadSpec spec = base_spec("pif");
    configure(spec);
    spec.topology = topologies[i];
    spec.faults = fault_rung(2, smoke, seed + 100 + i, n);
    const LoadReport r = load::run_sharded(spec, shards, threads);
    const Goodput g = goodput(r);
    const load::LatencyHistogram& rec = r.total.recovery_hist;
    const bool recovered = all_shards_recovered(r);
    const bool completed = r.total.counters.completed >= spec.measure &&
                           !r.total.hit_step_budget && !r.total.stalled;
    all_recovered = all_recovered && recovered;
    all_completed = all_completed && completed;
    topo.add_row(
        {topologies[i],
         TextTable::cell(
             static_cast<std::int64_t>(r.total.counters.completed)),
         TextTable::cell(
             static_cast<std::int64_t>(r.total.counters.retries)),
         TextTable::cell(
             static_cast<std::int64_t>(r.total.counters.failed)),
         TextTable::cell(g.during, 2), TextTable::cell(g.after, 2),
         TextTable::cell(static_cast<std::int64_t>(rec.percentile(50))),
         TextTable::cell(static_cast<std::int64_t>(rec.percentile(99))),
         TextTable::cell(static_cast<std::int64_t>(
             r.total.first_success_after_fault))});
    if (i != 0) topo_json += ",";
    topo_json += json_cell(r, topologies[i]);
  }
  topo_json += "]";
  topo.print();
  json.set_raw("topology_sweep", topo_json);

  // --- storm ladder: correlated patterns through the load generator -------
  std::printf("\n--- Storm ladder (%s/%d, pif mix) ---\n", topology.c_str(),
              n);
  TextTable storm({"pattern", "windows", "completed", "retries", "failed",
                   "gput dur", "gput aft", "rec p50", "rec p99", "first-ok"});
  std::string storm_json = "[";
  bool storm_recovered = true;
  const std::vector<std::string> storm_rungs =
      smoke ? std::vector<std::string>{"all"}
            : std::vector<std::string>{"rolling-partition", "crash-storm",
                                       "flapping-link", "cascade", "all"};
  for (std::size_t i = 0; i < storm_rungs.size(); ++i) {
    WorkloadSpec spec = base_spec("pif");
    configure(spec);
    spec.faults = storm_rung(storm_rungs[i], smoke, seed + 200 + i);
    const LoadReport r = load::run_sharded(spec, shards, threads);
    const Goodput g = goodput(r);
    const load::LatencyHistogram& rec = r.total.recovery_hist;
    const bool recovered = all_shards_recovered(r);
    const bool completed = r.total.counters.completed >= spec.measure &&
                           !r.total.hit_step_budget && !r.total.stalled;
    storm_recovered = storm_recovered && recovered;
    all_recovered = all_recovered && recovered;
    all_completed = all_completed && completed;
    storm.add_row(
        {storm_rungs[i],
         TextTable::cell(static_cast<std::int64_t>(r.total.fault_windows)),
         TextTable::cell(
             static_cast<std::int64_t>(r.total.counters.completed)),
         TextTable::cell(
             static_cast<std::int64_t>(r.total.counters.retries)),
         TextTable::cell(
             static_cast<std::int64_t>(r.total.counters.failed)),
         TextTable::cell(g.during, 2), TextTable::cell(g.after, 2),
         TextTable::cell(static_cast<std::int64_t>(rec.percentile(50))),
         TextTable::cell(static_cast<std::int64_t>(rec.percentile(99))),
         TextTable::cell(static_cast<std::int64_t>(
             r.total.first_success_after_fault))});
    if (i != 0) storm_json += ",";
    storm_json += json_cell(r, storm_rungs[i]);
  }
  storm_json += "]";
  storm.print();
  json.set_raw("storm_ladder", storm_json);

  // --- supervisor policy sweep: plain retry vs breaker + hedging ----------
  // A deterministic single-Simulator heavy storm; the same plan, scheduler
  // and kill schedule for both policies, so the p99 comparison isolates the
  // resilience stack itself.
  std::printf("\n--- Policy sweep under a heavy storm (p99 in steps) ---\n");
  TextTable pol({"seed", "plain p99", "policy p99", "plain ok", "policy ok",
                 "trips", "hedges"});
  std::string pol_json = "[";
  bool policy_beats_baseline = true;
  std::uint64_t plain_p99_sum = 0;
  std::uint64_t policy_p99_sum = 0;
  const std::vector<std::uint64_t> policy_seeds = {seed + 300, seed + 301,
                                                   seed + 302};
  for (std::size_t i = 0; i < policy_seeds.size(); ++i) {
    const std::uint64_t s = policy_seeds[i];
    const PolicySweepCell cell = run_policy_cell(s, smoke);
    plain_p99_sum += cell.plain_p99;
    policy_p99_sum += cell.policy_p99;
    pol.add_row({TextTable::cell(static_cast<std::int64_t>(s)),
                 TextTable::cell(static_cast<std::int64_t>(cell.plain_p99)),
                 TextTable::cell(static_cast<std::int64_t>(cell.policy_p99)),
                 TextTable::cell(static_cast<std::int64_t>(cell.plain_ok)),
                 TextTable::cell(static_cast<std::int64_t>(cell.policy_ok)),
                 TextTable::cell(static_cast<std::int64_t>(cell.trips)),
                 TextTable::cell(static_cast<std::int64_t>(cell.hedges))});
    char cb[256];
    std::snprintf(cb, sizeof cb,
                  "{\"seed\":%llu,\"plain_p99\":%llu,\"policy_p99\":%llu,"
                  "\"plain_ok\":%d,\"policy_ok\":%d,\"breaker_trips\":%llu,"
                  "\"hedges_launched\":%llu}",
                  static_cast<unsigned long long>(s),
                  static_cast<unsigned long long>(cell.plain_p99),
                  static_cast<unsigned long long>(cell.policy_p99),
                  cell.plain_ok, cell.policy_ok,
                  static_cast<unsigned long long>(cell.trips),
                  static_cast<unsigned long long>(cell.hedges));
    if (i != 0) pol_json += ",";
    pol_json += cb;
    policy_beats_baseline =
        policy_beats_baseline && cell.policy_ok >= cell.plain_ok;
  }
  pol_json += "]";
  pol.print();
  // Aggregate tail verdict: summed across seeds the resilience stack must
  // be no slower than plain retry (and strictly faster in the full run).
  policy_beats_baseline =
      policy_beats_baseline && policy_p99_sum <= plain_p99_sum;
  json.set_raw("policy_sweep", pol_json);

  // --- determinism: faulted merge identical for any worker count ----------
  WorkloadSpec pin = base_spec("mixed");
  configure(pin);
  pin.measure = smoke ? 128 : 512;
  pin.warmup = 16;
  pin.faults = fault_rung(2, smoke, seed + 7, n);
  const std::string json1 =
      load::run_sharded(pin, 4, 1).deterministic_json(pin);
  const std::string json4 =
      load::run_sharded(pin, 4, 4).deterministic_json(pin);
  const bool deterministic = json1 == json4;

  std::printf("\n");
  verdict(all_recovered,
          "every cell recovered: a session submitted after the last fault "
          "window closed completed correctly on every shard");
  verdict(all_completed,
          "every cell reached its completion target without stalling or "
          "exhausting the step budget");
  verdict(storm_recovered,
          "every storm rung recovered: correlated patterns (rolling "
          "partitions, crash storms, flapping links, cascades) still cease, "
          "and post-storm sessions complete");
  verdict(policy_beats_baseline,
          "breaker + hedging beats plain retry under the heavy storm: at "
          "least as many Ok outcomes per seed and no worse p99 settle "
          "latency summed across seeds");
  verdict(deterministic,
          "faulted sharded merge deterministic: aggregate JSON (fault "
          "section included) bit-identical for --threads 1 vs 4");

  json.set("all_recovered", all_recovered);
  json.set("all_completed", all_completed);
  json.set("storm_recovered", storm_recovered);
  json.set("policy_beats_baseline", policy_beats_baseline);
  json.set("deterministic", deterministic);
  json.set_raw("determinism_pin", json1);
  return finish(json, args);
}
