// exp_load — Experiments E14 and E15: the sharded load generator
// (src/load/) driving the svc session API at production intensity, with
// and without the fault engine (src/fault/).
//
// E14 (scale-out). The paper proves snap-stabilizing PIF safe from any
// configuration; the services built on it only earn a production-scale
// claim when the svc layer holds its latency/throughput envelope under
// 10^5+ concurrent sessions. Sections: closed-loop saturation (mix x
// concurrency), the 131072-session high-water cell, open-loop offered load
// and shard scaling, with p50/p99/p999 submit->Done latency in engine steps.
//
// E15 (recovery). The paper's claim is snap-stabilization: requests issued
// after the transient fault CEASES are served correctly, whatever the fault
// did while it lasted. Each shard compiles a seeded FaultPlan (crash-
// restarts, channel garbage, per-edge loss/duplication, partitions,
// correlated storms) and polls its Injector from the driver pump; every
// faulted cell must recover (a session submitted at/after the last window's
// close completes). Sections: fault intensity x mix, topology sweep, storm
// ladder, and a supervisor policy sweep (plain retry vs breaker+hedging).
//
// Every run_sharded row goes through Section::row(). The E14 sections keep
// their defaults (ring/32, 8 shards, 20000 measured completions after 2000
// warmup, base seed 14000), the E15 sections theirs (ring/16, 4 shards,
// 4000 after 400, 64 sessions in flight, base seed 15000). --n, --shards,
// --measure, --warmup, --topology and --check_every override every section
// when given; --seed is an offset added to every base seed. The determinism
// pin runs once without faults and once with a fault rung: the aggregate
// JSON must be bit-identical for --threads 1 vs 4 (also tests/test_load.cpp).
#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <utility>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "exp_common.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "load/workload.hpp"
#include "svc/supervisor.hpp"

namespace snapstab::bench {
namespace {

using load::LoadReport;
using load::WorkloadSpec;
using svc::ServiceId;

// The settings shared by one family of sections (E14 or E15): its
// defaults, each replaced by its flag when given. --smoke shares one size
// across both families: ring/8, 256 measured completions after 32 warmup.
WorkloadSpec family(const CliArgs& args, bool faulted, std::uint64_t seed,
                    int n, std::int64_t measure, std::int64_t warmup) {
  const bool smoke = args.get_bool("smoke");
  WorkloadSpec s;
  s.topology = args.get("topology", "ring");
  s.n = static_cast<int>(args.get_int("n", smoke ? 8 : n));
  s.seed = seed + static_cast<std::uint64_t>(args.get_int("seed", 0));
  s.measure = static_cast<std::uint64_t>(
      args.get_int("measure", smoke ? 256 : measure));
  s.warmup =
      static_cast<std::uint64_t>(args.get_int("warmup", smoke ? 32 : warmup));
  s.check_every = static_cast<int>(args.get_int("check_every", 64));
  s.record_wall = true;
  // A stuck cell must cost seconds, not the library's default budget: an
  // ME world is never quiescent, so a non-progressing mix would otherwise
  // spin out the full 5e8 steps per shard.
  s.max_steps = smoke ? 5'000'000 : 100'000'000;
  if (faulted) {  // E15: 64 in flight under a client-side retry deadline
    s.concurrency = 64;
    s.fault_deadline = smoke ? 1'000 : 4'000;
  }
  return s;
}

// A cell's starting spec: its family's settings plus a service mix.
WorkloadSpec base_spec(WorkloadSpec spec, const std::string& mix) {
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
// ("all") combining the four. Pure-pattern specs: every window comes out of
// the pattern compiler, so a rung exercises exactly the correlation its
// label names.
fault::FaultPlanSpec storm_rung(const std::string& pattern, bool smoke,
                                std::uint64_t seed) {
  fault::FaultPlanSpec fs;
  fs.seed = seed;
  fs.horizon = smoke ? 2'000 : 10'000;
  fs.min_len = smoke ? 50 : 200;
  fs.max_len = smoke ? 300 : 800;
  for (const fault::PatternKind k :
       {fault::PatternKind::RollingPartition, fault::PatternKind::CrashStorm,
        fault::PatternKind::FlappingLink, fault::PatternKind::Cascade}) {
    if (pattern != "all" && pattern != fault::pattern_kind_name(k)) continue;
    fault::PatternSpec ps;
    ps.kind = k;
    ps.begin = smoke ? 100 : 500;
    ps.span = smoke ? 1'500 : 8'000;
    ps.count = 3;
    ps.len = smoke ? 150 : 500;
    ps.period = smoke ? 400 : 2'000;
    ps.lag_max = smoke ? 200 : 1'000;
    fs.patterns.push_back(ps);
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

// A flat JSON object from (key, rendered value) pairs, and one more element
// appended to a JSON array's contents.
std::string json_object(
    std::initializer_list<std::pair<const char*, std::string>> fields) {
  std::string out;
  for (const auto& [key, v] : fields)
    out += (out.empty() ? "{\"" : ",\"") + std::string(key) + "\":" + v;
  return out + "}";
}

void add_element(std::string& array, const std::string& v) {
  array += (array.empty() ? "" : ",") + v;
}

// The columns of the fault sections' tables.
std::vector<std::string> recovery_cols(bool windows) {
  std::vector<std::string> cols = {"completed", "retries", "failed",
                                   "gput dur",  "gput aft", "rec p50",
                                   "rec p99",   "first-ok"};
  if (windows) cols.insert(cols.begin(), "windows");
  return cols;
}

// Completion and recovery: of one cell, or folded over every cell so far.
struct Tally {
  bool completed = true;
  bool recovered = true;
};

// One table of run_sharded rows and its JSON array of cells.
class Section {
 public:
  // `heads` name the label columns, `cols` the measured ones after them.
  Section(std::vector<std::string> heads, std::vector<std::string> cols,
          Tally& tally)
      : cols_(std::move(cols)),
        table_([&] {
          heads.insert(heads.end(), cols_.begin(), cols_.end());
          return heads;
        }()),
        tally_(&tally) {}

  // Runs `spec` over `shards` shards on `threads` workers: one table row
  // (`labels`, then the section's columns), one JSON cell named `label`.
  // Returns the cell's flags; a fault-free cell counts as recovered.
  Tally row(const WorkloadSpec& spec, int shards, int threads,
            std::vector<std::string> labels, const std::string& label) {
    const LoadReport r = load::run_sharded(spec, shards, threads);
    const load::ShardResult& t = r.total;
    const load::WorkloadCounters& c = t.counters;
    const load::LatencyHistogram& h = t.steps_hist;
    const load::LatencyHistogram& rec = t.recovery_hist;
    const Goodput g = goodput(r);
    const double sessions = per_sec(c.completed, r.harness_wall_ns);
    const double rate = per_sec(t.steps, r.harness_wall_ns);
    if (json_.empty()) base_rate_ = rate;
    Tally out;
    out.completed = c.completed >= spec.measure && !t.hit_step_budget &&
                    !t.stalled;
    out.recovered = !spec.faults.enabled() ||
                    std::all_of(r.shards.begin(), r.shards.end(),
                                [](const load::ShardResult& s) {
                                  return s.recovered;
                                });
    tally_->completed = tally_->completed && out.completed;
    tally_->recovered = tally_->recovered && out.recovered;

    const auto u = [](std::uint64_t v) { return TextTable::cell(v); };
    const std::pair<const char*, std::string> measured[] = {
        {"concurrency", u(spec.concurrency)},
        {"completed", u(c.completed)},
        {"coalesced", u(c.coalesced)},
        {"shed", u(c.shed)},
        {"windows", u(t.fault_windows)},
        {"retries", u(c.retries)},
        {"failed", u(c.failed)},
        {"p50", u(h.percentile(50))},
        {"p99", u(h.percentile(99))},
        {"p999", u(h.percentile(99.9))},
        {"gput dur", TextTable::cell(g.during, 2)},
        {"gput aft", TextTable::cell(g.after, 2)},
        {"rec p50", u(rec.percentile(50))},
        {"rec p99", u(rec.percentile(99))},
        {"first-ok", u(t.first_success_after_fault)},
        {"sessions/s", TextTable::cell(sessions, 0)},
        {"Msteps/s", TextTable::cell(rate / 1e6, 1)},
        {"steps", u(t.steps)},
        {"wall ms",
         TextTable::cell(static_cast<double>(r.harness_wall_ns) / 1e6, 1)},
        {"speedup", TextTable::cell(base_rate_ > 0 ? rate / base_rate_ : 0)}};
    for (const std::string& col : cols_) {
      const auto* it = std::find_if(
          std::begin(measured), std::end(measured),
          [&col](const auto& m) { return col == m.first; });
      SNAPSTAB_CHECK_MSG(it != std::end(measured), "unknown column");
      labels.push_back(it->second);
    }
    table_.add_row(std::move(labels));

    const auto n = [](std::uint64_t v) { return std::to_string(v); };
    // "windows" is the compiled window count summed over shards: pattern-
    // generated windows have no spec-side count.
    add_element(
        json_,
        json_object(
            {{"label", "\"" + label + "\""},
             {"topology",
              "\"" + spec.topology + "/" + std::to_string(spec.n) + "\""},
             {"shards", n(shards)}, {"threads", n(threads)},
             {"concurrency", n(spec.concurrency)},
             {"completed", n(c.completed)}, {"coalesced", n(c.coalesced)},
             {"shed", n(c.shed)}, {"retries", n(c.retries)},
             {"failed", n(c.failed)}, {"p50", n(h.percentile(50))},
             {"p90", n(h.percentile(90))}, {"p99", n(h.percentile(99))},
             {"p999", n(h.percentile(99.9))}, {"steps", n(t.steps)},
             {"windows", n(t.fault_windows)},
             {"during", n(t.completed_during_fault)},
             {"after", n(t.completed_after_fault)},
             {"goodput_during", TextTable::cell(g.during, 2)},
             {"goodput_after", TextTable::cell(g.after, 2)},
             {"recovery_p50", n(rec.percentile(50))},
             {"recovery_p99", n(rec.percentile(99))},
             {"recovery_max", n(rec.max())},
             {"first_success_after", n(t.first_success_after_fault)},
             {"recovered", out.recovered ? "true" : "false"},
             {"sessions_per_sec", TextTable::cell(sessions, 0)},
             {"steps_per_sec", TextTable::cell(rate, 0)}}));
    return out;
  }

  void print(BenchJson& json, const char* key) const {
    table_.print();
    json.set_raw(key, "[" + json_ + "]");
  }

 private:
  std::vector<std::string> cols_;
  TextTable table_;
  Tally* tally_;
  std::string json_;
  double base_rate_ = 0.0;  // steps/s of the first row: the speedup base
};

// --- supervisor policy sweep -----------------------------------------------
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

// The determinism pin: the aggregate JSON of `spec` over 4 shards is
// bit-identical on 1 and on 4 workers. Leaves the 1-worker JSON in `json`.
bool deterministic(const WorkloadSpec& spec, std::string& json) {
  json = load::run_sharded(spec, 4, 1).deterministic_json(spec);
  return json == load::run_sharded(spec, 4, 4).deterministic_json(spec);
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
  const unsigned hw = std::thread::hardware_concurrency();
  const int threads = static_cast<int>(
      args.get_int("threads", hw != 0 ? static_cast<int>(hw) : 1));
  const WorkloadSpec scale = family(args, false, 14000, 32, 20'000, 2'000);
  const WorkloadSpec faults = family(args, true, 15000, 16, 4'000, 400);
  const int scale_shards =
      static_cast<int>(args.get_int("shards", smoke ? 2 : 8));
  const int fault_shards =
      static_cast<int>(args.get_int("shards", smoke ? 2 : 4));

  banner("E14 + E15: exp_load",
         "scale-out of §4.1's services under 10^5+ concurrent sessions, and "
         "snap-stabilization under load: requests issued after the fault "
         "ceases complete correctly",
         "Closed/open-loop workloads over the svc session API, sharded\n"
         "across workers with a deterministic merge (load::run_sharded).\n"
         "Then seeded fault windows (crash-restart, channel garbage, loss,\n"
         "duplication, partitions) land mid-flight; sessions retry under\n"
         "the client-side deadline and every cell must recover after the\n"
         "last window closes.");

  BenchJson json("exp_load");
  json.set("threads", threads);
  json.set("smoke", smoke);
  Tally tally;

  // --- closed-loop saturation: mix x concurrency --------------------------
  std::printf("--- Closed-loop saturation (mix x concurrency) ---\n");
  const std::vector<std::string> sat_cols = {
      "concurrency", "completed", "coalesced",  "p50",
      "p99",         "p999",      "sessions/s", "Msteps/s"};
  Section sat({"mix"}, sat_cols, tally);
  const std::vector<std::uint64_t> ladder =
      smoke ? std::vector<std::uint64_t>{64}
            : std::vector<std::uint64_t>{1024, 16384, 131072};
  for (const std::string mix : {"pif", "mixed", "forward", "cs"}) {
    for (const std::uint64_t c : ladder) {
      WorkloadSpec spec = base_spec(scale, mix);
      spec.concurrency = c;
      std::string label = mix;
      if (mix == "cs") {
        // The ME stack assumes the complete graph (every ME host is built
        // with degree n-1), and grants complete one per host phase
        // cycle — pin the CS cell to a small complete world with a
        // proportionate target, and run it once, not per ladder rung.
        if (c != ladder.front()) continue;
        spec.topology = "complete";
        spec.n = std::min(scale.n, 8);
        spec.measure = std::min<std::uint64_t>(scale.measure, 2048);
        spec.warmup = std::min<std::uint64_t>(scale.warmup, 128);
        label = "cs (complete/" + std::to_string(spec.n) + ")";
      }
      sat.row(spec, scale_shards, threads, {label}, mix);
    }
  }
  sat.print(json, "closed_loop");

  // --- the high-water cell: >= 10^5 concurrent recycled sessions ---------
  bool highwater_ok = true;
  if (!smoke) {
    std::printf("\n--- High-water mark: 131072 concurrent sessions ---\n");
    Section hw_section({"mix"}, sat_cols, tally);
    WorkloadSpec spec = base_spec(scale, "pif");
    spec.topology = "complete";
    spec.n = 64;
    spec.concurrency = 131072;
    spec.warmup = 4096;
    spec.measure = 262144;  // every live slot recycles ~2x through the
                            // svc free list at 131072 in flight
    highwater_ok = hw_section
                       .row(spec, scale_shards, threads,
                            {"pif (complete/64)"}, "pif-complete64")
                       .completed;
    hw_section.print(json, "highwater");
  }

  // --- open-loop offered load --------------------------------------------
  std::printf("\n--- Open-loop offered load (mixed mix) ---\n");
  Section open({"inter-arrival"},
               {"completed", "shed", "p50", "p99", "sessions/s"},
               tally);
  for (const std::uint64_t gap :
       smoke ? std::vector<std::uint64_t>{16}
             : std::vector<std::uint64_t>{64, 16, 4}) {
    WorkloadSpec spec = base_spec(scale, "mixed");
    spec.arrival = WorkloadSpec::Arrival::Open;
    spec.inter_arrival = gap;
    spec.max_in_flight = 1u << 14;
    open.row(spec, scale_shards, threads, {TextTable::cell(gap)},
             "gap" + std::to_string(gap));
  }
  open.print(json, "open_loop");

  // --- shard scaling ------------------------------------------------------
  std::printf("\n--- Shard scaling (one workload, 1..%d shards) ---\n",
              scale_shards);
  Section scaling({"shards", "threads"},
                  {"steps", "wall ms", "Msteps/s", "speedup"},
                  tally);
  for (int s = 1; s <= scale_shards; s *= 2) {
    WorkloadSpec spec = base_spec(scale, "pif");
    spec.concurrency = smoke ? 128 : 8192;
    spec.measure = smoke ? 512 : 16384;
    spec.warmup = smoke ? 64 : 1024;
    const int t = std::min(s, threads);
    scaling.row(spec, s, t, {TextTable::cell(s), TextTable::cell(t)},
                "shards" + std::to_string(s));
  }
  scaling.print(json, "shard_scaling");

  // --- fault intensity ladder x service mix -------------------------------
  std::printf("\n--- Fault intensity x mix (%s/%d) ---\n",
              faults.topology.c_str(), faults.n);
  Section lad({"intensity", "mix"}, recovery_cols(true), tally);
  const std::vector<std::pair<std::string, int>> rungs = {
      {"light", 1}, {"medium", 2}, {"heavy", 4}};
  for (const auto& [rung, level] : rungs) {
    for (const std::string mix : {"pif", "mixed", "forward"}) {
      WorkloadSpec spec = base_spec(faults, mix);
      spec.faults = fault_rung(level, smoke,
                               faults.seed + static_cast<std::uint64_t>(level),
                               faults.n);
      lad.row(spec, fault_shards, threads, {rung, mix}, rung + "/" + mix);
    }
  }
  lad.print(json, "intensity_ladder");

  // --- topology sweep at medium intensity ---------------------------------
  std::printf("\n--- Topology sweep (medium intensity, pif mix) ---\n");
  Section topo({"topology"}, recovery_cols(false), tally);
  const std::vector<std::string> topologies = {"ring", "complete", "tree"};
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    WorkloadSpec spec = base_spec(faults, "pif");
    spec.topology = topologies[i];
    spec.faults = fault_rung(2, smoke, faults.seed + 100 + i, faults.n);
    topo.row(spec, fault_shards, threads, {topologies[i]}, topologies[i]);
  }
  topo.print(json, "topology_sweep");

  // --- storm ladder: correlated patterns through the load generator -------
  std::printf("\n--- Storm ladder (%s/%d, pif mix) ---\n",
              faults.topology.c_str(), faults.n);
  Section storm({"pattern"}, recovery_cols(true), tally);
  bool storm_recovered = true;
  const std::vector<std::string> storms =
      smoke ? std::vector<std::string>{"all"}
            : std::vector<std::string>{"rolling-partition", "crash-storm",
                                       "flapping-link", "cascade", "all"};
  for (std::size_t i = 0; i < storms.size(); ++i) {
    WorkloadSpec spec = base_spec(faults, "pif");
    spec.faults = storm_rung(storms[i], smoke, faults.seed + 200 + i);
    storm_recovered =
        storm.row(spec, fault_shards, threads, {storms[i]}, storms[i])
            .recovered &&
        storm_recovered;
  }
  storm.print(json, "storm_ladder");

  // --- supervisor policy sweep: plain retry vs breaker + hedging ----------
  // A deterministic single-Simulator heavy storm; the same plan, scheduler
  // and kill schedule for both policies, so the p99 comparison isolates the
  // resilience stack itself.
  std::printf("\n--- Policy sweep under a heavy storm (p99 in steps) ---\n");
  TextTable pol({"seed", "plain p99", "policy p99", "plain ok", "policy ok",
                 "trips", "hedges"});
  std::string pol_json;
  bool policy_beats_baseline = true;
  std::uint64_t plain_p99_sum = 0;
  std::uint64_t policy_p99_sum = 0;
  for (std::uint64_t s = faults.seed + 300; s < faults.seed + 303; ++s) {
    const PolicyRun plain = run_policy(s, smoke, /*resilience=*/false);
    const PolicyRun policy = run_policy(s, smoke, /*resilience=*/true);
    plain_p99_sum += plain.p99;
    policy_p99_sum += policy.p99;
    policy_beats_baseline = policy_beats_baseline && policy.ok >= plain.ok;
    pol.add_row({TextTable::cell(s), TextTable::cell(plain.p99),
                 TextTable::cell(policy.p99), TextTable::cell(plain.ok),
                 TextTable::cell(policy.ok), TextTable::cell(policy.trips),
                 TextTable::cell(policy.hedges)});
    const auto n = [](std::uint64_t v) { return std::to_string(v); };
    add_element(pol_json,
                json_object({{"seed", n(s)},
                             {"plain_p99", n(plain.p99)},
                             {"policy_p99", n(policy.p99)},
                             {"plain_ok", std::to_string(plain.ok)},
                             {"policy_ok", std::to_string(policy.ok)},
                             {"breaker_trips", n(policy.trips)},
                             {"hedges_launched", n(policy.hedges)}}));
  }
  pol.print();
  json.set_raw("policy_sweep", "[" + pol_json + "]");
  // Aggregate tail verdict: summed across seeds the resilience stack must
  // be no slower than plain retry (and strictly faster in the full run).
  policy_beats_baseline =
      policy_beats_baseline && policy_p99_sum <= plain_p99_sum;

  // --- determinism: merged JSON identical for any worker count ------------
  WorkloadSpec pin = base_spec(scale, "mixed");
  pin.concurrency = 64;
  WorkloadSpec fault_pin = base_spec(faults, "mixed");
  fault_pin.faults = fault_rung(2, smoke, faults.seed + 7, faults.n);
  for (WorkloadSpec* s : {&pin, &fault_pin}) {
    s->measure = smoke ? 128 : 512;
    s->warmup = 16;
  }
  std::string pin_json;
  std::string fault_pin_json;
  const bool pin_ok = deterministic(pin, pin_json);
  const bool fault_pin_ok = deterministic(fault_pin, fault_pin_json);

  std::printf("\n");
  verdict(pin_ok,
          "sharded merge deterministic: aggregate JSON bit-identical for "
          "--threads 1 vs 4");
  verdict(highwater_ok,
          smoke ? "high-water cell skipped (--smoke)"
                : "131072 concurrent sessions completed and recycled "
                  "through the svc free list");
  verdict(tally.recovered,
          "every cell recovered: a session submitted after the last fault "
          "window closed completed correctly on every shard");
  verdict(tally.completed,
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
  verdict(fault_pin_ok,
          "faulted sharded merge deterministic: aggregate JSON (fault "
          "section included) bit-identical for --threads 1 vs 4");

  json.set("highwater_ok", highwater_ok);
  json.set("all_recovered", tally.recovered);
  json.set("all_completed", tally.completed);
  json.set("storm_recovered", storm_recovered);
  json.set("policy_beats_baseline", policy_beats_baseline);
  json.set("deterministic", pin_ok);
  json.set("fault_deterministic", fault_pin_ok);
  json.set_raw("determinism_pin", pin_json);
  json.set_raw("fault_determinism_pin", fault_pin_json);
  return finish(json, args);
}
