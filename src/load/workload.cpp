#include "load/workload.hpp"

// Context method bodies (the sealed sim fast path) are inline in
// sim/simulator.hpp; every TU calling them must see the definitions.
#include "sim/simulator.hpp"

#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "load/shard.hpp"
#include "sim/scheduler.hpp"
#include "sim/topology.hpp"
#include "svc/client.hpp"
#include "svc/host.hpp"

namespace snapstab::load {

namespace {

using svc::ServiceId;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Shard i's share of an aggregate target: totals split evenly, remainders
// to the lowest shard indices — sum over shards reconstructs the total.
std::uint64_t share(std::uint64_t total, int i, int k) {
  return total / static_cast<std::uint64_t>(k) +
         (static_cast<std::uint64_t>(i) <
                  total % static_cast<std::uint64_t>(k)
              ? 1
              : 0);
}

sim::Topology make_topology(const std::string& name, int n,
                            std::uint64_t seed) {
  if (name == "complete") return sim::Topology::complete(n);
  if (name == "ring") return sim::Topology::ring(n);
  if (name == "line") return sim::Topology::line(n);
  if (name == "star") return sim::Topology::star(n);
  if (name == "tree") return sim::Topology::random_tree(n, seed);
  SNAPSTAB_CHECK_MSG(false, "unknown workload topology");
  return sim::Topology::ring(n);
}

// One in-flight logical request, from the driver's point of view. The seq
// may be shared with other slots (coalesced submissions chain onto one
// host session); each slot still gets its own completion callback. Under a
// fault plan a request may span several attempts of the same `desc`: `gen`
// stamps the current attempt so callbacks from abandoned attempts are
// recognized as stale.
struct LiveSlot {
  std::uint64_t submit_step = 0;  // first attempt: latency spans retries
  std::uint64_t submit_wall = 0;  // record_wall only
  std::uint64_t deadline = 0;     // faulted runs: abandon the attempt here
  std::uint32_t seq = 0;
  std::uint32_t gen = 0;
  std::uint32_t attempts = 0;
  std::uint32_t wire_seq = 0;  // ForwardMsg: keys the attempt in fwd_wait
  sim::ProcessId origin = -1;
  bool in_use = false;
  svc::Descriptor desc;
};

struct Driver {
  const WorkloadSpec* spec = nullptr;
  sim::Simulator* sim = nullptr;
  svc::Client* client = nullptr;
  std::vector<svc::ServiceHost*> hosts;
  Rng rng;  // ALL driver randomness; seeded from (seed, shard, shard_count)

  // Weighted service pick: cumulative integer weights.
  std::array<std::uint32_t, svc::kServiceIdCount> cum{};
  std::uint32_t weight_total = 0;

  std::vector<LiveSlot> slots;
  std::vector<std::uint32_t> free_slots;
  std::uint64_t live = 0;

  // ForwardMsg end-to-end matching: (origin << 20 | wire_seq) ->
  // (gen << 32 | slot), one entry per live accepted attempt; an abandoned
  // attempt's entry is erased with it, and the gen is checked on match.
  std::unordered_map<std::uint64_t, std::uint64_t> fwd_wait;
  std::vector<svc::ServiceHost::Delivery> scratch;
  bool any_forward = false;

  std::uint64_t warmup = 0;   // this shard's discarded completions
  std::uint64_t target = 0;   // warmup + measured completions
  std::uint64_t completions = 0;
  std::uint64_t concurrency = 0;  // closed-loop in-flight target
  std::uint64_t next_arrival = 0;  // open loop, in engine steps
  std::int64_t next_payload = 0;

  // Fault engine (faults_on iff the spec carries windows; everything below
  // is untouched otherwise, so faults-off streams stay bit-identical).
  bool faults_on = false;
  fault::Injector* injector = nullptr;
  std::uint64_t fault_first_begin = 0;
  std::uint64_t fault_last_end = 0;

  WorkloadCounters counters;
  LatencyHistogram steps_hist;
  LatencyHistogram wall_hist;
  // Recovery metrics (faulted runs).
  std::uint64_t completed_during_fault = 0;
  std::uint64_t completed_after_fault = 0;
  std::uint64_t first_success_after_fault = 0;
  bool recovered = false;
  LatencyHistogram recovery_hist;

  ServiceId pick_service() {
    const auto r = static_cast<std::uint32_t>(rng.below(weight_total));
    for (int i = 0; i < svc::kServiceIdCount; ++i)
      if (r < cum[static_cast<std::size_t>(i)])
        return static_cast<ServiceId>(i);
    return ServiceId::PifBroadcast;  // unreachable
  }

  void free_slot(std::uint32_t si) {
    slots[si].in_use = false;
    free_slots.push_back(si);
    --live;
  }

  void on_session_done(std::uint32_t si, std::uint32_t gen,
                       const svc::SessionKey& key,
                       const svc::SessionResult& r) {
    // Recycle the host-side record immediately: O(live) memory however
    // many sessions pass through. A coalesced twin releases once; the
    // chained callbacks' repeat releases are no-ops.
    hosts[static_cast<std::size_t>(key.origin)]->release_session(key.seq);
    LiveSlot& ls = slots[si];
    // A ghost completion of an attempt the driver already abandoned
    // (deadline-expired and resubmitted, or slot recycled): record nothing.
    if (!ls.in_use || ls.gen != gen) return;
    if (r.completed) {
      ++counters.completed;
      ++completions;
      const std::uint64_t step = sim->step_count();
      if (completions > warmup) {
        steps_hist.record(step - ls.submit_step);
        if (spec->record_wall) wall_hist.record(now_ns() - ls.submit_wall);
      }
      if (faults_on) {
        if (step >= fault_last_end)
          ++completed_after_fault;
        else if (step >= fault_first_begin)
          ++completed_during_fault;
        if (ls.submit_step >= fault_last_end) {
          recovery_hist.record(step - ls.submit_step);
          if (!recovered) {
            recovered = true;
            first_success_after_fault = step - fault_last_end;
          }
        }
      }
      free_slot(si);
      return;
    }
    // Failed attempt. A ForwardMsg admission refusal is backpressure and
    // ends the request; a session killed by a crash-restart window
    // (admission stays Accepted) is retried.
    if (r.admission != core::ForwardSubmit::Accepted) {
      ++counters.refused;
      free_slot(si);
      return;
    }
    retry_or_fail(si);
  }

  static std::uint64_t fwd_key(sim::ProcessId origin, std::uint32_t wire_seq) {
    return (static_cast<std::uint64_t>(origin) << 20) | wire_seq;
  }

  // Abandons the slot's current (accepted) attempt and either launches the
  // next one or, past the retry cap, gives the request up. The abandoned
  // attempt's host record, if still live, is left to its ghost completion;
  // the gen bump in launch() makes that completion stale on arrival.
  void retry_or_fail(std::uint32_t si) {
    LiveSlot& ls = slots[si];
    if (ls.desc.service == ServiceId::ForwardMsg)
      fwd_wait.erase(fwd_key(ls.origin, ls.wire_seq));
    if (ls.attempts > static_cast<std::uint32_t>(kFaultMaxRetries)) {
      ++counters.failed;
      free_slot(si);
      return;
    }
    ++counters.retries;
    launch(si);
  }

  // Submits the slot's descriptor as its next attempt. Returns false when
  // the submission was refused at admission (ForwardMsg backpressure): the
  // refusal fires the completion callback synchronously inside
  // submit_desc, and that callback frees the slot without resubmitting.
  bool launch(std::uint32_t si) {
    LiveSlot& ls = slots[si];
    ++ls.gen;
    ++ls.attempts;
    ls.deadline = sim->step_count() + spec->fault_deadline;
    const std::uint32_t gen = ls.gen;
    const svc::Session s = client->submit_desc(
        ls.origin, ls.desc,
        [this, si, gen](const svc::SessionKey& k,
                        const svc::SessionResult& r) {
          on_session_done(si, gen, k, r);
        });
    ++counters.submitted;
    if (s.coalesced) ++counters.coalesced;
    if (!ls.in_use) return false;
    ls.seq = s.key.seq;
    if (ls.desc.service == ServiceId::ForwardMsg) {
      any_forward = true;
      ls.wire_seq = s.wire_seq;
      fwd_wait[fwd_key(s.key.origin, s.wire_seq)] =
          (static_cast<std::uint64_t>(gen) << 32) | si;
    }
    return true;
  }

  // Submits one session of the weighted mix from a fresh driver slot.
  // Returns false when it was refused at admission — the caller should
  // stop submitting until the engine drains some hops.
  bool submit_one() {
    const ServiceId sid = pick_service();
    const int n = static_cast<int>(hosts.size());
    const auto origin =
        static_cast<sim::ProcessId>(rng.below(static_cast<std::uint64_t>(n)));
    svc::Descriptor d;
    d.service = sid;
    const bool fwd = sid == ServiceId::ForwardMsg;
    if (sid == ServiceId::PifBroadcast || fwd)
      d.payload = Value::integer(++next_payload);
    if (fwd) {
      // Uniform destination != origin (every pair is routable: the
      // workload topologies are connected).
      auto t = static_cast<sim::ProcessId>(
          rng.below(static_cast<std::uint64_t>(n - 1)));
      if (t >= origin) ++t;
      d.dst = t;
    }

    std::uint32_t si;
    if (!free_slots.empty()) {
      si = free_slots.back();
      free_slots.pop_back();
    } else {
      si = static_cast<std::uint32_t>(slots.size());
      slots.emplace_back();
    }
    LiveSlot& ls = slots[si];
    ls.in_use = true;
    ls.origin = origin;
    ls.submit_step = sim->step_count();
    if (spec->record_wall) ls.submit_wall = now_ns();
    ls.attempts = 0;
    ls.desc = std::move(d);
    ++live;
    return launch(si);
  }

  // The driver pump, run as the engine's stop predicate every check_every
  // steps: drains forward deliveries, refills the arrival model, drains
  // the observation log. Returns true when the shard's completion target
  // is met.
  bool pump() {
    // Fault effects apply first, at the pump's step-clock cadence, before
    // any completion is observed or any new work submitted.
    if (faults_on) injector->poll(*sim);

    if (any_forward) {
      for (svc::ServiceHost* h : hosts) h->take_deliveries(scratch);
      for (const svc::ServiceHost::Delivery& del : scratch) {
        const auto it = fwd_wait.find(fwd_key(del.origin, del.wire_seq));
        if (it == fwd_wait.end()) continue;  // released / foreign traffic
        const auto si = static_cast<std::uint32_t>(it->second & 0xFFFFFFFFu);
        const auto gen = static_cast<std::uint32_t>(it->second >> 32);
        fwd_wait.erase(it);
        if (!slots[si].in_use || slots[si].gen != gen) continue;
        // finish_forward completes the origin's session and fires the
        // slot's callback (which records latency and frees the slot).
        hosts[static_cast<std::size_t>(slots[si].origin)]->finish_forward(
            slots[si].seq);
      }
      scratch.clear();
    }

    // Deadline pass (faulted runs): an attempt whose in-flight computation
    // a window wiped would otherwise hang forever — abandon and retry it.
    if (faults_on) {
      const std::uint64_t now = sim->step_count();
      for (std::uint32_t si = 0; si < slots.size(); ++si) {
        if (slots[si].in_use && now >= slots[si].deadline) retry_or_fail(si);
      }
    }

    if (completions >= target) return true;

    if (spec->arrival == WorkloadSpec::Arrival::Closed) {
      while (live < concurrency)
        if (!submit_one()) break;  // forward backpressure: wait for drain
    } else {
      const std::uint64_t now = sim->step_count();
      while (next_arrival <= now) {
        if (live >= spec->max_in_flight)
          ++counters.shed;  // the cap is load shedding, not queueing
        else
          submit_one();
        next_arrival += 1 + rng.below(2 * spec->inter_arrival - 1);
      }
    }

    // Session traffic logs about seven observations per session. The
    // Simulator is private to this shard and nothing reads its log (no
    // spec checker, no trace sink), so the log is write-only: drain it at
    // every pump. It then holds at most one pump interval's events and
    // stays in cache, and the shard runs in O(live) memory.
    sim->log().clear();
    return completions >= target;
  }
};

}  // namespace

ShardResult run_workload_shard(const WorkloadSpec& spec, int shard,
                               int shard_count) {
  SNAPSTAB_CHECK(shard_count >= 1 && shard >= 0 && shard < shard_count);
  SNAPSTAB_CHECK_MSG(spec.n >= 2, "a workload world needs >= 2 processes");

  if (spec.arrival == WorkloadSpec::Arrival::Open)
    SNAPSTAB_CHECK_MSG(spec.inter_arrival >= 1,
                       "open-loop mean inter-arrival must be >= 1 step");

  ShardResult out;
  const std::uint64_t wall_start = now_ns();

  // Effective weights: all-zero means a pure PIF-broadcast mix.
  std::array<std::uint32_t, svc::kServiceIdCount> w = spec.weights;
  std::uint32_t total = 0;
  for (const std::uint32_t x : w) total += x;
  if (total == 0) {
    w[static_cast<std::size_t>(ServiceId::PifBroadcast)] = 1;
    total = 1;
  }
  const bool with_cs =
      w[static_cast<std::size_t>(ServiceId::CriticalSection)] > 0;
  const bool with_fwd = w[static_cast<std::size_t>(ServiceId::ForwardMsg)] > 0;
  if (with_cs) {
    std::uint32_t others = 0;
    for (int i = 0; i < svc::kServiceIdCount; ++i) {
      const auto s = static_cast<ServiceId>(i);
      if (s != ServiceId::CriticalSection && s != ServiceId::ForwardMsg)
        others += w[static_cast<std::size_t>(i)];
    }
    SNAPSTAB_CHECK_MSG(others == 0,
                       "a CriticalSection mix admits only CS + ForwardMsg "
                       "(an ME host's phase cycle owns its IDL/PIF stack)");
  }

  // Everything this shard does derives from (seed, shard, shard_count):
  // identical results whichever worker thread runs it.
  std::uint64_t mix = spec.seed ^
                      (0x9E3779B97F4A7C15ull *
                       (static_cast<std::uint64_t>(shard) + 1)) ^
                      (0xBF58476D1CE4E5B9ull *
                       static_cast<std::uint64_t>(shard_count));
  const std::uint64_t world_seed = splitmix64(mix);
  const std::uint64_t sched_seed = splitmix64(mix);
  const std::uint64_t driver_seed = splitmix64(mix);
  // Drawn ONLY for faulted specs, so faults-off runs keep the exact seed
  // streams (and bytes) they had before the fault engine existed.
  const bool faults_on = spec.faults.enabled();
  const std::uint64_t fault_seed = faults_on ? splitmix64(mix) : 0;

  auto sim = svc::service_world(
      make_topology(spec.topology, spec.n, world_seed), spec.channel_capacity,
      world_seed,
      [&](sim::ProcessId p) {
        svc::HostConfig cfg;
        cfg.id = p + 1;  // distinct identities for IDL / ME / election
        cfg.with_me = with_cs;
        cfg.with_idl = w[static_cast<std::size_t>(ServiceId::Idl)] > 0;
        cfg.with_reset = w[static_cast<std::size_t>(ServiceId::Reset)] > 0;
        cfg.with_snapshot =
            w[static_cast<std::size_t>(ServiceId::Snapshot)] > 0;
        cfg.with_termdetect =
            w[static_cast<std::size_t>(ServiceId::TermDetect)] > 0;
        cfg.with_election =
            w[static_cast<std::size_t>(ServiceId::Election)] > 0;
        if (cfg.with_snapshot)
          cfg.local_state = [p] { return Value::integer(p); };
        if (cfg.with_termdetect)
          cfg.app.counters = [] { return core::AppCounters{}; };
        return cfg;
      },
      with_fwd);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(sched_seed));
  svc::Client client(*sim);

  fault::FaultPlan plan;
  std::unique_ptr<fault::Injector> injector;
  if (faults_on) {
    fault::FaultPlanSpec fs = spec.faults;
    fs.seed = spec.faults.seed ^ fault_seed;  // per-shard schedule
    if (fs.forward_header_n == 0 && with_fwd) fs.forward_header_n = spec.n;
    plan = fault::FaultPlan::compile(fs, sim->topology());
    injector = std::make_unique<fault::Injector>(plan);
    out.fault_first_begin = plan.first_begin();
    out.fault_last_end = plan.last_end();
    out.plan_digest = plan.digest();
    out.fault_windows = static_cast<std::uint64_t>(plan.windows().size());
  }

  Driver drv;
  drv.spec = &spec;
  drv.sim = sim.get();
  drv.client = &client;
  drv.hosts.reserve(static_cast<std::size_t>(spec.n));
  for (sim::ProcessId p = 0; p < sim->process_count(); ++p)
    drv.hosts.push_back(&sim->process_as<svc::ServiceHost>(p));
  drv.rng = Rng(driver_seed);
  if (faults_on) {
    drv.faults_on = true;
    drv.injector = injector.get();
    drv.fault_first_begin = plan.first_begin();
    drv.fault_last_end = plan.last_end();
  }
  std::uint32_t acc = 0;
  for (int i = 0; i < svc::kServiceIdCount; ++i) {
    acc += w[static_cast<std::size_t>(i)];
    drv.cum[static_cast<std::size_t>(i)] = acc;
  }
  drv.weight_total = total;
  drv.warmup = share(spec.warmup, shard, shard_count);
  drv.target = drv.warmup + share(spec.measure, shard, shard_count);
  drv.concurrency = share(spec.concurrency, shard, shard_count);
  if (spec.arrival == WorkloadSpec::Arrival::Closed && drv.concurrency == 0)
    drv.concurrency = drv.target > 0 ? 1 : 0;

  if (drv.target == 0) {
    out.wall_ns = now_ns() - wall_start;
    return out;  // this shard has no share of the measure phase
  }

  sim::StopPolicy policy;
  policy.check_every = static_cast<std::uint64_t>(
      spec.check_every > 0 ? spec.check_every : 1);

  bool done = drv.pump();  // initial arrivals / closed-loop fill
  while (!done) {
    const std::uint64_t used = sim->step_count();
    if (used >= spec.max_steps) {
      out.hit_step_budget = true;
      break;
    }
    const sim::Simulator::StopReason reason = sim->run(
        spec.max_steps - used,
        [&drv](sim::Simulator&) { return drv.pump(); }, policy);
    done = drv.completions >= drv.target;
    if (done) break;
    if (reason == sim::Simulator::StopReason::BudgetExhausted) {
      out.hit_step_budget = true;
      break;
    }
    if (reason == sim::Simulator::StopReason::Quiescent) {
      // No enabled step. Open loop: logical time jumps to the next
      // arrival. Faulted runs: step time is frozen, so pending attempt
      // deadlines would never fire — expire every live attempt now (a
      // wiped in-flight computation strands its session otherwise) and let
      // the retry pass re-enable the world. Either way the pump gets one
      // chance to inject work; a still-quiescent world with nothing
      // submitted is a stall — stop rather than spin.
      if (spec.arrival == WorkloadSpec::Arrival::Open)
        drv.next_arrival = sim->step_count();
      if (faults_on) {
        for (LiveSlot& ls : drv.slots)
          if (ls.in_use && ls.deadline > sim->step_count())
            ls.deadline = sim->step_count();
      }
      const std::uint64_t before = drv.counters.submitted;
      done = drv.pump();
      if (!done && drv.counters.submitted == before) {
        out.stalled = true;
        break;
      }
    }
  }

  out.counters = drv.counters;
  out.steps_hist = drv.steps_hist;
  out.wall_hist = drv.wall_hist;
  out.steps = sim->step_count();
  out.wall_ns = now_ns() - wall_start;
  if (faults_on) {
    out.completed_during_fault = drv.completed_during_fault;
    out.completed_after_fault = drv.completed_after_fault;
    out.first_success_after_fault = drv.first_success_after_fault;
    out.recovered = drv.recovered;
    out.recovery_hist = drv.recovery_hist;
  }
  return out;
}

LoadReport run_sharded(const WorkloadSpec& spec, int shards, int threads) {
  SNAPSTAB_CHECK(shards >= 1 && threads >= 1);
  LoadReport report;
  report.shard_count = shards;
  report.threads = threads;
  const std::uint64_t wall_start = now_ns();
  report.shards = parallel_shards(shards, threads, [&spec, shards](int i) {
    return run_workload_shard(spec, i, shards);
  });
  report.harness_wall_ns = now_ns() - wall_start;
  for (const ShardResult& s : report.shards) {
    report.total.counters.merge(s.counters);
    report.total.steps_hist.merge(s.steps_hist);
    report.total.wall_hist.merge(s.wall_hist);
    report.total.steps += s.steps;
    report.total.wall_ns += s.wall_ns;
    report.total.hit_step_budget |= s.hit_step_budget;
    report.total.stalled |= s.stalled;
    // Fault span: envelope across per-shard plans; first success: the
    // fastest recovering shard (each measures from its own window close).
    if (s.fault_last_end > 0) {
      if (report.total.fault_last_end == 0 ||
          s.fault_first_begin < report.total.fault_first_begin)
        report.total.fault_first_begin = s.fault_first_begin;
      if (s.fault_last_end > report.total.fault_last_end)
        report.total.fault_last_end = s.fault_last_end;
    }
    report.total.fault_windows += s.fault_windows;
    report.total.completed_during_fault += s.completed_during_fault;
    report.total.completed_after_fault += s.completed_after_fault;
    report.total.recovery_hist.merge(s.recovery_hist);
    if (s.recovered &&
        (!report.total.recovered ||
         s.first_success_after_fault < report.total.first_success_after_fault)) {
      report.total.recovered = true;
      report.total.first_success_after_fault = s.first_success_after_fault;
    }
  }
  return report;
}

std::string LoadReport::deterministic_json(const WorkloadSpec& spec) const {
  // Hand-rolled, field-order-fixed JSON: the determinism pin compares these
  // bytes across thread counts, so nothing wall-clock-derived may appear.
  std::string s;
  s.reserve(1024);
  char buf[64];
  const auto u = [&](std::uint64_t v) {
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    s += buf;
  };
  const LatencyHistogram& h = total.steps_hist;
  s += "{\"topology\":\"";
  s += spec.topology;
  s += "\",\"n\":";
  u(static_cast<std::uint64_t>(spec.n));
  s += ",\"seed\":";
  u(spec.seed);
  s += ",\"arrival\":\"";
  s += spec.arrival == WorkloadSpec::Arrival::Closed ? "closed" : "open";
  s += "\",\"shards\":";
  u(static_cast<std::uint64_t>(shard_count));
  s += ",\"counters\":{\"submitted\":";
  u(total.counters.submitted);
  s += ",\"completed\":";
  u(total.counters.completed);
  s += ",\"coalesced\":";
  u(total.counters.coalesced);
  s += ",\"refused\":";
  u(total.counters.refused);
  s += ",\"shed\":";
  u(total.counters.shed);
  s += "},\"steps_total\":";
  u(total.steps);
  s += ",\"budget_hit\":";
  s += total.hit_step_budget ? "true" : "false";
  s += ",\"stalled\":";
  s += total.stalled ? "true" : "false";
  s += ",\"latency_steps\":{\"count\":";
  u(h.count());
  s += ",\"min\":";
  u(h.min());
  s += ",\"p50\":";
  u(h.percentile(50));
  s += ",\"p90\":";
  u(h.percentile(90));
  s += ",\"p99\":";
  u(h.percentile(99));
  s += ",\"p999\":";
  u(h.percentile(99.9));
  s += ",\"max\":";
  u(h.max());
  s += ",\"sum\":";
  u(h.sum());
  s += ",\"digest\":\"";
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h.digest()));
  s += buf;
  s += "\"},\"per_shard\":{\"completed\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i != 0) s += ',';
    u(shards[i].counters.completed);
  }
  s += "],\"steps\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i != 0) s += ',';
    u(shards[i].steps);
  }
  s += "]}";
  // Fault/recovery section ONLY for faulted specs: the faults-off byte
  // stream is pinned by the cross-thread determinism test and must not
  // move when this feature ships.
  if (spec.faults.enabled()) {
    const LatencyHistogram& r = total.recovery_hist;
    s += ",\"faults\":{\"windows\":";
    u(static_cast<std::uint64_t>(spec.faults.total_windows()));
    // Storm patterns expand into extra compiled windows; emitted only when
    // present so storms-off faulted runs keep their exact PR-8 bytes.
    if (!spec.faults.patterns.empty()) {
      s += ",\"patterns\":";
      u(static_cast<std::uint64_t>(spec.faults.patterns.size()));
      s += ",\"compiled_windows\":";
      u(total.fault_windows);
    }
    s += ",\"plan_seed\":";
    u(spec.faults.seed);
    s += ",\"retries\":";
    u(total.counters.retries);
    s += ",\"failed\":";
    u(total.counters.failed);
    s += ",\"completed_during\":";
    u(total.completed_during_fault);
    s += ",\"completed_after\":";
    u(total.completed_after_fault);
    s += ",\"recovered\":";
    s += total.recovered ? "true" : "false";
    s += ",\"first_success_after\":";
    u(total.first_success_after_fault);
    s += ",\"recovery_latency\":{\"count\":";
    u(r.count());
    s += ",\"p50\":";
    u(r.percentile(50));
    s += ",\"p99\":";
    u(r.percentile(99));
    s += ",\"max\":";
    u(r.max());
    s += ",\"digest\":\"";
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(r.digest()));
    s += buf;
    s += "\"},\"plan_digests\":[";
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (i != 0) s += ',';
      s += '"';
      std::snprintf(buf, sizeof buf, "%016llx",
                    static_cast<unsigned long long>(shards[i].plan_digest));
      s += buf;
      s += '"';
    }
    s += "]}";
  }
  s += "}";
  return s;
}

}  // namespace snapstab::load
