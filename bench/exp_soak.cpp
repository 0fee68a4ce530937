// exp_soak — wall-clock fault soak over the thread runtime.
//
// The simulator experiments (exp_faults) prove recovery on a deterministic
// step clock; this one proves it against real concurrency. A correlated
// fault storm — crash bursts, a flapping link, rolling partitions and a
// cascade — is mapped onto wall time by fault::RuntimeInjector and applied
// to live PIF-only hosts for most of the soak budget, while the driver
// keeps one request in flight per origin and measures completion latency.
// When the storm ceases, the snap-stabilization contract is the verdict: a
// fresh request issued at every origin after the last window closed must
// complete, and the time from storm end to that completion is the measured
// recovery latency.
//
// The soak is wall-clock bounded: --seconds (default 60, ~3 in --smoke)
// sizes the step duration so the storm occupies ~80% of the budget and the
// recovery phase the rest. Unlike the simulator path the run is not
// replayable bit-for-bit; the plan (and its repro_line) still pins the
// fault schedule.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "exp_common.hpp"
#include "fault/plan.hpp"
#include "fault/runtime_injector.hpp"
#include "runtime/thread_runtime.hpp"

namespace snapstab::bench {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double pct(std::vector<double> v, int p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = (v.size() * static_cast<std::size_t>(p) +
                           static_cast<std::size_t>(p)) / 100;
  return v[std::min(idx == 0 ? 0 : idx - 1, v.size() - 1)];
}

// The storm: every correlated pattern kind, spread across the first ~80%
// of the horizon so the tail of the soak is all recovery.
fault::FaultPlanSpec soak_storm(std::uint64_t seed, std::uint64_t horizon,
                                const sim::Topology& topo) {
  fault::FaultPlanSpec fs;
  fs.seed = seed;
  fs.horizon = horizon;
  const auto h = horizon;
  fault::PatternSpec crash;
  crash.kind = fault::PatternKind::CrashStorm;
  crash.begin = h / 20;
  crash.span = (h * 7) / 10;
  crash.count = 4;
  crash.len = h / 40;
  fault::PatternSpec flap;
  flap.kind = fault::PatternKind::FlappingLink;
  flap.begin = h / 10;
  flap.count = 4;
  flap.len = h / 50;
  flap.period = h / 8;
  flap.edge = topo.edge_between(0, topo.process_count() - 1);
  fault::PatternSpec roll;
  roll.kind = fault::PatternKind::RollingPartition;
  roll.begin = h / 5;
  roll.span = h / 2;
  roll.count = 3;
  roll.len = h / 30;
  fault::PatternSpec casc;
  casc.kind = fault::PatternKind::Cascade;
  casc.begin = (h * 3) / 5;
  casc.count = 2;
  casc.len = h / 40;
  casc.lag_max = h / 40;
  fs.patterns = {crash, flap, roll, casc};
  return fs;
}

}  // namespace
}  // namespace snapstab::bench

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::bench;
  CliArgs args(argc, argv, {"smoke", "seconds", "n", "seed", "json"});
  const bool smoke = args.get_bool("smoke");
  const double seconds =
      args.get_double("seconds", smoke ? 3.0 : 60.0);
  const int n = static_cast<int>(args.get_int("n", 4));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 31));
  const std::uint64_t horizon = smoke ? 2'000 : 20'000;

  banner("E18: exp_soak",
         "§2 snap-stabilization: requests after the fault ceases are served",
         "A wall-clock storm soak on the thread runtime: correlated fault\n"
         "patterns applied to live hosts for ~80% of the budget, completion\n"
         "latency measured throughout, recovery latency at every origin\n"
         "once the storm ceases.");

  const sim::Topology topo = sim::Topology::complete(n);
  const fault::FaultPlanSpec fs = soak_storm(seed, horizon, topo);
  const fault::FaultPlan plan = fault::FaultPlan::compile(fs, topo);
  std::printf("%s\n", plan.repro_line().c_str());

  // Size one plan step so the storm phase fills ~80% of the soak budget.
  const double storm_budget_us = seconds * 1e6 * 0.8;
  const auto step_us = static_cast<std::int64_t>(
      std::max(1.0, storm_budget_us / static_cast<double>(horizon)));
  runtime::ThreadRuntime rt(topo, {.seed = seed});
  for (int i = 0; i < n; ++i)
    rt.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = n - 1}));

  fault::RuntimeInjectorOptions io;
  io.step_duration = std::chrono::microseconds(step_us);
  io.poll_interval = std::chrono::milliseconds(1);
  fault::RuntimeInjector inj(plan, rt, io);

  // Driver state: one request in flight per origin, reissued on
  // completion. During the storm completions measure goodput-under-fire;
  // after it, a request issued once the origin drained is the recovery
  // probe, and its completion stamps the origin's recovery latency.
  enum class OriginPhase : std::uint8_t { Storm, Drain, Probe, Recovered };
  std::vector<OriginPhase> phase(static_cast<std::size_t>(n),
                                 OriginPhase::Storm);
  std::vector<bool> outstanding(static_cast<std::size_t>(n), false);
  std::vector<Clock::time_point> issued_at(static_cast<std::size_t>(n));
  std::vector<double> storm_lat_ms;
  std::vector<double> recovery_ms(static_cast<std::size_t>(n), 0.0);
  std::int64_t storm_completed = 0;
  std::int64_t payload = 0;
  Clock::time_point storm_end{};
  bool storm_end_stamped = false;

  const auto start = Clock::now();
  inj.start();
  const bool finished = rt.run(
      [&] {
        const Clock::time_point now = Clock::now();
        const bool storm_over = inj.done();
        if (storm_over && !storm_end_stamped) {
          storm_end = now;
          storm_end_stamped = true;
          for (auto& ph : phase) ph = OriginPhase::Drain;
        }
        for (int i = 0; i < n; ++i) {
          const auto idx = static_cast<std::size_t>(i);
          const bool done = rt.with_process<svc::ServiceHost>(
              i, [](svc::ServiceHost& p) { return p.pif().done(); });
          if (!done) continue;
          switch (phase[idx]) {
            case OriginPhase::Storm:
              if (outstanding[idx]) {
                storm_lat_ms.push_back(ms_between(issued_at[idx], now));
                ++storm_completed;
              }
              rt.with_process<svc::ServiceHost>(
                  i, [&payload](svc::ServiceHost& p) {
                    p.pif().request(Value::integer(payload++));
                    return 0;
                  });
              outstanding[idx] = true;
              issued_at[idx] = now;
              break;
            case OriginPhase::Drain:
              // Leftover storm traffic has drained: issue the fresh
              // post-storm probe the snap-stabilization contract is about.
              rt.with_process<svc::ServiceHost>(
                  i, [&payload](svc::ServiceHost& p) {
                    p.pif().request(Value::integer(payload++));
                    return 0;
                  });
              phase[idx] = OriginPhase::Probe;
              break;
            case OriginPhase::Probe:
              recovery_ms[idx] = ms_between(storm_end, now);
              phase[idx] = OriginPhase::Recovered;
              break;
            case OriginPhase::Recovered:
              break;
          }
        }
        // Judged after the phase moves above: the evaluation that moves
        // the last origin to Recovered must return true, since once every
        // node is idle no activation runs this predicate again.
        return storm_over &&
               std::all_of(phase.begin(), phase.end(), [](OriginPhase ph) {
                 return ph == OriginPhase::Recovered;
               });
      },
      std::chrono::milliseconds(
          static_cast<std::int64_t>(seconds * 2'000) + 30'000));
  inj.stop();
  rt.shutdown();
  const double wall_s = ms_between(start, Clock::now()) / 1e3;
  const double storm_s =
      storm_end_stamped ? ms_between(start, storm_end) / 1e3 : wall_s;

  const auto& c = inj.counters();
  std::printf("\n--- Soak (%d hosts, complete graph, %.1fs budget) ---\n", n,
              seconds);
  TextTable t({"metric", "value"});
  t.add_row({"wall time (s)", TextTable::cell(wall_s, 2)});
  t.add_row({"storm phase (s)", TextTable::cell(storm_s, 2)});
  t.add_row({"plan windows", TextTable::cell(static_cast<std::int64_t>(
                                 plan.windows().size()))});
  t.add_row({"step duration (us)", TextTable::cell(step_us)});
  t.add_row({"mid-storm completions", TextTable::cell(storm_completed)});
  t.add_row({"mid-storm p50 (ms)", TextTable::cell(pct(storm_lat_ms, 50), 2)});
  t.add_row({"mid-storm p99 (ms)", TextTable::cell(pct(storm_lat_ms, 99), 2)});
  t.add_row({"crashes", TextTable::cell(static_cast<std::int64_t>(c.crashes))});
  t.add_row({"garbage bursts",
             TextTable::cell(static_cast<std::int64_t>(c.garbage_bursts))});
  t.add_row({"drops", TextTable::cell(static_cast<std::int64_t>(c.drops))});
  t.add_row({"duplicates",
             TextTable::cell(static_cast<std::int64_t>(c.duplicates))});
  t.add_row({"partition wipes",
             TextTable::cell(static_cast<std::int64_t>(c.partition_wipes))});
  t.add_row({"link-down wipes",
             TextTable::cell(static_cast<std::int64_t>(c.down_wipes))});
  t.print();

  std::printf("\n--- Recovery latency after the storm ceased ---\n");
  TextTable r({"origin", "recovery (ms)"});
  double recovery_max = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    recovery_max = std::max(recovery_max, recovery_ms[idx]);
    r.add_row({TextTable::cell(i), TextTable::cell(recovery_ms[idx], 2)});
  }
  r.print();

  const bool storm_bit = c.crashes > 0 && (c.drops + c.garbage_bursts +
                                           c.partition_wipes + c.down_wipes +
                                           c.duplicates) > 0;
  verdict(finished,
          "every origin recovered: a fresh request issued at each origin "
          "after the last fault window closed completed");
  verdict(storm_bit,
          "the storm actually bit: crash restarts and channel-level fault "
          "effects were both applied to the live runtime");

  BenchJson json("exp_soak");
  json.set_meta("plan", plan.repro_line());
  json.set("seconds_budget", seconds);
  json.set("wall_s", wall_s);
  json.set("storm_s", storm_s);
  json.set("n", n);
  json.set("horizon_steps", horizon);
  json.set("step_us", step_us);
  json.set("plan_windows",
           static_cast<std::int64_t>(plan.windows().size()));
  json.set("storm_completed", storm_completed);
  json.set("storm_p50_ms", pct(storm_lat_ms, 50));
  json.set("storm_p99_ms", pct(storm_lat_ms, 99));
  json.set("recovery_max_ms", recovery_max);
  std::string rec_json = "[";
  for (int i = 0; i < n; ++i) {
    if (i != 0) rec_json += ",";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f",
                  recovery_ms[static_cast<std::size_t>(i)]);
    rec_json += buf;
  }
  rec_json += "]";
  json.set_raw("recovery_ms", rec_json);
  json.set("crashes", c.crashes);
  json.set("garbage_bursts", c.garbage_bursts);
  json.set("drops", c.drops);
  json.set("duplicates", c.duplicates);
  json.set("partition_wipes", c.partition_wipes);
  json.set("down_wipes", c.down_wipes);
  json.set("recovered", finished);
  json.set("storm_bit", storm_bit);
  return finish(json, args);
}
