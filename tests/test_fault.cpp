// test_fault.cpp — the fault engine end to end: deterministic plans, the
// simulator-side Injector, host crash-restart, the client-side Supervisor,
// and the chaos acceptance suite.
//
// The acceptance contract is the paper's snap-stabilization statement read
// through the fault engine: sessions caught inside fault windows reach a
// *terminal* outcome (never a silent hang), sessions submitted at or after
// the last window's close complete correctly, and the same (seed, plan)
// replays bit-identically — any failure prints the one-line repro
// (plan.repro_line()) that pins the schedule it executed.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/runtime_injector.hpp"
#include "runtime/thread_runtime.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "svc/host.hpp"
#include "svc/supervisor.hpp"

namespace snapstab::fault {
namespace {

using sim::Simulator;

sim::Topology make_topo(const std::string& name, int n, std::uint64_t seed) {
  if (name == "ring") return sim::Topology::ring(n);
  if (name == "complete") return sim::Topology::complete(n);
  return sim::Topology::random_tree(n, seed);
}

std::unique_ptr<Simulator> pif_world(const sim::Topology& topo,
                                     std::uint64_t seed) {
  auto sim = svc::service_world(topo, 1, seed, [](sim::ProcessId p) {
    svc::HostConfig cfg;
    cfg.id = p + 1;
    return cfg;
  });
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(seed + 1));
  return sim;
}

// The chaos campaign's plan shape: every fault kind, windows dense enough
// to overlap, all inside a short horizon so each test drains it.
FaultPlanSpec chaos_spec(std::uint64_t seed) {
  FaultPlanSpec fs;
  fs.seed = seed;
  fs.horizon = 4'000;
  fs.min_len = 100;
  fs.max_len = 600;
  fs.crash_windows = 2;
  fs.garbage_windows = 2;
  fs.loss_windows = 1;
  fs.duplicate_windows = 1;
  fs.partition_windows = 1;
  return fs;
}

// The storm campaign's spec: all four correlated patterns, anchored inside
// a short horizon so each test drains the schedule.
FaultPlanSpec storm_spec(std::uint64_t seed) {
  FaultPlanSpec fs;
  fs.seed = seed;
  fs.horizon = 4'000;
  fs.min_len = 100;
  fs.max_len = 600;
  PatternSpec roll;
  roll.kind = PatternKind::RollingPartition;
  roll.begin = 200;
  roll.span = 1'500;
  roll.count = 3;
  roll.len = 300;
  PatternSpec crash;
  crash.kind = PatternKind::CrashStorm;
  crash.begin = 800;
  crash.span = 1'200;
  crash.count = 3;
  crash.len = 250;
  PatternSpec flap;
  flap.kind = PatternKind::FlappingLink;
  flap.begin = 400;
  flap.count = 3;
  flap.len = 150;
  flap.period = 500;
  PatternSpec casc;
  casc.kind = PatternKind::Cascade;
  casc.begin = 1'600;
  casc.count = 2;
  casc.len = 200;
  casc.lag_max = 400;
  fs.patterns = {roll, crash, flap, casc};
  return fs;
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

// Order-sensitive digest over every observation the run emitted — the
// replay pin's notion of "bit-identical".
std::uint64_t log_digest(const Simulator& sim) {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& e : sim.log().events()) {
    h = fnv_mix(h, e.step);
    h = fnv_mix(h, static_cast<std::uint64_t>(e.process));
    h = fnv_mix(h, static_cast<std::uint64_t>(e.layer));
    h = fnv_mix(h, static_cast<std::uint64_t>(e.kind));
    h = fnv_mix(h, static_cast<std::uint64_t>(e.peer));
    h = fnv_mix(h, static_cast<std::uint64_t>(e.value.as_int(-1)));
    if (e.value.is_text())
      for (const char c : e.value.as_text())
        h = fnv_mix(h, static_cast<unsigned char>(c));
  }
  return h;
}

// ---------------------------------------------------------------------------
// FaultPlan: pure compilation, bounds, ordering, repro line.
// ---------------------------------------------------------------------------

TEST(FaultPlan, CompileIsAPureFunctionOfSpecAndTopology) {
  const sim::Topology topo = sim::Topology::ring(8);
  const FaultPlanSpec spec = chaos_spec(42);
  const FaultPlan a = FaultPlan::compile(spec, topo);
  const FaultPlan b = FaultPlan::compile(spec, topo);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.windows().size(), b.windows().size());
  EXPECT_EQ(a.repro_line(), b.repro_line());

  FaultPlanSpec other = spec;
  other.seed = 43;
  const FaultPlan c = FaultPlan::compile(other, topo);
  EXPECT_NE(a.digest(), c.digest());
}

TEST(FaultPlan, WindowsRespectSpecBoundsAndEventsAreSorted) {
  const sim::Topology topo = sim::Topology::ring(8);
  const FaultPlanSpec spec = chaos_spec(7);
  const FaultPlan plan = FaultPlan::compile(spec, topo);
  ASSERT_EQ(static_cast<int>(plan.windows().size()), spec.total_windows());
  for (const FaultWindow& w : plan.windows()) {
    EXPECT_LT(w.begin, spec.horizon);
    EXPECT_GE(w.end - w.begin, spec.min_len);
    EXPECT_LE(w.end - w.begin, spec.max_len);
    EXPECT_LE(w.end, plan.last_end());
    EXPECT_GE(w.begin, plan.first_begin());
    if (w.kind == FaultKind::CrashRestart) {
      EXPECT_GE(w.process, 0);
      EXPECT_LT(w.process, 8);
    }
    if (w.kind == FaultKind::ChannelGarbage || w.kind == FaultKind::EdgeLoss ||
        w.kind == FaultKind::EdgeDuplicate) {
      EXPECT_GE(w.edge, 0);
      EXPECT_LT(w.edge, topo.edge_count());
    }
    if (w.kind == FaultKind::LinkPartition) {
      // A real cut: neither side empty over the 8 processes.
      const std::uint64_t mask = w.partition_mask & 0xffull;
      EXPECT_NE(mask, 0u);
      EXPECT_NE(mask, 0xffull);
    }
  }
  // One open and one close per window, sorted on the step clock.
  ASSERT_EQ(plan.events().size(), plan.windows().size() * 2);
  for (std::size_t i = 1; i < plan.events().size(); ++i)
    EXPECT_LE(plan.events()[i - 1].step, plan.events()[i].step);
}

TEST(FaultPlan, AllZeroSpecCompilesInert) {
  const sim::Topology topo = sim::Topology::ring(4);
  const FaultPlan plan = FaultPlan::compile(FaultPlanSpec{}, topo);
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.last_end(), 0u);

  auto sim = pif_world(topo, 1);
  Injector inj(plan);
  EXPECT_TRUE(inj.done());
  EXPECT_EQ(inj.poll(*sim), 0);
  EXPECT_EQ(sim->log().events().size(), 0u);
}

TEST(FaultPlan, ReproLinePinsSeedAndDigest) {
  const FaultPlan plan =
      FaultPlan::compile(chaos_spec(99), sim::Topology::ring(6));
  const std::string line = plan.repro_line();
  EXPECT_NE(line.find("seed=99"), std::string::npos) << line;
  EXPECT_NE(line.find("plan-digest="), std::string::npos) << line;
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(plan.digest()));
  EXPECT_NE(line.find(digest_hex), std::string::npos) << line;
}

TEST(FaultPlan, KindAndOutcomeNamesAreExhaustive) {
  EXPECT_STREQ(fault_kind_name(FaultKind::CrashRestart), "crash-restart");
  EXPECT_STREQ(fault_kind_name(FaultKind::LinkPartition), "link-partition");
  EXPECT_STREQ(fault_kind_name(FaultKind::LinkDown), "link-down");
  EXPECT_STREQ(pattern_kind_name(PatternKind::RollingPartition),
               "rolling-partition");
  EXPECT_STREQ(pattern_kind_name(PatternKind::CrashStorm), "crash-storm");
  EXPECT_STREQ(pattern_kind_name(PatternKind::FlappingLink), "flapping-link");
  EXPECT_STREQ(pattern_kind_name(PatternKind::Cascade), "cascade");
  EXPECT_STREQ(svc::session_outcome_name(svc::SessionOutcome::Ok), "ok");
  EXPECT_STREQ(svc::session_outcome_name(svc::SessionOutcome::GaveUp),
               "gave-up");
  EXPECT_STREQ(svc::breaker_state_name(svc::BreakerState::Closed), "closed");
  EXPECT_STREQ(svc::breaker_state_name(svc::BreakerState::Open), "open");
  EXPECT_STREQ(svc::breaker_state_name(svc::BreakerState::HalfOpen),
               "half-open");
  EXPECT_STREQ(sim::obs_kind_name(sim::ObsKind::Fault), "fault");
}

// ---------------------------------------------------------------------------
// Correlated storm patterns: purity, per-kind shape, the draw-after
// contract that keeps storms-off plans bit-identical, and inertness.
// ---------------------------------------------------------------------------

TEST(FaultPatterns, CompileIsPureAndEachKindHasItsShape) {
  const sim::Topology topo = sim::Topology::ring(6);
  const FaultPlanSpec spec = storm_spec(42);
  const FaultPlan a = FaultPlan::compile(spec, topo);
  const FaultPlan b = FaultPlan::compile(spec, topo);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.repro_line(), b.repro_line());

  int partitions = 0, crashes = 0, downs = 0, garbage = 0;
  for (const FaultWindow& w : a.windows()) {
    switch (w.kind) {
      case FaultKind::LinkPartition: {
        ++partitions;
        // A real sweeping cut: neither side empty.
        const std::uint64_t mask = w.partition_mask & 0x3full;
        EXPECT_NE(mask, 0u);
        EXPECT_NE(mask, 0x3full);
        break;
      }
      case FaultKind::CrashRestart:
        ++crashes;
        EXPECT_GE(w.process, 0);
        EXPECT_LT(w.process, 6);
        break;
      case FaultKind::LinkDown:
        ++downs;
        EXPECT_GE(w.edge, 0);
        EXPECT_LT(w.edge, topo.edge_count());
        break;
      case FaultKind::ChannelGarbage:
        ++garbage;
        break;
      default:
        break;
    }
  }
  // With n=6 and count=3 every 2-process sweep segment is non-trivial.
  EXPECT_EQ(partitions, 3);
  // 3 storm crashes + 1 cascade trigger.
  EXPECT_EQ(crashes, 4);
  // 3 flap phases x both directions of the link.
  EXPECT_EQ(downs, 6);
  // 2 cascade followers.
  EXPECT_EQ(garbage, 2);
  // Events stay one open + one close per window, sorted.
  ASSERT_EQ(a.events().size(), a.windows().size() * 2);
  for (std::size_t i = 1; i < a.events().size(); ++i)
    EXPECT_LE(a.events()[i - 1].step, a.events()[i].step);
}

TEST(FaultPatterns, CrashStormHitsDistinctHosts) {
  const sim::Topology topo = sim::Topology::complete(5);
  FaultPlanSpec fs;
  fs.seed = 17;
  PatternSpec storm;
  storm.kind = PatternKind::CrashStorm;
  storm.begin = 100;
  storm.span = 1'000;
  storm.count = 5;
  storm.len = 200;
  fs.patterns = {storm};
  const FaultPlan plan = FaultPlan::compile(fs, topo);
  ASSERT_EQ(plan.windows().size(), 5u);
  std::vector<sim::ProcessId> victims;
  std::uint64_t prev_begin = 0;
  for (const FaultWindow& w : plan.windows()) {
    ASSERT_EQ(w.kind, FaultKind::CrashRestart);
    EXPECT_EQ(w.end - w.begin, 200u);
    EXPECT_GE(w.begin, prev_begin);  // burst-arrival walk, sorted
    prev_begin = w.begin;
    victims.push_back(w.process);
  }
  std::sort(victims.begin(), victims.end());
  EXPECT_EQ(std::adjacent_find(victims.begin(), victims.end()),
            victims.end());  // all distinct
}

TEST(FaultPatterns, FlappingLinkCoversBothDirectionsPeriodically) {
  const sim::Topology topo = sim::Topology::ring(4);
  FaultPlanSpec fs;
  fs.seed = 5;
  PatternSpec flap;
  flap.kind = PatternKind::FlappingLink;
  flap.begin = 50;
  flap.count = 4;
  flap.len = 60;
  flap.period = 200;
  flap.edge = 2;  // pinned, not drawn
  fs.patterns = {flap};
  const FaultPlan plan = FaultPlan::compile(fs, topo);
  ASSERT_EQ(plan.windows().size(), 8u);
  const sim::EdgeId rev =
      topo.edge_between(topo.edge_dst(2), topo.edge_src(2));
  for (int f = 0; f < 4; ++f) {
    const FaultWindow& fwd = plan.windows()[static_cast<std::size_t>(2 * f)];
    const FaultWindow& bwd =
        plan.windows()[static_cast<std::size_t>(2 * f + 1)];
    EXPECT_EQ(fwd.begin, 50u + 200u * static_cast<std::uint64_t>(f));
    EXPECT_EQ(fwd.begin, bwd.begin);
    EXPECT_EQ(fwd.kind, FaultKind::LinkDown);
    EXPECT_EQ(bwd.kind, FaultKind::LinkDown);
    EXPECT_EQ(std::min(fwd.edge, bwd.edge), std::min<sim::EdgeId>(2, rev));
    EXPECT_EQ(std::max(fwd.edge, bwd.edge), std::max<sim::EdgeId>(2, rev));
  }
}

TEST(FaultPatterns, CascadeFollowersLagTheirPredecessor) {
  const sim::Topology topo = sim::Topology::ring(5);
  FaultPlanSpec fs;
  fs.seed = 23;
  PatternSpec casc;
  casc.kind = PatternKind::Cascade;
  casc.begin = 300;
  casc.count = 4;
  casc.len = 100;
  casc.lag_max = 250;
  casc.trigger = FaultKind::CrashRestart;
  casc.follow = FaultKind::EdgeLoss;
  fs.patterns = {casc};
  const FaultPlan plan = FaultPlan::compile(fs, topo);
  ASSERT_EQ(plan.windows().size(), 5u);
  EXPECT_EQ(plan.windows()[0].kind, FaultKind::CrashRestart);
  EXPECT_EQ(plan.windows()[0].begin, 300u);
  std::uint64_t prev = 300;
  for (std::size_t i = 1; i < 5; ++i) {
    const FaultWindow& w = plan.windows()[i];
    EXPECT_EQ(w.kind, FaultKind::EdgeLoss);
    EXPECT_GE(w.begin, prev + 1);
    EXPECT_LE(w.begin, prev + 250);
    prev = w.begin;
  }
}

TEST(FaultPatterns, PatternsDrawStrictlyAfterIndependentWindows) {
  // The bit-identity contract: adding patterns must not move a single
  // independent window — they draw from the continuing stream.
  const sim::Topology topo = sim::Topology::ring(8);
  const FaultPlanSpec base = chaos_spec(7);
  FaultPlanSpec stormy = base;
  stormy.patterns = storm_spec(7).patterns;
  const FaultPlan plain = FaultPlan::compile(base, topo);
  const FaultPlan storm = FaultPlan::compile(stormy, topo);
  EXPECT_GT(storm.windows().size(), plain.windows().size());
  const auto key = [](const FaultWindow& w) {
    return std::tuple(static_cast<int>(w.kind), w.begin, w.end, w.process,
                      w.edge, w.partition_mask);
  };
  for (const FaultWindow& w : plain.windows()) {
    bool found = false;
    for (const FaultWindow& s : storm.windows())
      if (key(s) == key(w)) {
        found = true;
        break;
      }
    EXPECT_TRUE(found) << "independent window moved by pattern compilation";
  }
}

TEST(FaultPatterns, PatternsOnlySpecIsEnabledAndEmptySpecStaysInert) {
  FaultPlanSpec fs;
  EXPECT_FALSE(fs.enabled());
  PatternSpec flap;
  flap.kind = PatternKind::FlappingLink;
  fs.patterns = {flap};
  EXPECT_TRUE(fs.enabled());
  EXPECT_EQ(fs.total_windows(), 0);

  // An inert spec stays inert through compile + injection.
  const FaultPlan plan =
      FaultPlan::compile(FaultPlanSpec{}, sim::Topology::ring(4));
  EXPECT_TRUE(plan.empty());
  auto sim = pif_world(sim::Topology::ring(4), 3);
  Injector inj(plan);
  EXPECT_TRUE(inj.done());
  EXPECT_EQ(inj.poll(*sim), 0);
  EXPECT_EQ(inj.counters().down_wipes, 0u);
}

// ---------------------------------------------------------------------------
// Injector: observations, host crash dispatch, degradation counters.
// ---------------------------------------------------------------------------

TEST(Injector, EmitsOneFaultObservationPerWindowOpen) {
  const sim::Topology topo = sim::Topology::ring(6);
  const FaultPlanSpec spec = chaos_spec(5);
  const FaultPlan plan = FaultPlan::compile(spec, topo);
  auto sim = pif_world(topo, 5);
  svc::Client client(*sim);
  Injector inj(plan);
  int guard = 0;
  while (!inj.done() && ++guard < 1'000) {
    const auto reason = sim->run(1'024, [&](Simulator& s) {
      inj.poll(s);
      return inj.done();
    });
    if (reason == Simulator::StopReason::Quiescent)
      client.submit(0, svc::PifBroadcast{Value::integer(1'000 + guard)});
  }
  ASSERT_TRUE(inj.done()) << plan.repro_line();
  int fault_obs = 0;
  for (const auto& e : sim->log().events())
    if (e.kind == sim::ObsKind::Fault) ++fault_obs;
  EXPECT_EQ(fault_obs, spec.total_windows()) << plan.repro_line();
  const auto& c = inj.counters();
  EXPECT_GT(c.crashes, 0u);
  EXPECT_GT(c.garbage_bursts, 0u);
}

TEST(HostCrashRestart, FailsLiveSessionsAndCountsDegradation) {
  auto sim = pif_world(sim::Topology::ring(3), 11);
  svc::Client client(*sim);
  bool fired = false;
  svc::SessionResult seen;
  const svc::Session s = client.submit(
      0, svc::PifBroadcast{Value::integer(1)},
      [&](const svc::SessionKey&, const svc::SessionResult& r) {
        fired = true;
        seen = r;
      });
  auto& host = sim->process_as<svc::ServiceHost>(0);
  EXPECT_EQ(host.degrade().sessions_killed, 0u);
  Rng rng(77);
  host.crash_restart(rng);
  // The live session died visibly: completion fired with completed=false,
  // and the host's graceful-degradation counters recorded the kill.
  EXPECT_TRUE(fired);
  EXPECT_FALSE(seen.completed);
  EXPECT_EQ(host.degrade().sessions_killed, 1u);
  EXPECT_EQ(host.degrade().crashes, 1u);
  EXPECT_EQ(client.state(s), svc::SessionState::Done);
}

// A process with no protocol: it only counts the scrambles it receives.
// `ticking` keeps a Simulator's step clock moving through the plan.
class ScrambleCounter final : public sim::Process {
 public:
  explicit ScrambleCounter(bool ticking) : ticking_(ticking) {}
  void on_tick(sim::Context&) override {}
  void on_message(sim::Context&, int, const Message&) override {}
  bool tick_enabled() const override { return ticking_; }
  void randomize(Rng&) override { ++randomized; }

  int randomized = 0;

 private:
  bool ticking_;
};

// One CrashRestart window, open from step 0; the victim is the plan's draw.
FaultPlan one_crash_plan(const sim::Topology& topo) {
  FaultPlanSpec fs;
  fs.seed = 31;
  fs.horizon = 1;
  fs.min_len = 50;
  fs.max_len = 50;
  fs.crash_windows = 1;
  return FaultPlan::compile(fs, topo);
}

TEST(CrashDispatch, InjectorRandomizesAPlainProcess) {
  const sim::Topology topo = sim::Topology::ring(4);
  const FaultPlan plan = one_crash_plan(topo);
  ASSERT_EQ(plan.windows().size(), 1u);
  const sim::ProcessId victim = plan.windows()[0].process;
  Simulator sim(topo, 1, 31);
  for (int p = 0; p < topo.process_count(); ++p)
    sim.add_process(std::make_unique<ScrambleCounter>(/*ticking=*/true));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(32));
  Injector inj(plan);
  sim.run(1'000, [&](Simulator& s) {
    inj.poll(s);
    return inj.done();
  });
  ASSERT_TRUE(inj.done());
  EXPECT_GT(inj.counters().crashes, 0u);
  for (int p = 0; p < topo.process_count(); ++p)
    EXPECT_EQ(sim.process_as<ScrambleCounter>(p).randomized > 0, p == victim)
        << "process " << p << ", victim " << victim;
}

TEST(CrashDispatch, RuntimeInjectorRandomizesAPlainProcess) {
  const sim::Topology topo = sim::Topology::ring(4);
  const FaultPlan plan = one_crash_plan(topo);
  const sim::ProcessId victim = plan.windows()[0].process;
  runtime::ThreadRuntime rt(topo, {.seed = 31});
  for (int p = 0; p < topo.process_count(); ++p)
    rt.add_process(std::make_unique<ScrambleCounter>(/*ticking=*/false));
  rt.start();
  RuntimeInjectorOptions io;
  io.step_duration = std::chrono::microseconds(100);
  io.poll_interval = std::chrono::milliseconds(1);
  RuntimeInjector inj(plan, rt, io);
  inj.start();
  EXPECT_TRUE(inj.wait_done(std::chrono::seconds(10)));
  inj.stop();
  rt.shutdown();
  EXPECT_GT(inj.counters().crashes, 0u);
  for (int p = 0; p < topo.process_count(); ++p) {
    const int randomized = rt.with_process<ScrambleCounter>(
        p, [](ScrambleCounter& c) { return c.randomized; });
    EXPECT_EQ(randomized > 0, p == victim)
        << "process " << p << ", victim " << victim;
  }
}

TEST(CrashDispatch, InjectorFailsTheVictimHostsLiveSession) {
  const sim::Topology topo = sim::Topology::ring(4);
  const FaultPlan plan = one_crash_plan(topo);
  const sim::ProcessId victim = plan.windows()[0].process;
  auto sim = pif_world(topo, 31);
  svc::Client client(*sim);
  const svc::Session s =
      client.submit(victim, svc::PifBroadcast{Value::integer(1)});
  Injector inj(plan);
  inj.poll(*sim);  // step 0: the window opens before the session can finish
  const auto& host = sim->process_as<svc::ServiceHost>(victim);
  EXPECT_GT(host.degrade().sessions_killed, 0u);
  EXPECT_EQ(client.state(s), svc::SessionState::Done);
  EXPECT_FALSE(client.result(s).completed);
}

// ---------------------------------------------------------------------------
// Supervisor: terminal outcomes, retries, forced settlement.
// ---------------------------------------------------------------------------

TEST(Supervisor, HealthyRequestSettlesOkFirstAttempt) {
  auto sim = pif_world(sim::Topology::ring(4), 21);
  svc::Client client(*sim);
  svc::Supervisor sup(client);
  const auto t = sup.supervise(1, svc::PifBroadcast{Value::integer(5)});
  EXPECT_FALSE(sup.terminal(t));
  ASSERT_TRUE(sup.run_all());
  ASSERT_TRUE(sup.terminal(t));
  EXPECT_EQ(sup.outcome(t), svc::SessionOutcome::Ok);
  EXPECT_EQ(sup.attempts(t), 1);
  EXPECT_EQ(sup.result(t).value, Value::integer(5));
  EXPECT_EQ(sup.stats().ok, 1u);
  EXPECT_EQ(sup.live(), 0);
}

TEST(Supervisor, CrashKilledAttemptRetriesToOk) {
  auto sim = pif_world(sim::Topology::ring(3), 22);
  svc::Client client(*sim);
  svc::SuperviseOptions so;
  so.retry_budget = 4;
  so.backoff_base = 8;
  svc::Supervisor sup(client, so);
  const auto t = sup.supervise(0, svc::PifBroadcast{Value::integer(9)});
  // Kill the first attempt by hand, then let the supervisor recover it.
  Rng rng(5);
  sim->process_as<svc::ServiceHost>(0).crash_restart(rng);
  ASSERT_TRUE(sup.run_all());
  ASSERT_TRUE(sup.terminal(t));
  EXPECT_EQ(sup.outcome(t), svc::SessionOutcome::Ok);
  EXPECT_GE(sup.attempts(t), 2);
  EXPECT_GE(sup.stats().resubmits, 1u);
  EXPECT_EQ(sup.result(t).value, Value::integer(9));
}

TEST(Supervisor, PermanentCrashingGivesUpTerminally) {
  auto sim = pif_world(sim::Topology::ring(3), 23);
  svc::Client client(*sim);
  svc::SuperviseOptions so;
  so.retry_budget = 2;
  so.backoff_base = 4;
  so.backoff_max = 8;
  svc::Supervisor sup(client, so);
  Rng rng(6);
  // Crash the host at every pump: no attempt can survive.
  sup.set_on_pump(
      [&] { sim->process_as<svc::ServiceHost>(0).crash_restart(rng); });
  const auto t = sup.supervise(0, svc::PifBroadcast{Value::integer(3)});
  svc::AwaitOptions aw;
  aw.policy.check_every = 1;
  sup.run_all(aw);
  ASSERT_TRUE(sup.terminal(t));
  EXPECT_EQ(sup.outcome(t), svc::SessionOutcome::GaveUp);
  EXPECT_EQ(sup.attempts(t), 1 + so.retry_budget);
  EXPECT_EQ(sup.stats().gave_up, 1u);
}

TEST(Supervisor, BudgetExhaustionForcesTerminalExpiry) {
  auto sim = pif_world(sim::Topology::ring(6), 24);
  svc::Client client(*sim);
  svc::SuperviseOptions so;
  so.retry_budget = 1;
  svc::Supervisor sup(client, so);
  const auto t = sup.supervise(2, svc::PifBroadcast{Value::integer(8)});
  svc::AwaitOptions aw;
  aw.max_steps = 4;  // nowhere near enough for a PIF wave
  EXPECT_FALSE(sup.run_all(aw));
  // No silent hang: the ticket is terminal even though the budget died.
  ASSERT_TRUE(sup.terminal(t));
  EXPECT_EQ(sup.outcome(t), svc::SessionOutcome::Expired);
  EXPECT_EQ(sup.live(), 0);
}

// ---------------------------------------------------------------------------
// The chaos acceptance suite: 22 seeds x 3 topologies = 66 (seed, plan)
// combos. Phase A lands supervised sessions inside the fault windows and
// requires terminal outcomes for all of them; phase B submits after the
// last window closes and requires correct completion.
// ---------------------------------------------------------------------------

using ChaosParam = std::tuple<std::uint64_t, std::string>;

class FaultChaos : public ::testing::TestWithParam<ChaosParam> {};

TEST_P(FaultChaos, MidFaultTerminalAndPostFaultServed) {
  const auto& [seed, topo_name] = GetParam();
  const int n = 6;
  const sim::Topology topo = make_topo(topo_name, n, seed);
  auto sim = pif_world(topo, seed);
  svc::Client client(*sim);
  const FaultPlan plan = FaultPlan::compile(chaos_spec(seed), topo);
  Injector inj(plan);

  svc::SuperviseOptions so;
  so.attempt_deadline = 2'000;
  so.retry_budget = 3;
  so.backoff_base = 32;
  so.seed = seed;
  svc::Supervisor sup(client, so);
  sup.set_on_pump([&] { inj.poll(*sim); });

  // Phase A: requests in flight while the fault rages. Outcomes may be
  // anything — but they must be terminal, not hangs.
  std::vector<svc::Supervisor::Ticket> mid;
  for (int i = 0; i < 8; ++i)
    mid.push_back(
        sup.supervise(i % n, svc::PifBroadcast{Value::integer(1'000 + i)}));
  svc::AwaitOptions aw;
  aw.max_steps = 2'000'000;
  aw.policy.check_every = 16;
  sup.run_all(aw);
  for (const auto t : mid) {
    ASSERT_TRUE(sup.terminal(t)) << plan.repro_line();
    if (sup.outcome(t) == svc::SessionOutcome::Ok)
      EXPECT_TRUE(sup.result(t).completed) << plan.repro_line();
  }

  // Drain the schedule: keep the engine stepping (quiescent spells get a
  // wake-up probe) until every window has closed — the fault has ceased.
  int guard = 0;
  while (!inj.done() && ++guard < 10'000) {
    const auto reason = sim->run(2'048, [&](Simulator& s) {
      inj.poll(s);
      return inj.done();
    });
    if (reason == Simulator::StopReason::Quiescent)
      client.submit(0, svc::PifBroadcast{Value::integer(900'000 + guard)});
  }
  ASSERT_TRUE(inj.done()) << plan.repro_line();
  ASSERT_GE(sim->step_count(), plan.last_end()) << plan.repro_line();

  // Phase B: the snap-stabilization promise — every request submitted
  // after the fault ceased completes correctly.
  std::vector<svc::Session> post;
  std::vector<Value> payloads;
  for (int i = 0; i < 2 * n; ++i) {
    const Value v = Value::integer(5'000 + i);
    post.push_back(client.submit(i % n, svc::PifBroadcast{v}));
    payloads.push_back(v);
  }
  svc::AwaitOptions bw;
  bw.max_steps = 5'000'000;
  ASSERT_EQ(client.await_all(post, bw), svc::AwaitResult::Done)
      << plan.repro_line();
  for (std::size_t i = 0; i < post.size(); ++i) {
    const svc::SessionResult r = client.result(post[i]);
    EXPECT_TRUE(r.completed) << plan.repro_line();
    EXPECT_EQ(r.value, payloads[i]) << plan.repro_line();
  }
}

std::string chaos_name(const ::testing::TestParamInfo<ChaosParam>& info) {
  return std::get<1>(info.param) + "_seed" +
         std::to_string(std::get<0>(info.param));
}

std::vector<ChaosParam> chaos_params() {
  std::vector<ChaosParam> out;
  for (const char* topo : {"ring", "complete", "tree"})
    for (std::uint64_t seed = 1; seed <= 22; ++seed)
      out.emplace_back(seed, topo);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Campaign, FaultChaos,
                         ::testing::ValuesIn(chaos_params()), chaos_name);

// ---------------------------------------------------------------------------
// The storm acceptance suite: correlated patterns (rolling partitions,
// crash storms, flapping links, cascades) against a supervisor running its
// full resilience stack — circuit breaker AND hedged resubmits. Same
// phase structure as FaultChaos: mid-storm sessions reach terminal
// outcomes, post-storm sessions complete correctly, every assertion
// carries the repro line.
// ---------------------------------------------------------------------------

class StormChaos : public ::testing::TestWithParam<ChaosParam> {};

TEST_P(StormChaos, MidStormTerminalAndPostStormServed) {
  const auto& [seed, topo_name] = GetParam();
  const int n = 6;
  const sim::Topology topo = make_topo(topo_name, n, seed);
  auto sim = pif_world(topo, seed);
  svc::Client client(*sim);
  const FaultPlan plan = FaultPlan::compile(storm_spec(seed), topo);
  Injector inj(plan);

  svc::SuperviseOptions so;
  so.attempt_deadline = 2'000;
  so.retry_budget = 3;
  so.backoff_base = 32;
  so.seed = seed;
  so.breaker.enabled = true;
  so.breaker.failure_threshold = 2;
  so.breaker.open_cooldown = 512;
  so.hedge.enabled = true;
  so.hedge.hedge_after = 1'200;
  svc::Supervisor sup(client, so);
  sup.set_on_pump([&] { inj.poll(*sim); });

  // Phase A: requests in flight while the storm rages — terminal, always.
  std::vector<svc::Supervisor::Ticket> mid;
  for (int i = 0; i < 8; ++i)
    mid.push_back(
        sup.supervise(i % n, svc::PifBroadcast{Value::integer(2'000 + i)}));
  svc::AwaitOptions aw;
  aw.max_steps = 2'000'000;
  aw.policy.check_every = 16;
  sup.run_all(aw);
  for (const auto t : mid) {
    ASSERT_TRUE(sup.terminal(t)) << plan.repro_line();
    if (sup.outcome(t) == svc::SessionOutcome::Ok)
      EXPECT_TRUE(sup.result(t).completed) << plan.repro_line();
  }

  // Drain the storm schedule.
  int guard = 0;
  while (!inj.done() && ++guard < 10'000) {
    const auto reason = sim->run(2'048, [&](Simulator& s) {
      inj.poll(s);
      return inj.done();
    });
    if (reason == Simulator::StopReason::Quiescent)
      client.submit(0, svc::PifBroadcast{Value::integer(900'000 + guard)});
  }
  ASSERT_TRUE(inj.done()) << plan.repro_line();
  ASSERT_GE(sim->step_count(), plan.last_end()) << plan.repro_line();

  // Phase B: snap-stabilization — post-storm requests complete correctly.
  std::vector<svc::Session> post;
  std::vector<Value> payloads;
  for (int i = 0; i < 2 * n; ++i) {
    const Value v = Value::integer(7'000 + i);
    post.push_back(client.submit(i % n, svc::PifBroadcast{v}));
    payloads.push_back(v);
  }
  svc::AwaitOptions bw;
  bw.max_steps = 5'000'000;
  ASSERT_EQ(client.await_all(post, bw), svc::AwaitResult::Done)
      << plan.repro_line();
  for (std::size_t i = 0; i < post.size(); ++i) {
    const svc::SessionResult r = client.result(post[i]);
    EXPECT_TRUE(r.completed) << plan.repro_line();
    EXPECT_EQ(r.value, payloads[i]) << plan.repro_line();
  }
}

std::vector<ChaosParam> storm_params() {
  std::vector<ChaosParam> out;
  for (const char* topo : {"ring", "complete", "tree"})
    for (std::uint64_t seed = 101; seed <= 108; ++seed)
      out.emplace_back(seed, topo);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Campaign, StormChaos,
                         ::testing::ValuesIn(storm_params()), chaos_name);

// ---------------------------------------------------------------------------
// Replay: identical (seed, plan) runs are bit-identical on the Simulator —
// same observation stream, same step count, same injector counters.
// ---------------------------------------------------------------------------

struct ReplayResult {
  std::uint64_t digest = 0;
  std::uint64_t steps = 0;
  Injector::Counters counters;
};

ReplayResult run_replay(std::uint64_t seed, const std::string& topo_name,
                        const FaultPlanSpec& spec, bool resilience_stack) {
  const int n = 6;
  const sim::Topology topo = make_topo(topo_name, n, seed);
  auto sim = pif_world(topo, seed);
  svc::Client client(*sim);
  const FaultPlan plan = FaultPlan::compile(spec, topo);
  Injector inj(plan);
  svc::SuperviseOptions so;
  so.attempt_deadline = 1'500;
  so.retry_budget = 2;
  so.seed = seed;
  if (resilience_stack) {
    so.breaker.enabled = true;
    so.breaker.failure_threshold = 2;
    so.breaker.open_cooldown = 256;
    so.hedge.enabled = true;
    so.hedge.hedge_after = 1'000;
  }
  svc::Supervisor sup(client, so);
  sup.set_on_pump([&] { inj.poll(*sim); });
  for (int i = 0; i < n; ++i)
    sup.supervise(i, svc::PifBroadcast{Value::integer(100 + i)});
  svc::AwaitOptions aw;
  aw.max_steps = 500'000;
  aw.policy.check_every = 16;
  sup.run_all(aw);
  ReplayResult r;
  r.digest = log_digest(*sim);
  r.steps = sim->step_count();
  r.counters = inj.counters();
  return r;
}

void expect_bit_identical(const ReplayResult& a, const ReplayResult& b) {
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.counters.crashes, b.counters.crashes);
  EXPECT_EQ(a.counters.garbage_bursts, b.counters.garbage_bursts);
  EXPECT_EQ(a.counters.drops, b.counters.drops);
  EXPECT_EQ(a.counters.duplicates, b.counters.duplicates);
  EXPECT_EQ(a.counters.partition_wipes, b.counters.partition_wipes);
  EXPECT_EQ(a.counters.down_wipes, b.counters.down_wipes);
}

class FaultReplay : public ::testing::TestWithParam<ChaosParam> {};

TEST_P(FaultReplay, SameSeedAndPlanReplaysBitIdentically) {
  const auto& [seed, topo_name] = GetParam();
  const ReplayResult a = run_replay(seed, topo_name, chaos_spec(seed), false);
  const ReplayResult b = run_replay(seed, topo_name, chaos_spec(seed), false);
  expect_bit_identical(a, b);
}

INSTANTIATE_TEST_SUITE_P(Campaign, FaultReplay,
                         ::testing::Values(ChaosParam{31, "ring"},
                                           ChaosParam{32, "complete"},
                                           ChaosParam{33, "tree"}),
                         chaos_name);

// The storm replay pin: the repro_line() printed by any StormChaos failure
// names a (seed, plan digest) pair that replays bit-identically — with the
// full breaker + hedging stack in the loop.
class StormReplay : public ::testing::TestWithParam<ChaosParam> {};

TEST_P(StormReplay, SameSeedAndStormPlanReplaysBitIdentically) {
  const auto& [seed, topo_name] = GetParam();
  const ReplayResult a = run_replay(seed, topo_name, storm_spec(seed), true);
  const ReplayResult b = run_replay(seed, topo_name, storm_spec(seed), true);
  expect_bit_identical(a, b);
}

INSTANTIATE_TEST_SUITE_P(Campaign, StormReplay,
                         ::testing::Values(ChaosParam{41, "ring"},
                                           ChaosParam{42, "complete"},
                                           ChaosParam{43, "tree"}),
                         chaos_name);

}  // namespace
}  // namespace snapstab::fault
