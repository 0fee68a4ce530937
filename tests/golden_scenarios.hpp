// golden_scenarios.hpp — the executions locked by tests/golden/.
//
// Shared between tools/record_golden.cpp (writes the files) and
// tests/test_equivalence.cpp (replays and compares). The golden files were
// produced by the pre-topology seed (dense n×n Network, scanning
// schedulers); the refactored engine must reproduce them bit-for-bit:
// same (code, seed, configuration) ⇒ same observation log and metrics.
#ifndef SNAPSTAB_TESTS_GOLDEN_SCENARIOS_HPP
#define SNAPSTAB_TESTS_GOLDEN_SCENARIOS_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/forward_world.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "svc/host.hpp"

namespace snapstab::golden {

inline std::unique_ptr<sim::Simulator> pif_world(int n, int capacity,
                                                 std::uint64_t seed) {
  return svc::service_world(sim::Topology::complete(n),
                            static_cast<std::size_t>(capacity), seed,
                            /*config_of=*/nullptr);
}

inline bool all_pif_done(sim::Simulator& s) {
  for (int p = 0; p < s.process_count(); ++p)
    if (!s.process_as<svc::ServiceHost>(p).pif().done()) return false;
  return true;
}

// The full trace as recorded in the golden files: every observation line
// plus a final metrics summary.
inline std::string render(sim::Simulator& sim) {
  std::string out;
  for (const auto& obs : sim.log().events()) {
    out += obs.to_string();
    out += '\n';
  }
  const auto& m = sim.metrics();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "metrics steps=%llu ticks=%llu deliveries=%llu losses=%llu "
                "sends=%llu sends_lost_full=%llu in_flight=%zu\n",
                static_cast<unsigned long long>(m.steps),
                static_cast<unsigned long long>(m.ticks),
                static_cast<unsigned long long>(m.deliveries),
                static_cast<unsigned long long>(m.adversary_losses),
                static_cast<unsigned long long>(m.sends),
                static_cast<unsigned long long>(m.sends_lost_full),
                sim.network().total_messages_in_flight());
  out += buf;
  return out;
}

struct Scenario {
  const char* file;
  std::unique_ptr<sim::Simulator> (*run)();
};

// Complete(4), capacity 1, random daemon, no loss; every process
// broadcasts; runs to global decision.
inline std::unique_ptr<sim::Simulator> run_pif_rand() {
  auto sim = pif_world(4, 1, /*seed=*/7);
  for (int p = 0; p < 4; ++p)
    sim->process_as<svc::ServiceHost>(p).pif().request(Value::integer(100 + p));
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(7));
  sim->run(200'000, all_pif_done);
  return sim;
}

// Complete(6), capacity 2, random daemon with a lossy adversary; fixed step
// budget (the loss streak bookkeeping shapes the trace).
inline std::unique_ptr<sim::Simulator> run_pif_loss() {
  auto sim = pif_world(6, 2, /*seed=*/11);
  for (int p = 0; p < 6; p += 2)
    sim->process_as<svc::ServiceHost>(p).pif().request(Value::integer(p));
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(
      11, sim::LossOptions{.rate = 0.3, .max_consecutive = 5}));
  sim->run(20'000);
  return sim;
}

// Complete(5), capacity 1, synchronous rounds.
inline std::unique_ptr<sim::Simulator> run_pif_rr() {
  auto sim = pif_world(5, 1, /*seed=*/3);
  for (int p = 0; p < 5; ++p)
    sim->process_as<svc::ServiceHost>(p).pif().request(Value::integer(50 + p));
  sim->set_scheduler(std::make_unique<sim::RoundRobinScheduler>(3));
  sim->run(200'000, all_pif_done);
  return sim;
}

// Arbitrary initial configuration (fuzzed state and channels), then a
// broadcast — locks the fuzz RNG stream and snap-stabilized recovery.
inline std::unique_ptr<sim::Simulator> run_pif_fuzz() {
  auto sim = pif_world(4, 1, /*seed=*/13);
  Rng fuzz_rng(13);
  sim::fuzz(*sim, fuzz_rng);
  sim->process_as<svc::ServiceHost>(0).pif().request(Value::integer(999));
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(13));
  sim->run(200'000, all_pif_done);
  return sim;
}

// The full ME/IDL/PIF stack on complete(3) — exercises the busy-in-CS
// delivery filter and multi-layer observation interleavings.
inline std::unique_ptr<sim::Simulator> run_me_stack() {
  auto sim = std::make_unique<sim::Simulator>(3, 1, /*seed=*/5);
  core::MeOptions options;
  options.cs_length = 4;
  for (int p = 0; p < 3; ++p)
    sim->add_process(
        std::make_unique<svc::ServiceHost>(svc::HostConfig{
            .id = p + 1, .degree = 2, .with_me = true, .me_options = options}));
  svc::Client client(*sim);
  for (int p = 0; p < 3; ++p) client.submit(p, svc::CriticalSection{});
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(5));
  sim->run(30'000);
  return sim;
}

// The forwarding service on ring(5), capacity 1, random daemon with loss:
// three cross-ring routes (all multi-hop), runs until every submission is
// delivered — locks the hop-handshake traffic and the Service-layer events.
inline std::unique_ptr<sim::Simulator> run_fwd_ring() {
  auto sim = core::forward_world(sim::Topology::ring(5), 1, /*seed=*/17);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(
      17, sim::LossOptions{.rate = 0.1, .max_consecutive = 4}));
  svc::Client client(*sim);
  client.submit(0, svc::ForwardMsg{2, Value::integer(42)});
  client.submit(3, svc::ForwardMsg{1, Value::integer(43)});
  client.submit(4, svc::ForwardMsg{2, Value::integer(44)});
  sim->run(500'000, [](sim::Simulator& s) {
    std::uint64_t delivered = 0;
    for (int p = 0; p < s.process_count(); ++p)
      delivered +=
          s.process_as<svc::ServiceHost>(p).forward().delivered_count();
    return delivered >= 3;
  });
  return sim;
}

// Crash-restart mid-PIF through the fault engine: a one-window FaultPlan
// scrambles a ServiceHost (killing its live session visibly) while a
// broadcast is in flight on ring(4); after the window closes a fresh
// request completes — locks the injector's fault observation, the
// crash-kill callback path, and post-fault recovery, bit for bit.
inline std::unique_ptr<sim::Simulator> run_pif_crash_restart() {
  const sim::Topology topo = sim::Topology::ring(4);
  auto sim = svc::service_world(topo, 1, /*seed=*/19, [](sim::ProcessId p) {
    svc::HostConfig cfg;
    cfg.id = p + 1;
    return cfg;
  });
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(19));
  svc::Client client(*sim);

  // A single crash window pinned over the opening steps, so it is open
  // while the mid-fault broadcast is in flight.
  fault::FaultPlanSpec fs;
  fs.seed = 19;
  fs.horizon = 40;
  fs.min_len = 80;
  fs.max_len = 160;
  fs.crash_windows = 1;
  const fault::FaultPlan plan = fault::FaultPlan::compile(fs, topo);
  fault::Injector injector(plan);

  // Mid-fault submission: the window's crash-restarts may kill it; either
  // way its terminal state is part of the locked trace. Drain the whole
  // schedule (quiescent spells get a wake-up probe) before phase two.
  client.submit(0, svc::PifBroadcast{Value::integer(777)});
  int guard = 0;
  while (!injector.done() && ++guard < 100) {
    const auto reason = sim->run(2'000, [&](sim::Simulator& s) {
      injector.poll(s);
      return injector.done();
    });
    if (reason == sim::Simulator::StopReason::Quiescent)
      client.submit(3, svc::PifBroadcast{Value::integer(700 + guard)});
  }
  // The fault has ceased: the post-fault request must run to completion.
  const svc::Session post =
      client.submit(1, svc::PifBroadcast{Value::integer(888)});
  sim->run(50'000,
           [&](sim::Simulator&) { return client.done(post); });
  return sim;
}

inline const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> kScenarios = {
      {"pif_n4_rand_seed7.log", run_pif_rand},
      {"pif_n6_rand_loss_seed11.log", run_pif_loss},
      {"pif_n5_rr_seed3.log", run_pif_rr},
      {"pif_n4_fuzz_seed13.log", run_pif_fuzz},
      {"me_n3_rand_seed5.log", run_me_stack},
      {"fwd_ring_n5_seed17.log", run_fwd_ring},
      {"pif_crash_restart_seed19.log", run_pif_crash_restart},
  };
  return kScenarios;
}

}  // namespace snapstab::golden

#endif  // SNAPSTAB_TESTS_GOLDEN_SCENARIOS_HPP
