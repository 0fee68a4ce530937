// test_capacity.cpp — experiment E7: the capacity-c generalization.
//
// The paper fixes capacity 1 and calls the extension to a known bound c
// straightforward. Protocol PIF here is parametric: flag range {0..2c+2}.
// These tests validate the generalization — and, crucially, show that the
// bound must actually be *known*: a protocol configured for a smaller
// capacity than the channels really have can be fooled into a ghost
// decision, which is the quantitative content of Theorem 1's boundary.
#include <gtest/gtest.h>

#include <memory>

#include "core/specs.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/host.hpp"

namespace snapstab::core {
namespace {

using sim::Simulator;

class CapacitySweep : public ::testing::TestWithParam<int> {};

TEST_P(CapacitySweep, SpecHoldsWhenBoundMatchesChannels) {
  const int c = GetParam();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Simulator sim(3, static_cast<std::size_t>(c), seed);
    for (int i = 0; i < 3; ++i)
      sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
          .degree = 2, .channel_capacity = c}));
    Rng rng(seed * 31);
    sim::FuzzOptions opts;
    opts.flag_limit = 2 * c + 2;
    sim::fuzz(sim, rng, opts);
    sim.set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
    sim.process_as<svc::ServiceHost>(0).pif().request(Value::text("bounded"));
    const auto reason = sim.run(600'000, [](Simulator& s) {
      return s.process_as<svc::ServiceHost>(0).pif().done();
    });
    ASSERT_EQ(reason, Simulator::StopReason::Predicate)
        << "c=" << c << " seed=" << seed;
    const auto report = check_pif_spec(
        sim, {.require_termination = false, .require_start = false});
    EXPECT_TRUE(report.ok())
        << "c=" << c << " seed=" << seed << ": " << report.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CapacitySweep, ::testing::Values(1, 2, 3, 4));

TEST(CapacityMismatch, UnderestimatedBoundAdmitsGhostDecision) {
  // Channels hold 4 messages but the protocol believes c = 1 (flags 0..4).
  // The adversary preloads the q->p channel with echoes 0,1,2,3: p walks its
  // entire flag range on stale data and decides although q never received
  // the broadcast — exactly why Theorem 1 needs the bound to be *known*.
  Simulator sim(2, /*channel capacity=*/4, 1);
  sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
      .degree = 1}));
  sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
      .degree = 1}));
  auto& net = sim.network();
  for (std::int32_t flag : {0, 1, 2, 3})
    net.channel(1, 0).push(
        Message::pif(Value::text("stale"), Value::text("stale"), 0, flag));

  sim.process_as<svc::ServiceHost>(0).pif().request(Value::text("real"));
  // Drive adversarially: p ticks (starts), then consumes the four stale
  // echoes, then decides — q is never activated at all.
  sim.execute(sim::Step::tick(0));
  for (int i = 0; i < 4; ++i) sim.execute(sim::Step::deliver(1, 0));
  sim.execute(sim::Step::tick(0));

  EXPECT_TRUE(sim.process_as<svc::ServiceHost>(0).pif().done());
  const auto report = check_pif_spec(
      sim, {.require_termination = false, .require_start = false});
  ASSERT_FALSE(report.ok());  // the ghost decision is a genuine violation
  bool never_received = false;
  for (const auto& v : report.violations)
    if (v.find("never received") != std::string::npos) never_received = true;
  EXPECT_TRUE(never_received) << report.summary();
}

TEST(CapacityMismatch, CorrectBoundSurvivesTheSameAttack) {
  // Same attack against a protocol configured for the true capacity 4
  // (flags 0..10): the four stale echoes burn at most 4 of the 10 required
  // increments, so no ghost decision is possible.
  Simulator sim(2, 4, 1);
  sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
      .degree = 1, .channel_capacity = 4}));
  sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
      .degree = 1, .channel_capacity = 4}));
  auto& net = sim.network();
  for (std::int32_t flag : {0, 1, 2, 3})
    net.channel(1, 0).push(
        Message::pif(Value::text("stale"), Value::text("stale"), 0, flag));

  sim.process_as<svc::ServiceHost>(0).pif().request(Value::text("real"));
  sim.execute(sim::Step::tick(0));
  for (int i = 0; i < 4; ++i) sim.execute(sim::Step::deliver(1, 0));
  sim.execute(sim::Step::tick(0));
  EXPECT_FALSE(sim.process_as<svc::ServiceHost>(0).pif().done());

  // And with a fair scheduler the computation completes correctly.
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(3));
  ASSERT_EQ(sim.run(300'000,
                    [](Simulator& s) {
                      return s.process_as<svc::ServiceHost>(0).pif().done();
                    }),
            Simulator::StopReason::Predicate);
  const auto report = check_pif_spec(
      sim, {.require_termination = false, .require_start = false});
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(CapacityMismatch, WorstCaseStaleIncrementsAreTwoCPlusOne) {
  // The counting argument behind Lemma 4, generalized: c stale messages per
  // direction plus one stale NeigState can fake at most 2c+1 increments, so
  // flag 2c+1 is unreachable without a genuine round trip. Verify the bound
  // is tight for c = 2: 5 stale increments are achievable, 6 are not.
  const int c = 2;
  Simulator sim(2, static_cast<std::size_t>(c), 1);
  sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
      .degree = 1, .channel_capacity = c}));
  sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
      .degree = 1, .channel_capacity = c}));
  auto& net = sim.network();
  // q -> p: echoes 0 and 1 (2 stale increments).
  net.channel(1, 0).push(Message::pif(Value::none(), Value::none(), 0, 0));
  net.channel(1, 0).push(Message::pif(Value::none(), Value::none(), 0, 1));
  // q's stale NeigState echoes 2 once q transmits (1 stale increment).
  sim.process_as<svc::ServiceHost>(1).pif().mutable_state().neig_state[0] = 2;
  sim.process_as<svc::ServiceHost>(1).pif().request(Value::text("mq"));
  // p -> q: stale messages carrying flags 3 and 4: q echoes them
  // (2 more stale increments).
  net.channel(0, 1).push(Message::pif(Value::none(), Value::none(), 3, 0));
  net.channel(0, 1).push(Message::pif(Value::none(), Value::none(), 4, 0));

  sim.process_as<svc::ServiceHost>(0).pif().request(Value::text("m"));
  auto& p = sim.process_as<svc::ServiceHost>(0).pif();

  sim.execute(sim::Step::tick(0));           // start; sends die on full 0->1
  sim.execute(sim::Step::deliver(1, 0));     // stale echo 0   -> State 1
  sim.execute(sim::Step::deliver(1, 0));     // stale echo 1   -> State 2
  sim.execute(sim::Step::tick(1));           // q starts, echoes NeigState 2
  sim.execute(sim::Step::deliver(1, 0));     // stale echo 2   -> State 3
  sim.execute(sim::Step::deliver(0, 1));     // q consumes stale flag 3
  sim.execute(sim::Step::deliver(1, 0));     // echo 3         -> State 4
  sim.execute(sim::Step::deliver(0, 1));     // q consumes stale flag 4
  sim.execute(sim::Step::deliver(1, 0));     // echo 4         -> State 5
  EXPECT_EQ(p.state().state[0], 2 * c + 1);  // = 5: all stale fuel burned
  EXPECT_FALSE(p.done());

  // From here only a genuine round trip can advance p to 2c+2 = 6.
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(9));
  ASSERT_EQ(sim.run(300'000,
                    [](Simulator& s) {
                      return s.process_as<svc::ServiceHost>(0).pif().done();
                    }),
            Simulator::StopReason::Predicate);
  const auto report = check_pif_spec(
      sim, {.require_termination = false, .require_start = false});
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace snapstab::core
