// test_trial_runner.cpp — load::parallel_shards as the experiments' trial
// harness: every trial index runs exactly once whatever the trials-to-threads
// ratio, and aggregates are bit-identical for any worker count (the
// determinism contract the experiment binaries' JSON output rests on).
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "core/specs.hpp"
#include "load/shard.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/host.hpp"

namespace snapstab::bench {
namespace {

TEST(TrialRunner, EveryIndexRunsExactlyOnceWhenTrialsDontDivide) {
  // 7 trials on 3 threads: the uneven tail must be neither skipped nor
  // double-counted.
  std::atomic<int> calls{0};
  const auto results = load::parallel_shards(7, 3, [&](int t) {
    calls.fetch_add(1);
    return t * 10;
  });
  EXPECT_EQ(calls.load(), 7);
  ASSERT_EQ(results.size(), 7u);
  for (int t = 0; t < 7; ++t)
    EXPECT_EQ(results[static_cast<std::size_t>(t)], t * 10) << "trial " << t;
}

TEST(TrialRunner, MoreThreadsThanTrialsAndZeroTrialsAreSafe) {
  const auto results = load::parallel_shards(2, 8, [](int t) { return t + 1; });
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], 1);
  EXPECT_EQ(results[1], 2);
  EXPECT_TRUE(load::parallel_shards(0, 4, [](int t) { return t; }).empty());
}

// A miniature experiment cell: fuzz + run + check per seed, returning the
// plain aggregate data a bench JSON would carry.
struct TrialOutcome {
  bool completed = false;
  bool violation = false;
  std::uint64_t steps = 0;
  std::uint64_t sends = 0;
};

TrialOutcome run_one_trial(int t) {
  TrialOutcome out;
  const auto seed = 400u + static_cast<std::uint64_t>(t);
  sim::Simulator world(3, 1, seed);
  for (int i = 0; i < 3; ++i)
    world.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = 2}));
  Rng rng(seed * 3);
  sim::fuzz(world, rng);
  world.set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
  world.process_as<svc::ServiceHost>(0).pif().request(Value::integer(t));
  const auto reason = world.run(500'000, [](sim::Simulator& s) {
    return s.process_as<svc::ServiceHost>(0).pif().done();
  });
  out.completed = reason == sim::Simulator::StopReason::Predicate;
  out.steps = world.step_count();
  out.sends = world.metrics().sends;
  const auto report = core::check_pif_spec(
      world, {.require_termination = false, .require_start = false});
  out.violation = !report.ok();
  return out;
}

std::string aggregate_json(int threads) {
  const auto outcomes = load::parallel_shards(7, threads, run_one_trial);
  // Fold in trial order, exactly like the exp_* binaries do.
  std::uint64_t steps = 0;
  std::uint64_t sends = 0;
  int completed = 0;
  int violations = 0;
  for (const auto& out : outcomes) {
    steps += out.steps;
    sends += out.sends;
    completed += out.completed ? 1 : 0;
    violations += out.violation ? 1 : 0;
  }
  return "{\"completed\":" + std::to_string(completed) +
         ",\"violations\":" + std::to_string(violations) +
         ",\"steps\":" + std::to_string(steps) +
         ",\"sends\":" + std::to_string(sends) + "}";
}

TEST(TrialRunner, AggregateJsonIsIdenticalForOneAndThreeThreads) {
  // 7 trials, 7 % 3 != 0: the aggregate JSON must not depend on the worker
  // count — same cells, same fold order, worker-private string pools.
  const std::string sequential = aggregate_json(1);
  const std::string parallel = aggregate_json(3);
  EXPECT_EQ(sequential, parallel);
  // And the trials actually did something.
  EXPECT_NE(sequential.find("\"completed\":7"), std::string::npos)
      << sequential;
}

}  // namespace
}  // namespace snapstab::bench
