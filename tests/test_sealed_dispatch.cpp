// test_sealed_dispatch.cpp — the sealed step loop and the index behind it.
//
// Simulator::run drives non-virtual next_step fast paths for the three
// schedulers, a closed set told apart by SchedulerKind tags; the traces they
// produce are pinned by tests/golden/ and test_equivalence. Covered here:
// the kind tags, the Step edge cache, the StopPolicy cadence knob and the
// RankSet order-statistics set backing the enabled-step index.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rankset.hpp"
#include "golden_scenarios.hpp"

namespace snapstab {
namespace {

TEST(SealedDispatch, KindTags) {
  EXPECT_EQ(sim::RandomScheduler(1).kind(), sim::SchedulerKind::Random);
  EXPECT_EQ(sim::RoundRobinScheduler(1).kind(),
            sim::SchedulerKind::RoundRobin);
  EXPECT_EQ(sim::ScriptedScheduler({}).kind(), sim::SchedulerKind::Scripted);
}

// Steps produced by user code carry no EdgeId (edge = -1, resolved via
// edge_between); scheduler-produced steps carry it. Both address the same
// channel, and equality ignores the cache.
TEST(SealedDispatch, StepEdgeIsACacheNotIdentity) {
  const sim::Topology topo = sim::Topology::complete(3);
  const sim::EdgeId e = topo.edge_between(1, 2);
  EXPECT_EQ(sim::Step::deliver(1, 2), sim::Step::deliver_on(e, 1, 2));
  EXPECT_EQ(sim::Step::lose(1, 2), sim::Step::lose_on(e, 1, 2));
  EXPECT_EQ(sim::Step::deliver(1, 2).edge, -1);
  EXPECT_EQ(sim::Step::deliver_on(e, 1, 2).edge, e);
}

// --- StopPolicy -------------------------------------------------------------

std::unique_ptr<sim::Simulator> requested_pif_world(std::uint64_t seed) {
  auto sim = golden::pif_world(4, 1, seed);
  sim->process_as<svc::ServiceHost>(0).pif().request(Value::integer(1));
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
  return sim;
}

TEST(StopPolicy, CheckEveryOneIsTheHistoricBehavior) {
  auto a = requested_pif_world(21);
  auto b = requested_pif_world(21);
  const auto ra = a->run(100'000, golden::all_pif_done);
  const auto rb = b->run(100'000, golden::all_pif_done,
                         sim::StopPolicy{.check_every = 1});
  EXPECT_EQ(ra, rb);
  EXPECT_EQ(golden::render(*a), golden::render(*b));
}

TEST(StopPolicy, SparseChecksOvershootByLessThanTheCadence) {
  auto fine = requested_pif_world(21);
  ASSERT_EQ(fine->run(100'000, golden::all_pif_done),
            sim::Simulator::StopReason::Predicate);
  const std::uint64_t first_hold = fine->step_count();

  // all_pif_done is monotone in this workload (requests only move
  // Wait -> In -> Done and nothing re-requests), and the predicate does not
  // mutate state, so the sparse-check run executes the identical step
  // sequence and merely notices later.
  auto sparse = requested_pif_world(21);
  const auto reason = sparse->run(100'000, golden::all_pif_done,
                                  sim::StopPolicy{.check_every = 7});
  EXPECT_TRUE(golden::all_pif_done(*sparse));
  EXPECT_GE(sparse->step_count(), first_hold);
  EXPECT_LT(sparse->step_count(), first_hold + 7);
  // The run may also go quiescent between the predicate first holding and
  // the next scheduled check; either way it must not run past the cadence.
  EXPECT_TRUE(reason == sim::Simulator::StopReason::Predicate ||
              reason == sim::Simulator::StopReason::Quiescent);
}

TEST(StopPolicy, CheckEveryZeroIsTreatedAsOne) {
  auto a = requested_pif_world(5);
  auto b = requested_pif_world(5);
  a->run(100'000, golden::all_pif_done, sim::StopPolicy{.check_every = 0});
  b->run(100'000, golden::all_pif_done, sim::StopPolicy{.check_every = 1});
  EXPECT_EQ(a->step_count(), b->step_count());
  EXPECT_EQ(golden::render(*a), golden::render(*b));
}

// --- RankSet ----------------------------------------------------------------

TEST(RankSet, CountAndSelect) {
  RankSet set;
  set.reset(10);
  EXPECT_EQ(set.count(), 0);
  for (int i : {7, 2, 9, 0}) set.set(i, true);
  EXPECT_EQ(set.count(), 4);
  EXPECT_TRUE(set.contains(7));
  EXPECT_FALSE(set.contains(3));
  EXPECT_EQ(set.kth(0), 0);
  EXPECT_EQ(set.kth(1), 2);
  EXPECT_EQ(set.kth(2), 7);
  EXPECT_EQ(set.kth(3), 9);
  set.set(2, false);
  EXPECT_EQ(set.count(), 3);
  EXPECT_FALSE(set.contains(2));
  EXPECT_EQ(set.kth(1), 7);
  // set() states membership: repeating the current state changes nothing.
  set.set(7, true);
  set.set(2, false);
  EXPECT_EQ(set.count(), 3);
  EXPECT_TRUE(set.contains(7));
  EXPECT_EQ(set.kth(1), 7);
}

// Differential check against a linear scan of the membership bitmap across
// universe sizes that cross the word and group boundaries of the bitmap (1
// word, several words, several groups), under random churn.
TEST(RankSet, AgreesWithALinearScanUnderChurn) {
  for (const int universe : {1, 5, 64, 65, 240, 513, 4032}) {
    SCOPED_TRACE(universe);
    RankSet rank;
    rank.reset(universe);
    std::vector<char> member(static_cast<std::size_t>(universe), 0);
    // The k-th set index of `member`, or -1 when fewer than k + 1 are set.
    const auto scan_kth = [&member](int k) {
      for (std::size_t i = 0; i < member.size(); ++i)
        if (member[i] && k-- == 0) return static_cast<int>(i);
      return -1;
    };
    Rng rng(static_cast<std::uint64_t>(universe) * 77 + 1);
    for (int round = 0; round < 2000; ++round) {
      const int i = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(universe)));
      // Every fourth round re-states the current membership, which must be
      // a no-op; the others flip it.
      const bool flip = round % 4 != 0;
      member[static_cast<std::size_t>(i)] ^= flip ? 1 : 0;
      rank.set(i, member[static_cast<std::size_t>(i)] != 0);
      ASSERT_EQ(rank.contains(i), member[static_cast<std::size_t>(i)] != 0);
      const int count = static_cast<int>(
          std::count(member.begin(), member.end(), char{1}));
      ASSERT_EQ(rank.count(), count);
      if (count == 0) continue;
      const int k = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(count)));
      ASSERT_EQ(rank.kth(k), scan_kth(k));
      ASSERT_EQ(rank.kth(0), scan_kth(0));
      ASSERT_EQ(rank.kth(count - 1), scan_kth(count - 1));
    }
  }
}

}  // namespace
}  // namespace snapstab
