// test_sealed_dispatch.cpp — the sealed step loop is a cost change, not a
// behavior change.
//
// Simulator::run drives non-virtual next_step fast paths for the three
// built-in schedulers (SchedulerKind tags). A wrapper Scheduler subclass
// reports SchedulerKind::Generic and forces the virtual fallback; for the
// same (seed, topology, workload) both paths must produce bit-identical
// traces. Also covers the StopPolicy cadence knob and the RankSet
// order-statistics set backing the enabled-step index.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rankset.hpp"
#include "golden_scenarios.hpp"

namespace snapstab {
namespace {

// Forces the generic (virtual next, optional<Step>) fallback around any
// scheduler: the default Scheduler constructor tags it Generic.
class VirtualWrapper final : public sim::Scheduler {
 public:
  explicit VirtualWrapper(std::unique_ptr<sim::Scheduler> inner)
      : inner_(std::move(inner)) {}
  std::optional<sim::Step> next(sim::Simulator& sim) override {
    return inner_->next(sim);
  }

 private:
  std::unique_ptr<sim::Scheduler> inner_;
};

TEST(SealedDispatch, KindTags) {
  EXPECT_EQ(sim::RandomScheduler(1).kind(), sim::SchedulerKind::Random);
  EXPECT_EQ(sim::RoundRobinScheduler(1).kind(),
            sim::SchedulerKind::RoundRobin);
  EXPECT_EQ(sim::ScriptedScheduler({}).kind(), sim::SchedulerKind::Scripted);
  VirtualWrapper wrapper(std::make_unique<sim::RandomScheduler>(1));
  EXPECT_EQ(wrapper.kind(), sim::SchedulerKind::Generic);
}

// Runs the golden PIF broadcast world under a scheduler built by `make`,
// sealed or wrapped, and renders the full trace.
template <typename MakeScheduler>
std::string pif_trace(MakeScheduler&& make, bool wrap) {
  auto sim = golden::pif_world(4, 1, /*seed=*/7);
  for (int p = 0; p < 4; ++p)
    sim->process_as<svc::ServiceHost>(p).pif().request(Value::integer(100 + p));
  std::unique_ptr<sim::Scheduler> sched = make();
  if (wrap) sched = std::make_unique<VirtualWrapper>(std::move(sched));
  sim->set_scheduler(std::move(sched));
  sim->run(200'000, golden::all_pif_done);
  return golden::render(*sim);
}

TEST(SealedDispatch, RandomSealedMatchesVirtualFallback) {
  const auto make = [] { return std::make_unique<sim::RandomScheduler>(7); };
  EXPECT_EQ(pif_trace(make, /*wrap=*/false), pif_trace(make, /*wrap=*/true));
}

TEST(SealedDispatch, RandomWithLossSealedMatchesVirtualFallback) {
  // Loss exercises the lose_on fast path and the fair-loss streaks.
  const auto make = [] {
    return std::make_unique<sim::RandomScheduler>(
        11, sim::LossOptions{.rate = 0.3, .max_consecutive = 5});
  };
  EXPECT_EQ(pif_trace(make, /*wrap=*/false), pif_trace(make, /*wrap=*/true));
}

TEST(SealedDispatch, RoundRobinSealedMatchesVirtualFallback) {
  const auto make = [] {
    return std::make_unique<sim::RoundRobinScheduler>(3);
  };
  EXPECT_EQ(pif_trace(make, /*wrap=*/false), pif_trace(make, /*wrap=*/true));
}

TEST(SealedDispatch, ScriptedSealedMatchesVirtualFallback) {
  const std::vector<sim::Step> script = {
      sim::Step::tick(0), sim::Step::tick(1), sim::Step::deliver(0, 1),
      sim::Step::deliver(1, 0), sim::Step::tick(0)};
  const auto make = [&script] {
    return std::make_unique<sim::ScriptedScheduler>(script);
  };
  EXPECT_EQ(pif_trace(make, /*wrap=*/false), pif_trace(make, /*wrap=*/true));
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
  for (int i : {7, 2, 9, 0}) set.add(i, 1);
  EXPECT_EQ(set.count(), 4);
  EXPECT_EQ(set.kth(0), 0);
  EXPECT_EQ(set.kth(1), 2);
  EXPECT_EQ(set.kth(2), 7);
  EXPECT_EQ(set.kth(3), 9);
  set.add(2, -1);
  EXPECT_EQ(set.count(), 3);
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
      const int delta = member[static_cast<std::size_t>(i)] ? -1 : 1;
      member[static_cast<std::size_t>(i)] ^= 1;
      rank.add(i, delta);
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
