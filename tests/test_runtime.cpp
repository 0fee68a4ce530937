// test_runtime.cpp — the thread runtime: the same protocol objects under
// real concurrency, bounded lossy mailboxes and the binary wire format;
// plus the live::Runtime properties both transports share (the observation
// log, and the per-activation receive bound against a flooding transport).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/stack.hpp"
#include "fault/plan.hpp"
#include "fault/runtime_injector.hpp"
#include "live_transports.hpp"
#include "runtime/thread_runtime.hpp"

namespace snapstab::runtime {
namespace {

using namespace std::chrono_literals;

TEST(Mailbox, PushPopRoundTripsThroughCodec) {
  Mailbox box(2);
  const Message m = Message::pif(Value::text("payload"), Value::integer(3),
                                 2, 1);
  EXPECT_TRUE(box.try_push(m));
  const auto out = box.try_pop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, m);
}

TEST(Mailbox, FullMailboxLosesTheSentMessage) {
  Mailbox box(1);
  EXPECT_TRUE(box.try_push(Message::naive_brd(Value::integer(1))));
  EXPECT_FALSE(box.try_push(Message::naive_brd(Value::integer(2))));
  EXPECT_EQ(box.try_pop()->b.as_int(), 1);
  EXPECT_FALSE(box.try_pop().has_value());
  EXPECT_EQ(box.stats().lost_on_full, 1u);
}

TEST(Mailbox, FifoAcrossCapacity) {
  Mailbox box(3);
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(box.try_push(Message::naive_brd(Value::integer(i))));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(box.try_pop()->b.as_int(), i);
}

TEST(ThreadRuntime, PifCompletesUnderRealConcurrency) {
  const int n = 4;
  ThreadRuntime rt(n, {.seed = 5});
  for (int i = 0; i < n; ++i)
    rt.add_process(std::make_unique<core::PifProcess>(n - 1, 1));
  rt.with_process<core::PifProcess>(0, [](core::PifProcess& p) {
    p.pif().request(Value::text("threaded"));
    return 0;
  });
  const bool ok = rt.run(
      [&rt] {
        return rt.with_process<core::PifProcess>(
            0, [](core::PifProcess& p) { return p.pif().done(); });
      },
      10s);
  rt.shutdown();
  EXPECT_TRUE(ok) << "PIF did not complete on the thread runtime";

  // Every peer generated the receive-brd event for the payload.
  int brd = 0;
  for (const auto& e : rt.observations())
    if (e.kind == sim::ObsKind::RecvBrd && e.value == Value::text("threaded"))
      ++brd;
  EXPECT_EQ(brd, n - 1);
}

TEST(ThreadRuntime, PifSurvivesInjectedLoss) {
  const int n = 3;
  ThreadRuntime rt(n, {.loss_rate = 0.3, .seed = 7});
  for (int i = 0; i < n; ++i)
    rt.add_process(std::make_unique<core::PifProcess>(n - 1, 1));
  rt.with_process<core::PifProcess>(1, [](core::PifProcess& p) {
    p.pif().request(Value::text("lossy"));
    return 0;
  });
  EXPECT_TRUE(rt.run(
      [&rt] {
        return rt.with_process<core::PifProcess>(
            1, [](core::PifProcess& p) { return p.pif().done(); });
      },
      20s));
}

TEST(ThreadRuntime, MutualExclusionHoldsWithAtomicWitness) {
  // The CS body increments an occupancy counter; any overlap of requested
  // critical sections would be visible as occupancy > 1.
  const int n = 3;
  ThreadRuntime rt(n, {.seed = 11});
  std::atomic<int> occupancy{0};
  std::atomic<int> peak{0};
  std::atomic<int> grants{0};
  for (int i = 0; i < n; ++i) {
    core::StackOptions opts;
    opts.me.cs_length = 3;
    opts.me.cs_body = [&occupancy, &peak, &grants] {
      const int now = occupancy.fetch_add(1) + 1;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      occupancy.fetch_sub(1);
      grants.fetch_add(1);
    };
    rt.add_process(
        std::make_unique<core::MeStackProcess>(100 + i, n - 1, opts));
  }
  for (int i = 0; i < n; ++i)
    rt.with_process<core::MeStackProcess>(i, [](core::MeStackProcess& s) {
      return s.me().request_cs();
    });
  const bool ok = rt.run([&grants, n] { return grants.load() >= n; }, 30s);
  rt.shutdown();  // the CS body touches this frame's counters
  EXPECT_TRUE(ok) << "not every request was served";
  EXPECT_EQ(peak.load(), 1) << "two critical sections overlapped";
}

TEST(ThreadRuntime, FuzzedInitialStatesStillServeRequests) {
  const int n = 3;
  ThreadRuntime rt(n, {.seed = 13});
  Rng rng(131);
  for (int i = 0; i < n; ++i) {
    auto proc = std::make_unique<core::MeStackProcess>(10 * (i + 1), n - 1);
    proc->randomize(rng);
    proc->me().mutable_state().cs_remaining = 0;  // no ghost CS: finite test
    rt.add_process(std::move(proc));
  }
  // Submit the request once the fuzzed ghost computation drains.
  std::atomic<bool> requested{false};
  const bool ok = rt.run(
      [&rt, &requested] {
        return rt.with_process<core::MeStackProcess>(
            0, [&requested](core::MeStackProcess& s) {
              if (!requested.load() &&
                  s.me().request_state() == core::RequestState::Done) {
                s.me().request_cs();
                requested.store(true);
                return false;
              }
              return requested.load() && s.me().request_state() ==
                                             core::RequestState::Done &&
                     !s.me().state().externally_requested;
            });
      },
      30s);
  EXPECT_TRUE(ok);
}

TEST(ThreadRuntime, ResetServiceRunsOnThreads) {
  // The PIF-based services use the same Process interface, so they run on
  // the thread runtime unchanged.
  const int n = 3;
  ThreadRuntime rt(n, {.seed = 19});
  std::atomic<int> hooks{0};
  for (int i = 0; i < n; ++i)
    rt.add_process(std::make_unique<core::ResetProcess>(
        n - 1, 1, [&hooks](sim::Context&) { hooks.fetch_add(1); }));
  rt.with_process<core::ResetProcess>(0, [](core::ResetProcess& p) {
    p.reset().request();
    return 0;
  });
  const bool ok = rt.run(
      [&rt] {
        return rt.with_process<core::ResetProcess>(
            0, [](core::ResetProcess& p) { return p.reset().done(); });
      },
      10s);
  rt.shutdown();  // the reset hook touches this frame's counter
  EXPECT_TRUE(ok);
  EXPECT_EQ(hooks.load(), n);  // initiator + every peer
}

TEST(ThreadRuntime, ElectionServiceRunsOnThreads) {
  const int n = 4;
  ThreadRuntime rt(n, {.seed = 23});
  for (int i = 0; i < n; ++i)
    rt.add_process(
        std::make_unique<core::ElectionProcess>(100 - i, n - 1, 1));
  for (int i = 0; i < n; ++i)
    rt.with_process<core::ElectionProcess>(i, [](core::ElectionProcess& p) {
      p.election().request();
      return 0;
    });
  const bool ok = rt.run(
      [&rt, n] {
        for (int i = 0; i < n; ++i) {
          const bool done = rt.with_process<core::ElectionProcess>(
              i, [](core::ElectionProcess& p) { return p.election().done(); });
          if (!done) return false;
        }
        return true;
      },
      20s);
  ASSERT_TRUE(ok);
  for (int i = 0; i < n; ++i) {
    const auto leader = rt.with_process<core::ElectionProcess>(
        i, [](core::ElectionProcess& p) { return p.election().leader(); });
    EXPECT_EQ(leader, 100 - (n - 1));  // the smallest id
  }
}

TEST(RuntimeInjector, StormCeasesAndFreshRequestCompletes) {
  // A bounded (sub-second) storm over the thread runtime: crash bursts plus
  // a flapping link, then — once every window has elapsed — the
  // snap-stabilization contract: a fresh request completes.
  const int n = 4;
  const sim::Topology topo = sim::Topology::complete(n);
  ThreadRuntime rt(topo, {.seed = 29});
  for (int i = 0; i < n; ++i)
    rt.add_process(std::make_unique<core::PifProcess>(n - 1, 1));

  fault::FaultPlanSpec fs;
  fs.seed = 29;
  fs.horizon = 400;
  fs.min_len = 20;
  fs.max_len = 60;
  fault::PatternSpec crash;
  crash.kind = fault::PatternKind::CrashStorm;
  crash.begin = 20;
  crash.span = 200;
  crash.count = 3;
  crash.len = 40;
  fault::PatternSpec flap;
  flap.kind = fault::PatternKind::FlappingLink;
  flap.begin = 50;
  flap.count = 3;
  flap.len = 30;
  flap.period = 90;
  fs.patterns = {crash, flap};
  const fault::FaultPlan plan = fault::FaultPlan::compile(fs, topo);
  ASSERT_FALSE(plan.empty());

  fault::RuntimeInjectorOptions io;
  io.step_duration = std::chrono::microseconds(200);
  io.poll_interval = std::chrono::milliseconds(1);
  fault::RuntimeInjector inj(plan, rt, io);
  inj.start();

  std::atomic<bool> requested{false};
  const bool ok = rt.run(
      [&rt, &inj, &requested] {
        if (!inj.done()) return false;  // the fault still rages
        return rt.with_process<core::PifProcess>(
            0, [&requested](core::PifProcess& p) {
              if (!requested.load()) {
                if (!p.pif().done()) return false;
                p.pif().request(Value::text("post-storm"));
                requested.store(true);
                return false;
              }
              return p.pif().done();
            });
      },
      30s);
  inj.stop();
  EXPECT_TRUE(ok) << "post-storm request did not complete; "
                  << plan.repro_line();
  EXPECT_GT(inj.counters().crashes, 0u) << plan.repro_line();
}

// ---------------------------------------------------------------------------
// live::Runtime properties, on both transports.
// ---------------------------------------------------------------------------

class LiveRuntime : public ::testing::TestWithParam<test::Transport> {};

TEST_P(LiveRuntime, ObservationsAreMonotonic) {
  // Every node elects at once, so all four threads observe concurrently:
  // the log's order must still be its step order.
  const int n = 4;
  auto rt = test::make_live(GetParam(), n, 17);
  for (int i = 0; i < n; ++i)
    rt->add_process(
        std::make_unique<core::ElectionProcess>(100 - i, n - 1, 1));
  for (int i = 0; i < n; ++i)
    rt->with_process<core::ElectionProcess>(i, [](core::ElectionProcess& p) {
      p.election().request();
      return 0;
    });
  const bool ok = rt->run(
      [&rt, n] {
        for (int i = 0; i < n; ++i)
          if (!rt->with_process<core::ElectionProcess>(
                  i, [](core::ElectionProcess& p) {
                    return p.election().done();
                  }))
            return false;
        return true;
      },
      20s);
  rt->shutdown();
  ASSERT_TRUE(ok);
  const auto obs = rt->observations();
  ASSERT_FALSE(obs.empty());
  for (std::size_t i = 1; i < obs.size(); ++i)
    EXPECT_LT(obs[i - 1].step, obs[i].step) << "at " << i;
}

TEST_P(LiveRuntime, ObservationLogWrapsAtCapacity) {
  // The node threads observe a concurrent election while the driver
  // records enough events to wrap the log. The retained window is then the
  // newest kObservationLogCapacity stamps, oldest first, with no gaps.
  const int n = 3;
  auto rt = test::make_live(GetParam(), n, 23);
  for (int i = 0; i < n; ++i)
    rt->add_process(
        std::make_unique<core::ElectionProcess>(100 - i, n - 1, 1));
  for (int i = 0; i < n; ++i)
    rt->with_process<core::ElectionProcess>(i, [](core::ElectionProcess& p) {
      p.election().request();
      return 0;
    });
  rt->start();
  const std::size_t cap = live::kObservationLogCapacity;
  for (std::size_t i = 0; i < cap + 500; ++i)
    rt->observe_external(0, sim::Layer::Pif, sim::ObsKind::RequestWait, -1,
                         Value::integer(static_cast<std::int64_t>(i)));
  EXPECT_EQ(rt->observations().size(), cap);
  const bool ok = rt->run(
      [&rt, n] {
        for (int i = 0; i < n; ++i)
          if (!rt->with_process<core::ElectionProcess>(
                  i, [](core::ElectionProcess& p) {
                    return p.election().done();
                  }))
            return false;
        return true;
      },
      20s);
  rt->shutdown();
  ASSERT_TRUE(ok);

  const auto obs = rt->observations();
  const std::uint64_t recorded = rt->observations_recorded();
  ASSERT_EQ(obs.size(), cap);  // wrapped, never shrunk
  EXPECT_GT(recorded, obs.size());
  for (std::size_t i = 0; i < obs.size(); ++i)
    EXPECT_EQ(obs[i].step, recorded - cap + i) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(Transports, LiveRuntime, test::kTransports,
                         test::transport_name);

// A transport that always has one more (undeliverable) frame pending: the
// shape of a peer flooding a node with garbage faster than it can drain.
class FloodTransport final : public live::Runtime {
 public:
  explicit FloodTransport(const sim::Topology& topo)
      : Runtime(topo, 1, 0.0, {0, 1}) {}
  ~FloodTransport() override { shutdown(); }

  bool inject(sim::EdgeId, const Message&) override { return false; }

  std::atomic<bool> flooding{true};
  std::atomic<int> longest_loop{0};  // receive attempts in one activation

 private:
  bool send(int, sim::EdgeId, const Message&) override { return true; }
  Inbound receive(int, int k) override {
    int seen = longest_loop.load();
    while (k + 1 > seen && !longest_loop.compare_exchange_weak(seen, k + 1)) {
    }
    Inbound in;
    in.more = flooding.load();
    return in;
  }
};

class TickCounter final : public sim::Process {
 public:
  explicit TickCounter(std::atomic<int>& ticks) : ticks_(ticks) {}
  void on_tick(sim::Context&) override { ticks_.fetch_add(1); }
  void on_message(sim::Context&, int, const Message&) override {}
  bool tick_enabled() const override { return true; }
  void randomize(Rng&) override {}

 private:
  std::atomic<int>& ticks_;
};

TEST(LiveRuntimeLoop, AFloodCannotStarveTheTick) {
  std::atomic<int> ticks{0};
  FloodTransport rt(sim::Topology::complete(2));
  rt.add_process(std::make_unique<TickCounter>(ticks));
  rt.add_process(std::make_unique<TickCounter>(ticks));
  const bool ticked = rt.run([&ticks] { return ticks.load() >= 10; }, 5s);
  rt.flooding.store(false);  // lets an unbounded receive loop end
  rt.shutdown();
  EXPECT_TRUE(ticked) << "the receive loop never yielded to on_tick";
  EXPECT_EQ(rt.longest_loop.load(), live::kMaxReceivesPerActivation);
}

}  // namespace
}  // namespace snapstab::runtime
