// test_runtime.cpp — the thread runtime: the same protocol objects under
// real concurrency, bounded lossy mailboxes and the binary wire format;
// plus the live::Runtime properties both transports share (the observation
// log, the event-driven run() and its wake-up on shutdown, the node loop's
// readiness waits and retransmission timer, and the per-activation receive
// bound against a flooding transport).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>

#include "fault/plan.hpp"
#include "fault/runtime_injector.hpp"
#include "live_transports.hpp"
#include "runtime/thread_runtime.hpp"
#include "svc/host.hpp"

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
    rt.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = n - 1}));
  rt.with_process<svc::ServiceHost>(0, [](svc::ServiceHost& p) {
    p.pif().request(Value::text("threaded"));
    return 0;
  });
  const bool ok = rt.run(
      [&rt] {
        return rt.with_process<svc::ServiceHost>(
            0, [](svc::ServiceHost& p) { return p.pif().done(); });
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
    rt.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = n - 1}));
  rt.with_process<svc::ServiceHost>(1, [](svc::ServiceHost& p) {
    p.pif().request(Value::text("lossy"));
    return 0;
  });
  EXPECT_TRUE(rt.run(
      [&rt] {
        return rt.with_process<svc::ServiceHost>(
            1, [](svc::ServiceHost& p) { return p.pif().done(); });
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
    core::MeOptions opts;
    opts.cs_length = 3;
    opts.cs_body = [&occupancy, &peak, &grants] {
      const int now = occupancy.fetch_add(1) + 1;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      occupancy.fetch_sub(1);
      grants.fetch_add(1);
    };
    rt.add_process(
        std::make_unique<svc::ServiceHost>(svc::HostConfig{
            .id = 100 + i, .degree = n - 1, .with_me = true,
            .me_options = opts}));
  }
  for (int i = 0; i < n; ++i)
    rt.with_process<svc::ServiceHost>(i, [](svc::ServiceHost& s) {
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
    auto proc = std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .id = 10 * (i + 1), .degree = n - 1, .with_me = true});
    proc->randomize(rng);
    proc->me().mutable_state().cs_remaining = 0;  // no ghost CS: finite test
    rt.add_process(std::move(proc));
  }
  // Submit the request once the fuzzed ghost computation drains.
  std::atomic<bool> requested{false};
  const bool ok = rt.run(
      [&rt, &requested] {
        return rt.with_process<svc::ServiceHost>(
            0, [&requested](svc::ServiceHost& s) {
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
    rt.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = n - 1, .with_reset = true,
        .on_reset = [&hooks](sim::Context&) { hooks.fetch_add(1); }}));
  rt.with_process<svc::ServiceHost>(0, [](svc::ServiceHost& p) {
    p.reset().request();
    return 0;
  });
  const bool ok = rt.run(
      [&rt] {
        return rt.with_process<svc::ServiceHost>(
            0, [](svc::ServiceHost& p) { return p.reset().done(); });
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
        std::make_unique<svc::ServiceHost>(svc::HostConfig{
            .id = 100 - i, .degree = n - 1, .with_election = true}));
  for (int i = 0; i < n; ++i)
    rt.with_process<svc::ServiceHost>(i, [](svc::ServiceHost& p) {
      p.election().request();
      return 0;
    });
  const bool ok = rt.run(
      [&rt, n] {
        for (int i = 0; i < n; ++i) {
          const bool done = rt.with_process<svc::ServiceHost>(
              i, [](svc::ServiceHost& p) { return p.election().done(); });
          if (!done) return false;
        }
        return true;
      },
      20s);
  ASSERT_TRUE(ok);
  for (int i = 0; i < n; ++i) {
    const auto leader = rt.with_process<svc::ServiceHost>(
        i, [](svc::ServiceHost& p) { return p.election().leader(); });
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
    rt.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = n - 1}));

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
        return rt.with_process<svc::ServiceHost>(
            0, [&requested](svc::ServiceHost& p) {
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

// Counts activations: its tick is always enabled, so every activation of
// its node calls on_tick once. `work` makes each activation that long.
class TickCounter final : public sim::Process {
 public:
  explicit TickCounter(std::atomic<int>& ticks,
                       std::chrono::microseconds work = 0us)
      : ticks_(ticks), work_(work) {}
  void on_tick(sim::Context&) override {
    if (work_ > 0us) std::this_thread::sleep_for(work_);
    ticks_.fetch_add(1);
  }
  void on_message(sim::Context&, int, const Message&) override {}
  bool tick_enabled() const override { return true; }
  void randomize(Rng&) override {}

 private:
  std::atomic<int>& ticks_;
  std::chrono::microseconds work_;
};

class LiveRuntime : public ::testing::TestWithParam<test::Transport> {};

TEST_P(LiveRuntime, ObservationsAreMonotonic) {
  // Every node elects at once, so all four threads observe concurrently:
  // the log's order must still be its step order.
  const int n = 4;
  auto rt = test::make_live(GetParam(), n, 17);
  for (int i = 0; i < n; ++i)
    rt->add_process(
        std::make_unique<svc::ServiceHost>(svc::HostConfig{
            .id = 100 - i, .degree = n - 1, .with_election = true}));
  for (int i = 0; i < n; ++i)
    rt->with_process<svc::ServiceHost>(i, [](svc::ServiceHost& p) {
      p.election().request();
      return 0;
    });
  const bool ok = rt->run(
      [&rt, n] {
        for (int i = 0; i < n; ++i)
          if (!rt->with_process<svc::ServiceHost>(
                  i, [](svc::ServiceHost& p) {
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
        std::make_unique<svc::ServiceHost>(svc::HostConfig{
            .id = 100 - i, .degree = n - 1, .with_election = true}));
  for (int i = 0; i < n; ++i)
    rt->with_process<svc::ServiceHost>(i, [](svc::ServiceHost& p) {
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
          if (!rt->with_process<svc::ServiceHost>(
                  i, [](svc::ServiceHost& p) {
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

TEST_P(LiveRuntime, ShutdownWakesABlockedRun) {
  // A never-true await, and a second thread that shuts the runtime down
  // once the await has evaluated its predicate: run() must give up at
  // once, not at its own timeout.
  const int n = 3;
  std::atomic<int> ticks{0};
  auto rt = test::make_live(GetParam(), n, 29);
  for (int i = 0; i < n; ++i)
    rt->add_process(std::make_unique<TickCounter>(ticks));
  std::atomic<bool> evaluated{false};
  std::thread stopper([&] {
    while (!evaluated.load()) std::this_thread::yield();
    rt->shutdown();
  });
  const auto t0 = std::chrono::steady_clock::now();
  const bool ok = rt->run(
      [&evaluated] {
        evaluated.store(true);
        return false;
      },
      30s);
  const auto waited = std::chrono::steady_clock::now() - t0;
  stopper.join();
  EXPECT_FALSE(ok);
  EXPECT_FALSE(rt->running());
  EXPECT_LT(waited, 5s) << "run() ignored the concurrent shutdown()";
}

TEST_P(LiveRuntime, RunReevaluatesOnlyOnProgress) {
  // Each activation takes 10 ms, so two nodes make about 20 activations in
  // the 100 ms await. The predicate may be evaluated once up front, once
  // per activation and once at the deadline; a timer poll would exceed
  // that (a 1 ms poll evaluates it about 100 times).
  const int n = 2;
  std::atomic<int> ticks{0};
  auto rt = test::make_live(GetParam(), n, 31);
  for (int i = 0; i < n; ++i)
    rt->add_process(std::make_unique<TickCounter>(ticks, 10ms));
  int evaluations = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const bool ok = rt->run(
      [&evaluations] {
        ++evaluations;
        return false;
      },
      100ms);
  const auto waited = std::chrono::steady_clock::now() - t0;
  rt->shutdown();
  EXPECT_FALSE(ok);
  EXPECT_GE(waited, 100ms) << "run() returned before its deadline";
  EXPECT_GT(ticks.load(), 0);
  EXPECT_LE(evaluations, ticks.load() + 2);
}

// The node loop: a node thread wakes on input, on a tick its driver
// enables, and on its retransmission timer — and otherwise stays asleep.

// A process for the loop tests: its tick is enabled while armed (one tick
// only after arm_once()), it may claim to sit in its critical section, and
// it counts its ticks and deliveries.
class Probe final : public sim::Process {
 public:
  struct Counts {
    std::atomic<int> ticks{0};
    std::atomic<int> messages{0};
  };
  Probe(Counts& counts, bool armed, bool busy = false)
      : counts_(counts), armed_(armed), busy_(busy) {}
  void arm_once() { armed_ = once_ = true; }
  void on_tick(sim::Context&) override {
    counts_.ticks.fetch_add(1);
    if (once_) armed_ = false;
  }
  void on_message(sim::Context&, int, const Message&) override {
    counts_.messages.fetch_add(1);
  }
  bool tick_enabled() const override { return armed_; }
  bool busy() const override { return busy_; }
  void randomize(Rng&) override {}

 private:
  Counts& counts_;
  bool armed_;
  bool once_ = false;
  const bool busy_;
};

// Awaits a never-true predicate for `span` and returns how often run()
// evaluated it: at most once up front, once per node activation and once
// at the deadline.
int evaluations_during(live::Runtime& rt, std::chrono::milliseconds span) {
  int evaluations = 0;
  EXPECT_FALSE(rt.run(
      [&evaluations] {
        ++evaluations;
        return false;
      },
      span));
  return evaluations;
}

TEST_P(LiveRuntime, AnIdleNodeStaysAsleep) {
  // No input and no enabled tick: each node activates once as its thread
  // starts and at most once more (a pacing loop would activate thousands
  // of times in 100 ms).
  const int n = 3;
  Probe::Counts counts;
  auto rt = test::make_live(GetParam(), n, 37);
  for (int i = 0; i < n; ++i)
    rt->add_process(std::make_unique<Probe>(counts, /*armed=*/false));
  EXPECT_LE(evaluations_during(*rt, 100ms), 2 * n + 2);
  rt->shutdown();
  EXPECT_EQ(counts.ticks.load(), 0);
}

TEST_P(LiveRuntime, EnablingATickWakesTheNode) {
  const int n = 2;
  Probe::Counts counts;
  auto rt = test::make_live(GetParam(), n, 41);
  for (int i = 0; i < n; ++i)
    rt->add_process(std::make_unique<Probe>(counts, /*armed=*/false));
  evaluations_during(*rt, 20ms);  // both nodes are asleep by now
  const auto t0 = std::chrono::steady_clock::now();
  rt->with_process<Probe>(1, [](Probe& p) {
    p.arm_once();
    return 0;
  });
  const bool ticked =
      rt->run([&counts] { return counts.ticks.load() == 1; }, 10s);
  const auto waited = std::chrono::steady_clock::now() - t0;
  rt->shutdown();
  EXPECT_TRUE(ticked) << "the node slept through its newly enabled tick";
  EXPECT_LT(waited, 1s);
  EXPECT_EQ(counts.ticks.load(), 1);
}

TEST_P(LiveRuntime, AnUnansweredTickBacksOffToTheCap) {
  // Ticks that see no delivery double the retransmission period up to
  // kRetransmitPeriodCap, so each node ticks about once per cap after a
  // short ramp — not once per kRetransmitPeriod — and keeps ticking.
  const int n = 2;
  Probe::Counts counts;
  auto rt = test::make_live(GetParam(), n, 43);
  for (int i = 0; i < n; ++i)
    rt->add_process(std::make_unique<Probe>(counts, /*armed=*/true));
  const auto t0 = std::chrono::steady_clock::now();
  evaluations_during(*rt, 200ms);
  rt->shutdown();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  const auto caps = static_cast<int>(elapsed / live::kRetransmitPeriodCap);
  const int ramp = 8;  // 20, 40, ..., 640 us, plus the first tick
  EXPECT_LE(counts.ticks.load(), n * (caps + ramp));
  EXPECT_GE(counts.ticks.load(), n * caps / 8) << "the timer stalled";
}

TEST_P(LiveRuntime, ABusyNodeDoesNotSpinOnQueuedInput) {
  // Node 0 sits in its critical section with input queued: it must wait
  // for its timer instead of polling the input it may not read.
  Probe::Counts counts;
  auto rt = test::make_live(GetParam(), 2, 47);
  rt->add_process(
      std::make_unique<Probe>(counts, /*armed=*/true, /*busy=*/true));
  rt->add_process(std::make_unique<Probe>(counts, /*armed=*/false));
  rt->start();
  const sim::EdgeId into_busy = rt->topology().edge_between(1, 0);
  int queued = 0;
  for (int i = 0; i < 16; ++i)
    if (rt->inject(into_busy, Message::pif(Value::integer(i), Value::none(),
                                           0, 0)))
      ++queued;
  ASSERT_GT(queued, 0);
  const auto t0 = std::chrono::steady_clock::now();
  const int evaluations = evaluations_during(*rt, 100ms);
  const auto caps = static_cast<int>((std::chrono::steady_clock::now() - t0) /
                                     live::kRetransmitPeriodCap);
  rt->shutdown();
  EXPECT_EQ(counts.messages.load(), 0);
  // Timer wakes, one wake per queued message, node 1's start-up and the
  // await's own two evaluations, with room for the ramp.
  EXPECT_LE(evaluations, caps + queued + 16);
}

TEST_P(LiveRuntime, ShutdownOfAnIdleRuntimeReturnsAtOnce) {
  const int n = 3;
  Probe::Counts counts;
  auto rt = test::make_live(GetParam(), n, 53);
  for (int i = 0; i < n; ++i)
    rt->add_process(std::make_unique<Probe>(counts, /*armed=*/false));
  evaluations_during(*rt, 20ms);  // every node waits with no timeout
  const auto t0 = std::chrono::steady_clock::now();
  rt->shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
  EXPECT_FALSE(rt->running());
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
