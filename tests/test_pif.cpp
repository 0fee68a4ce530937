// test_pif.cpp — Protocol PIF (Algorithm 1): one test per proof obligation.
//
// Lemma 1  (Start)        -> StartsOnRequest
// Lemma 2  (progress)     -> StateAdvancesWhileInProgress
// Lemma 3  (Termination)  -> NonStartedComputationsTerminate, QuiescesAfterRequestsStop
// Lemma 4  (genuine 2->3) -> Figure1WorstCaseWalkthrough, StaleDataNeverFakesABroadcast
// Lemma 5  (Correctness)  -> SpecHoldsFromCleanState / FromCorruptedState
// Lemma 6  (Decision)     -> ExactlyOneFeedbackPerNeighbor
// Property 1 (flush)      -> Property1FlushesInitiatorChannels
#include <gtest/gtest.h>

#include <memory>

#include "core/specs.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"

namespace snapstab::core {
namespace {

using sim::Simulator;
using sim::Step;

std::unique_ptr<Simulator> pif_world(int n, std::uint64_t seed,
                                     int capacity = 1) {
  return svc::service_world(sim::Topology::complete(n),
                            static_cast<std::size_t>(capacity), seed,
                            /*config_of=*/nullptr);
}

Pif& pif_of(Simulator& s, int p) {
  return s.process_as<svc::ServiceHost>(p).pif();
}

bool pif_done(Simulator& s, int p) { return pif_of(s, p).done(); }

TEST(Pif, ConstructorRejectsZeroCapacity) {
  EXPECT_DEATH(Pif(1, 0), "capacity");
}

TEST(Pif, FlagBoundIsTwoCPlusTwo) {
  EXPECT_EQ(Pif(1, 1).flag_bound(), 4);  // the paper's {0..4}
  EXPECT_EQ(Pif(1, 2).flag_bound(), 6);
  EXPECT_EQ(Pif(3, 5).flag_bound(), 12);
}

TEST(Pif, StartsOnRequest) {
  // Lemma 1: when Request = Wait, the starting action eventually executes.
  auto sim = pif_world(2, 1);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(2));
  pif_of(*sim, 0).request(Value::text("m"));
  EXPECT_EQ(pif_of(*sim, 0).request_state(),
            RequestState::Wait);
  sim->run(50, [](Simulator& s) {
    return pif_of(s, 0).request_state() !=
           RequestState::Wait;
  });
  EXPECT_EQ(pif_of(*sim, 0).request_state(),
            RequestState::In);
  // The Start observation was emitted with the broadcast payload.
  bool start_seen = false;
  for (const auto& e : sim->log().events())
    if (e.kind == sim::ObsKind::Start && e.process == 0 &&
        e.value == Value::text("m"))
      start_seen = true;
  EXPECT_TRUE(start_seen);
}

TEST(Pif, StartResetsAllFlags) {
  Pif pif(3, 1);
  pif.mutable_state().state = {4, 2, 1};
  pif.request(Value::integer(1));

  // Minimal context backend: discard sends, record nothing.
  struct NullBackend final : sim::ContextBackend {
    Rng rng_{1};
    int degree() const override { return 3; }
    bool send(int, const Message&) override { return true; }
    void observe(sim::Layer, sim::ObsKind, int, const Value&) override {}
    Rng& rng() override { return rng_; }
    std::uint64_t now() const override { return 0; }
  } backend;
  sim::Context ctx(backend);

  pif.tick(ctx);
  EXPECT_EQ(pif.request_state(), RequestState::In);
  for (int ch = 0; ch < 3; ++ch)
    EXPECT_EQ(pif.state().state[static_cast<std::size_t>(ch)], 0);
}

TEST(Pif, StateAdvancesWhileInProgress) {
  // Lemma 2: while Request = In and State[q] < 4, State[q] is eventually
  // incremented (retransmission beats loss).
  auto sim = pif_world(2, 3);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(
      3, sim::LossOptions{.rate = 0.4, .max_consecutive = 4}));
  pif_of(*sim, 0).request(Value::text("m"));
  // Wait for the start action (the flags reset to 0 there).
  ASSERT_EQ(sim->run(50'000,
                     [](Simulator& s) {
                       const auto& pif = pif_of(s, 0);
                       return pif.request_state() == RequestState::In;
                     }),
            Simulator::StopReason::Predicate);
  for (std::int32_t target = 1; target <= 4; ++target) {
    const auto reason = sim->run(50'000, [&](Simulator& s) {
      return pif_of(s, 0).state().state[0] >= target;
    });
    ASSERT_EQ(reason, Simulator::StopReason::Predicate)
        << "never reached " << target;
  }
  EXPECT_EQ(pif_of(*sim, 0).state().state[0], 4);
}

TEST(Pif, SpecHoldsFromCleanState) {
  for (int n : {2, 3, 5}) {
    auto sim = pif_world(n, static_cast<std::uint64_t>(n) * 7);
    sim->set_scheduler(std::make_unique<sim::RandomScheduler>(4));
    svc::Client(*sim).submit(0, svc::PifBroadcast{Value::text("clean")});
    const auto reason = sim->run(
        400'000, [](Simulator& s) { return pif_done(s, 0); });
    ASSERT_EQ(reason, Simulator::StopReason::Predicate) << "n=" << n;
    const auto report = check_pif_spec(*sim);
    EXPECT_TRUE(report.ok()) << "n=" << n << ": " << report.summary();
  }
}

TEST(Pif, SpecHoldsFromCorruptedState) {
  // The snap-stabilization claim: ANY initial configuration, the started
  // computation still satisfies Specification 1.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto sim = pif_world(3, seed);
    Rng rng(seed * 1009);
    sim::fuzz(*sim, rng);
    sim->set_scheduler(std::make_unique<sim::RandomScheduler>(seed + 1));
    pif_of(*sim, 0).request(Value::text("post-fault"));
    const auto reason =
        sim->run(400'000, [](Simulator& s) { return pif_done(s, 0); });
    ASSERT_EQ(reason, Simulator::StopReason::Predicate) << "seed=" << seed;
    // Only check the started computation at p0: ghost computations at other
    // processes may decide without correctness obligations — restrict the
    // start check to p0 by filtering events? check_pif_spec checks every
    // Start; ghost processes can emit Start only if their fuzzed request was
    // Wait, and such a start must ALSO satisfy the spec (the paper makes no
    // distinction: every started computation is correct).
    const auto report = check_pif_spec(
        *sim, {.require_termination = false, .require_start = false});
    EXPECT_TRUE(report.ok()) << "seed=" << seed << ": " << report.summary();
  }
}

TEST(Pif, ExactlyOneFeedbackPerNeighbor) {
  // Lemma 6 / Decision: between start and decision the initiator generates
  // exactly one receive-fck per neighbor, and the decision follows them.
  auto sim = pif_world(4, 99);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(5));
  pif_of(*sim, 2).request(Value::integer(1234));
  ASSERT_EQ(sim->run(400'000, [](Simulator& s) { return pif_done(s, 2); }),
            Simulator::StopReason::Predicate);
  int fck = 0;
  std::uint64_t decide_step = 0;
  for (const auto& e : sim->log().events()) {
    if (e.process != 2) continue;
    if (e.kind == sim::ObsKind::RecvFck) ++fck;
    if (e.kind == sim::ObsKind::Decide) decide_step = e.step;
  }
  EXPECT_EQ(fck, 3);
  EXPECT_GT(decide_step, 0u);
}

TEST(Pif, NonStartedComputationsTerminate) {
  // Lemma 3 applies to every computation, including ghosts from the initial
  // configuration: eventually no process has Request = In.
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    auto sim = pif_world(3, seed);
    Rng rng(seed);
    sim::fuzz(*sim, rng);
    sim->set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
    const auto reason = sim->run(300'000, [](Simulator& s) {
      for (int p = 0; p < s.process_count(); ++p)
        if (!pif_done(s, p)) return false;
      return true;
    });
    // Either every request drained (predicate) or the system went fully
    // quiescent, which implies the same thing.
    ASSERT_NE(reason, Simulator::StopReason::BudgetExhausted)
        << "seed=" << seed;
    for (int p = 0; p < 3; ++p) EXPECT_TRUE(pif_done(*sim, p));
  }
}

TEST(Pif, QuiescesAfterRequestsStop) {
  // Paper, end of Section 4.1: "if the requests eventually stop, the system
  // eventually contains no message."
  auto sim = pif_world(3, 5);
  Rng rng(555);
  sim::fuzz(*sim, rng);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(6));
  pif_of(*sim, 0).request(Value::text("final"));
  const auto reason = sim->run(500'000);
  EXPECT_EQ(reason, Simulator::StopReason::Quiescent);
  EXPECT_EQ(sim->network().total_messages_in_flight(), 0u);
}

TEST(Pif, Property1FlushesInitiatorChannels) {
  // Property 1: after a started PIF terminates at p, no message that was in
  // a channel from/to p in the starting configuration remains.
  auto sim = pif_world(3, 7);
  const Value marker = Value::text("ghost-marker");
  auto& net = sim->network();
  net.channel(1, 0).push(Message::pif(marker, marker, 2, 2));
  net.channel(0, 1).push(Message::pif(marker, marker, 1, 3));
  net.channel(2, 0).push(Message::pif(marker, marker, 0, 0));
  net.channel(0, 2).push(Message::pif(marker, marker, 3, 1));
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(8));
  pif_of(*sim, 0).request(Value::text("flush"));
  ASSERT_EQ(sim->run(400'000, [](Simulator& s) { return pif_done(s, 0); }),
            Simulator::StopReason::Predicate);
  for (int other : {1, 2}) {
    for (const auto& m : net.channel(other, 0).contents())
      EXPECT_NE(m.b, marker) << "stale message still inbound from p" << other;
    for (const auto& m : net.channel(0, other).contents())
      EXPECT_NE(m.b, marker) << "stale message still outbound to p" << other;
  }
}

TEST(Pif, Figure1WorstCaseWalkthrough) {
  // Reproduces Figure 1 of the paper, message by message: the adversary
  // makes p consume its three "free" increments (stale message with flag 0,
  // q's concurrent computation echoing 1, stale message with flag 2) and p
  // then waits at State = 3 until a genuine round trip completes.
  auto sim = pif_world(2, 1);
  auto& p = pif_of(*sim, 0);
  auto& q = pif_of(*sim, 1);
  auto& net = sim->network();

  // Adversarial initial configuration.
  net.channel(1, 0).push(
      Message::pif(Value::text("stale"), Value::text("stale"), 0, 0));
  net.channel(0, 1).push(
      Message::pif(Value::text("stale"), Value::text("stale"), 2, 1));
  q.mutable_state().neig_state[0] = 1;

  pif_of(*sim, 0).request(Value::text("m"));
  q.request(Value::text("mq"));  // q starts concurrently (Figure 1)

  // p starts: A1 resets State to 0; A2's send dies on the full channel p->q.
  sim->execute(Step::tick(0));
  EXPECT_EQ(p.state().state[0], 0);
  EXPECT_EQ(sim->metrics().sends_lost_full, 1u);

  // Free increment #1: the stale flag-0 echo.
  sim->execute(Step::deliver(1, 0));
  EXPECT_EQ(p.state().state[0], 1);

  // q starts its own computation and transmits with NeigState 1.
  sim->execute(Step::tick(1));
  ASSERT_EQ(net.channel(1, 0).size(), 1u);
  EXPECT_EQ(net.channel(1, 0).peek().neig_state, 1);

  // Free increment #2: q's echo of its stale NeigState 1.
  sim->execute(Step::deliver(1, 0));
  EXPECT_EQ(p.state().state[0], 2);

  // q consumes the stale flag-2 message and echoes NeigState 2.
  sim->execute(Step::deliver(0, 1));
  ASSERT_EQ(net.channel(1, 0).size(), 1u);
  EXPECT_EQ(net.channel(1, 0).peek().neig_state, 2);

  // Free increment #3: p reaches State = 3 — the last stale-reachable value.
  sim->execute(Step::deliver(1, 0));
  EXPECT_EQ(p.state().state[0], 3);

  // No receive-brd<m> has occurred at q so far: all of p's flag-3 sends died.
  for (const auto& e : sim->log().events())
    if (e.process == 1 && e.kind == sim::ObsKind::RecvBrd)
      FAIL() << "q saw a broadcast before the genuine exchange";

  // Genuine exchange: p's flag-3 message reaches q (receive-brd fires), q
  // echoes 3, p switches 3 -> 4 (receive-fck) and decides.
  sim->execute(Step::deliver(0, 1));
  bool brd = false;
  for (const auto& e : sim->log().events())
    if (e.process == 1 && e.kind == sim::ObsKind::RecvBrd &&
        e.value == Value::text("m"))
      brd = true;
  EXPECT_TRUE(brd);

  sim->execute(Step::deliver(1, 0));
  EXPECT_EQ(p.state().state[0], 4);

  sim->execute(Step::tick(0));
  EXPECT_TRUE(p.done());
}

TEST(Pif, StaleDataNeverFakesABroadcast) {
  // Lemma 4 consequence: across adversarial single-message preloads with
  // every flag combination, p's decision always implies q generated a
  // receive-brd for p's payload.
  const std::int32_t F = 4;
  for (std::int32_t s1 = 0; s1 <= F; ++s1) {
    for (std::int32_t ns1 = 0; ns1 <= F; ++ns1) {
      for (std::int32_t qneig = 0; qneig <= F; ++qneig) {
        auto sim = pif_world(2, 1);
        auto& net = sim->network();
        net.channel(1, 0).push(
            Message::pif(Value::text("junk"), Value::text("junk"), s1, ns1));
        net.channel(0, 1).push(
            Message::pif(Value::text("junk"), Value::text("junk"), ns1, s1));
        pif_of(*sim, 1).mutable_state().neig_state[0] =
            qneig;
        sim->set_scheduler(std::make_unique<sim::RandomScheduler>(
            static_cast<std::uint64_t>(s1 * 25 + ns1 * 5 + qneig)));
        pif_of(*sim, 0).request(Value::text("real"));
        ASSERT_EQ(
            sim->run(200'000, [](Simulator& s) { return pif_done(s, 0); }),
            Simulator::StopReason::Predicate);
        const auto report = check_pif_spec(
            *sim, {.require_termination = false, .require_start = false});
        EXPECT_TRUE(report.ok()) << "s1=" << s1 << " ns1=" << ns1
                                 << " qneig=" << qneig << ": "
                                 << report.summary();
      }
    }
  }
}

TEST(Pif, RerequestRestartsCleanly) {
  // Back-to-back computations: each must independently satisfy the spec.
  auto sim = pif_world(3, 11);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(12));
  svc::Client client(*sim);
  for (int round = 0; round < 5; ++round) {
    client.submit(0, svc::PifBroadcast{Value::integer(round)});
    ASSERT_EQ(sim->run(400'000, [](Simulator& s) { return pif_done(s, 0); }),
              Simulator::StopReason::Predicate)
        << "round " << round;
  }
  const auto report = check_pif_spec(*sim);
  EXPECT_TRUE(report.ok()) << report.summary();
  // Five decisions at p0.
  int decides = 0;
  for (const auto& e : sim->log().events())
    if (e.process == 0 && e.kind == sim::ObsKind::Decide) ++decides;
  EXPECT_EQ(decides, 5);
}

TEST(Pif, InterruptedComputationRestarts) {
  // The ME layer may re-request while a computation is In (after an EXIT
  // reset). The restarted computation must still satisfy the spec.
  auto sim = pif_world(2, 13);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(14));
  pif_of(*sim, 0).request(Value::text("first"));
  // Run until the handshake is mid-flight (flag 1 reached, not finished).
  ASSERT_EQ(sim->run(50'000,
                     [](Simulator& s) {
                       return pif_of(s, 0).state()
                                  .state[0] >= 1;
                     }),
            Simulator::StopReason::Predicate);
  ASSERT_FALSE(pif_done(*sim, 0));
  pif_of(*sim, 0).request(Value::text("second"));  // interrupt + restart
  ASSERT_EQ(sim->run(200'000, [](Simulator& s) { return pif_done(s, 0); }),
            Simulator::StopReason::Predicate);
  // The first computation was abandoned mid-flight (no decision of its own),
  // so the generic window-based checker does not apply; assert directly that
  // the restarted broadcast went through.
  bool second_received = false;
  for (const auto& e : sim->log().events())
    if (e.process == 1 && e.kind == sim::ObsKind::RecvBrd &&
        e.value == Value::text("second"))
      second_received = true;
  EXPECT_TRUE(second_received);
}

TEST(Pif, IgnoresForeignMessageKinds) {
  auto sim = pif_world(2, 15);
  sim->network().channel(1, 0).push(Message::naive_brd(Value::integer(5)));
  sim->network().channel(1, 0).push(Message::seq_fck(Value::integer(5), 3));
  sim->execute(Step::deliver(1, 0));
  sim->execute(Step::deliver(1, 0));
  // No observation, no echo, no crash.
  EXPECT_TRUE(sim->log().events().empty());
  EXPECT_TRUE(sim->network().channel(0, 1).empty());
}

TEST(Pif, WildFlagsAreClampedSafely) {
  auto sim = pif_world(2, 17);
  auto& p = pif_of(*sim, 0);
  sim->network().channel(1, 0).push(Message::pif(
      Value::text("wild"), Value::none(), -2'000'000'000, 2'000'000'000));
  sim->execute(Step::deliver(1, 0));
  EXPECT_GE(p.state().neig_state[0], 0);
  EXPECT_LE(p.state().neig_state[0], 4);
  // A negative sender flag is < 4, so p still echoes (harmless).
  EXPECT_EQ(sim->network().channel(0, 1).size(), 1u);
}

TEST(Pif, RandomizeStaysInDomain) {
  Rng rng(19);
  for (int cap : {1, 2, 3}) {
    Pif pif(4, cap);
    for (int i = 0; i < 200; ++i) {
      pif.randomize(rng);
      for (int ch = 0; ch < 4; ++ch) {
        EXPECT_GE(pif.state().state[static_cast<std::size_t>(ch)], 0);
        EXPECT_LE(pif.state().state[static_cast<std::size_t>(ch)],
                  pif.flag_bound());
      }
    }
  }
}

}  // namespace
}  // namespace snapstab::core
