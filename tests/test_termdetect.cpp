// test_termdetect.cpp — termination detection over snap-stabilizing probes.
//
// The observed application is a token game: tokens carry a TTL, hop to
// random neighbors via App messages (with channel backpressure), and are
// absorbed at TTL 0 — a genuinely diffusing computation that terminates.
// Safety: the detector never claims while a token exists anywhere (held or
// in flight). Liveness: once the game dies out, the detector claims.
#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/host.hpp"

namespace snapstab::core {
namespace {

using sim::Simulator;

// One process's side of the token game.
struct TokenApp {
  std::deque<int> held;  // TTLs of the tokens currently held
  std::uint32_t sent = 0;
  std::uint32_t received = 0;
  std::uint32_t absorbed = 0;

  DiffusingApp hooks() {
    DiffusingApp app;
    app.counters = [this] {
      return AppCounters{held.empty(), sent, received};
    };
    app.has_work = [this] { return !held.empty(); };
    app.on_tick = [this](sim::Context& ctx) {
      if (held.empty()) return;
      const int ttl = held.front();
      if (ttl <= 0) {
        held.pop_front();
        ++absorbed;
        return;
      }
      const int ch = static_cast<int>(ctx.rng().below(
          static_cast<std::uint64_t>(ctx.degree())));
      // Backpressure: a refused send keeps the token for a later retry, so
      // `sent` counts exactly the messages that actually entered a channel.
      if (ctx.send(ch, Message::app(Value::integer(ttl - 1)))) {
        held.pop_front();
        ++sent;
      }
    };
    app.on_message = [this](sim::Context&, int, const Value& v) {
      ++received;
      held.push_back(static_cast<int>(v.as_int(0)));
    };
    return app;
  }
};

struct World {
  std::unique_ptr<Simulator> sim;
  std::vector<std::unique_ptr<TokenApp>> apps;
};

World token_world(int n, std::uint64_t seed) {
  World w;
  w.sim = std::make_unique<Simulator>(n, 1, seed);
  for (int i = 0; i < n; ++i) {
    w.apps.push_back(std::make_unique<TokenApp>());
    w.sim->add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = n - 1, .with_termdetect = true,
        .app = w.apps.back()->hooks()}));
  }
  return w;
}

bool tokens_anywhere(const World& w) {
  for (const auto& app : w.apps)
    if (!app->held.empty()) return true;
  const auto& net = w.sim->network();
  for (int s = 0; s < w.sim->process_count(); ++s)
    for (int d = 0; d < w.sim->process_count(); ++d) {
      if (s == d) continue;
      for (const auto& m : net.channel(s, d).contents())
        if (m.kind == MsgKind::App) return true;
    }
  return false;
}

TEST(TermDetect, PackUnpackRoundTrip) {
  const AppCounters cases[] = {
      {true, 0, 0},
      {false, 0, 0},
      {true, 1, 2},
      {false, 0x7FFFFFFFu, 0x7FFFFFFFu},
      {true, 123456, 654321},
  };
  for (const auto& c : cases) {
    const AppCounters back = TermDetect::unpack(TermDetect::pack(c));
    EXPECT_EQ(back, c);
  }
}

TEST(TermDetect, UnpackIsTotalOnGarbage) {
  (void)TermDetect::unpack(Value::none());
  (void)TermDetect::unpack(Value::text("junk"));
  (void)TermDetect::unpack(Value::token(Token::Exit));
  const AppCounters c = TermDetect::unpack(Value::integer(-1));
  EXPECT_TRUE(c.passive || !c.passive);  // merely: no crash, some value
}

TEST(TermDetect, IdleSystemClaimsInTwoWaves) {
  auto w = token_world(3, 1);
  w.sim->set_scheduler(std::make_unique<sim::RandomScheduler>(2));
  w.sim->process_as<svc::ServiceHost>(0).detector().request();
  ASSERT_EQ(
      w.sim->run(400'000,
                 [](Simulator& s) {
                   return s.process_as<svc::ServiceHost>(0).detector().done();
                 }),
      Simulator::StopReason::Predicate);
  const auto& detector = w.sim->process_as<svc::ServiceHost>(0).detector();
  EXPECT_TRUE(detector.termination_claimed());
  EXPECT_EQ(detector.waves_used(), 2);
}

class TermDetectGame
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(TermDetectGame, NeverClaimsWhileTokensLiveAndClaimsAfter) {
  const auto [n, seed] = GetParam();
  auto w = token_world(n, seed);
  // Seed the game: a few tokens with assorted TTLs at assorted processes.
  Rng rng(seed * 17);
  for (int t = 0; t < 2 * n; ++t)
    w.apps[rng.below(static_cast<std::uint64_t>(n))]->held.push_back(
        static_cast<int>(rng.below(12)));

  w.sim->set_scheduler(std::make_unique<sim::RandomScheduler>(seed + 1));
  w.sim->process_as<svc::ServiceHost>(0).detector().request();
  const auto reason = w.sim->run(4'000'000, [](Simulator& s) {
    return s.process_as<svc::ServiceHost>(0).detector().done();
  });
  ASSERT_EQ(reason, Simulator::StopReason::Predicate);

  const auto& detector = w.sim->process_as<svc::ServiceHost>(0).detector();
  EXPECT_TRUE(detector.termination_claimed());
  // Safety, checked at the moment of the claim: no token held, none in
  // flight (the run stopped right at the decision step).
  EXPECT_FALSE(tokens_anywhere(w)) << "claimed termination with live tokens";
  // Conservation: every counted send was received (reliable App layer).
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (const auto& app : w.apps) {
    sent += app->sent;
    received += app->received;
  }
  EXPECT_EQ(sent, received);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TermDetectGame,
                         ::testing::Combine(::testing::Values(2, 3, 5),
                                            ::testing::Values(11ull, 12ull,
                                                              13ull)));

TEST(TermDetect, NonTerminatingApplicationNeverClaims) {
  // An application that is always active: the detector must keep probing
  // and never claim.
  const int n = 2;
  Simulator sim(n, 1, 21);
  std::uint32_t work = 0;
  DiffusingApp busy;
  busy.counters = [&work] {
    ++work;  // every probe sees fresh activity
    return AppCounters{false, work, work};
  };
  sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
      .degree = n - 1, .with_termdetect = true, .app = busy}));
  DiffusingApp idle;
  idle.counters = [] { return AppCounters{true, 0, 0}; };
  sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
      .degree = n - 1, .with_termdetect = true, .app = idle}));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(22));
  sim.process_as<svc::ServiceHost>(0).detector().request();
  EXPECT_EQ(sim.run(200'000,
                    [](Simulator& s) {
                      return s.process_as<svc::ServiceHost>(0).detector()
                          .done();
                    }),
            Simulator::StopReason::BudgetExhausted);
  EXPECT_FALSE(
      sim.process_as<svc::ServiceHost>(0).detector().termination_claimed());
  EXPECT_GT(sim.process_as<svc::ServiceHost>(0).detector().waves_used(), 2);
}

TEST(TermDetect, SurvivesFuzzedProtocolState) {
  // The probes ride on snap-stabilizing PIF: corrupted protocol state
  // (flags, request variables, channel garbage) cannot produce a false
  // claim for a *started* detection, and the detection still completes.
  for (std::uint64_t seed = 31; seed <= 40; ++seed) {
    auto w = token_world(3, seed);
    Rng rng(seed * 7);
    sim::fuzz(*w.sim, rng);  // protocol state + channels (apps untouched)
    // The corruption model covers the *protocol*; the application layer is
    // assumed authentic (DESIGN.md / termdetect.hpp). Strip the ghost App
    // messages the fuzzer injected, keep every protocol-level corruption.
    for (int s = 0; s < 3; ++s)
      for (int d = 0; d < 3; ++d) {
        if (s == d) continue;
        auto& ch = w.sim->network().channel(s, d);
        std::vector<Message> keep;
        while (!ch.empty()) {
          const Message m = ch.pop();
          if (m.kind != MsgKind::App) keep.push_back(m);
        }
        for (const auto& m : keep) ch.push(m);
      }
    w.apps[0]->held.push_back(4);  // one live token at the start
    w.sim->set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
    w.sim->process_as<svc::ServiceHost>(1).detector().request();
    const auto reason = w.sim->run(2'000'000, [](Simulator& s) {
      return s.process_as<svc::ServiceHost>(1).detector().done();
    });
    ASSERT_EQ(reason, Simulator::StopReason::Predicate) << "seed=" << seed;
    EXPECT_TRUE(w.sim->process_as<svc::ServiceHost>(1)
                    .detector()
                    .termination_claimed());
    EXPECT_FALSE(tokens_anywhere(w)) << "seed=" << seed;
  }
}

TEST(TermDetect, LoadedSystemUsesMoreWaves) {
  auto idle = token_world(3, 51);
  idle.sim->set_scheduler(std::make_unique<sim::RandomScheduler>(52));
  idle.sim->process_as<svc::ServiceHost>(0).detector().request();
  idle.sim->run(400'000, [](Simulator& s) {
    return s.process_as<svc::ServiceHost>(0).detector().done();
  });
  const int idle_waves =
      idle.sim->process_as<svc::ServiceHost>(0).detector().waves_used();

  auto busy = token_world(3, 51);
  for (int t = 0; t < 6; ++t) busy.apps[0]->held.push_back(20);
  busy.sim->set_scheduler(std::make_unique<sim::RandomScheduler>(52));
  busy.sim->process_as<svc::ServiceHost>(0).detector().request();
  busy.sim->run(4'000'000, [](Simulator& s) {
    return s.process_as<svc::ServiceHost>(0).detector().done();
  });
  const int busy_waves =
      busy.sim->process_as<svc::ServiceHost>(0).detector().waves_used();
  EXPECT_GT(busy_waves, idle_waves);
}

}  // namespace
}  // namespace snapstab::core
