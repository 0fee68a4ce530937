// test_stack.cpp — the protocol-stack wiring: payload dispatch of
// receive-brd, B-Mes routing of receive-fck, atomic sub-protocol starts,
// and the busy discipline of the critical section.
#include <gtest/gtest.h>

#include <memory>

#include "sim/simulator.hpp"
#include "svc/host.hpp"

namespace snapstab::core {
namespace {

using sim::Simulator;
using sim::Step;

// Puts a brd-firing PIF message (flag 3 on fresh NeigState) carrying the
// given payload into the channel from `src` to `dst` and delivers it.
void deliver_brd(Simulator& sim, int src, int dst, const Value& payload) {
  sim.network().channel(src, dst).clear();
  sim.network().channel(src, dst).push(
      Message::pif(payload, Value::none(), 3, 0));
  // Fresh processes have NeigState = 4, so flag 3 triggers the brd event.
  sim.execute(Step::deliver(src, dst));
}

std::unique_ptr<Simulator> stack_world(int n, std::uint64_t seed = 1) {
  return svc::service_world(sim::Topology::complete(n), 1, seed, [](int p) {
    return svc::HostConfig{.id = 10 * (p + 1), .with_me = true};
  });
}

TEST(StackDispatch, AskBroadcastAnswersPerFavour) {
  auto sim = stack_world(3);
  auto& p1 = sim->process_as<svc::ServiceHost>(1);
  // p1's Value = 1 favours its local channel 1's paper-number 1 = index 0,
  // which is process 2 (peer_of(1, 0) = 2).
  p1.me().mutable_state().value = 1;
  deliver_brd(*sim, 2, 1, Value::token(Token::Ask));
  // p1 echoes back with its feedback = YES (favoured asker).
  const auto& echo = sim->network().channel(1, 2).peek();
  EXPECT_EQ(echo.f, Value::token(Token::Yes));

  // A non-favoured asker gets NO.
  deliver_brd(*sim, 0, 1, Value::token(Token::Ask));
  EXPECT_EQ(sim->network().channel(1, 0).peek().f, Value::token(Token::No));
}

TEST(StackDispatch, ExitBroadcastResetsPhase) {
  auto sim = stack_world(2);
  auto& p1 = sim->process_as<svc::ServiceHost>(1);
  p1.me().mutable_state().phase = 3;
  deliver_brd(*sim, 0, 1, Value::token(Token::Exit));
  EXPECT_EQ(p1.me().phase(), 0);
  EXPECT_EQ(sim->network().channel(1, 0).peek().f, Value::token(Token::Ok));
}

TEST(StackDispatch, ExitCsAdvancesFavourOnlyFromTheFavoured) {
  auto sim = stack_world(3);
  auto& p0 = sim->process_as<svc::ServiceHost>(0);
  // p0's Value = 2 favours its channel with paper number 2 = index 1 =
  // process 2.
  p0.me().mutable_state().value = 2;
  // EXITCS from the non-favoured process 1 (index 0 at p0): no advance.
  deliver_brd(*sim, 1, 0, Value::token(Token::ExitCs));
  EXPECT_EQ(p0.me().value(), 2);
  // EXITCS from the favoured process 2 (index 1 at p0): advance mod n.
  deliver_brd(*sim, 2, 0, Value::token(Token::ExitCs));
  EXPECT_EQ(p0.me().value(), 0);  // (2+1) mod 3
}

TEST(StackDispatch, IdlQueryBroadcastFeedsBackIdentity) {
  auto sim = stack_world(2);
  deliver_brd(*sim, 0, 1, Value::token(Token::IdlQuery));
  EXPECT_EQ(sim->network().channel(1, 0).peek().f, Value::integer(20));
}

TEST(StackDispatch, GhostBroadcastIsPolitelyAcknowledged) {
  auto sim = stack_world(2);
  const int phase_before = sim->process_as<svc::ServiceHost>(1).me().phase();
  deliver_brd(*sim, 0, 1, Value::text("who knows"));
  EXPECT_EQ(sim->network().channel(1, 0).peek().f, Value::token(Token::Ok));
  EXPECT_EQ(sim->process_as<svc::ServiceHost>(1).me().phase(), phase_before);
}

TEST(StackDispatch, FeedbackRoutesByOwnBroadcast) {
  auto sim = stack_world(2);
  auto& p0 = sim->process_as<svc::ServiceHost>(0);
  // Put p0 one step from completing an ASK computation on channel 0
  // (installed directly: a full-stack tick would run ME's cycle instead).
  p0.pif().request(Value::token(Token::Ask));  // sets B-Mes
  p0.pif().mutable_state().request = RequestState::In;
  p0.pif().mutable_state().state[0] = 3;
  p0.me().mutable_state().privileges[0] = false;
  // The matching echo carries YES: the fck must land in Privileges.
  sim->network().channel(1, 0).clear();
  sim->network().channel(1, 0).push(
      Message::pif(Value::none(), Value::token(Token::Yes), 4, 3));
  sim->execute(Step::deliver(1, 0));
  EXPECT_TRUE(p0.me().privilege(0));

  // Same echo while broadcasting EXIT: A10, nothing happens.
  p0.pif().request(Value::token(Token::Exit));
  p0.pif().mutable_state().request = RequestState::In;
  p0.pif().mutable_state().state[0] = 3;
  p0.me().mutable_state().privileges[0] = false;
  sim->network().channel(1, 0).clear();
  sim->network().channel(1, 0).push(
      Message::pif(Value::none(), Value::token(Token::Yes), 4, 3));
  sim->execute(Step::deliver(1, 0));
  EXPECT_FALSE(p0.me().privilege(0));
}

TEST(StackDispatch, ForeignMessageKindsIgnoredByStacks) {
  auto sim = stack_world(2);
  sim->network().channel(0, 1).push(Message::app(Value::integer(5)));
  sim->network().channel(0, 1).push(Message::naive_brd(Value::integer(5)));
  sim->execute(Step::deliver(0, 1));
  sim->execute(Step::deliver(0, 1));
  EXPECT_TRUE(sim->log().events().empty());
  EXPECT_TRUE(sim->network().channel(1, 0).empty());
}

TEST(StackTiming, SubProtocolStartsInTheSameActivation) {
  // ME A0 -> IDL A1 -> PIF A1 must cascade within one tick: after a single
  // activation of a phase-0 process, the PIF computation has started
  // (flags reset), leaving no window against corrupted flags.
  auto sim = stack_world(2);
  auto& p0 = sim->process_as<svc::ServiceHost>(0);
  p0.me().mutable_state().phase = 0;
  p0.pif().mutable_state().state[0] = 3;  // corrupted flag
  sim->execute(Step::tick(0));
  EXPECT_EQ(p0.me().phase(), 1);
  EXPECT_EQ(p0.idl().request_state(), RequestState::In);
  EXPECT_EQ(p0.pif().request_state(), RequestState::In);
  EXPECT_EQ(p0.pif().state().state[0], 0) << "flags not reset atomically";
}

TEST(StackTiming, BusyProcessOnlyCountsDownItsCs) {
  MeOptions opts;
  opts.cs_length = 3;
  Simulator sim(2, 1, 1);
  sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
      .id = 10, .degree = 1, .with_me = true, .me_options = opts}));
  sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
      .id = 20, .degree = 1, .with_me = true, .me_options = opts}));
  auto& p0 = sim.process_as<svc::ServiceHost>(0);
  p0.me().mutable_state().cs_remaining = 3;
  p0.idl().mutable_state().request = RequestState::Wait;  // would fire A1
  ASSERT_TRUE(p0.busy());

  sim.execute(Step::tick(0));
  // The CS countdown advanced; the pending IDL request did NOT start.
  EXPECT_EQ(p0.me().state().cs_remaining, 2);
  EXPECT_EQ(p0.idl().request_state(), RequestState::Wait);

  sim.execute(Step::tick(0));
  sim.execute(Step::tick(0));
  EXPECT_FALSE(p0.busy());  // CS over (the exit half of A3 ran)
}

TEST(StackTiming, CsExitRunsReleaseAndDecide) {
  MeOptions opts;
  opts.cs_length = 1;
  Simulator sim(2, 1, 1);
  sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
      .id = 10, .degree = 1, .with_me = true, .me_options = opts}));
  sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
      .id = 20, .degree = 1, .with_me = true, .me_options = opts}));
  auto& p0 = sim.process_as<svc::ServiceHost>(0);
  // p0 is the leader (id 10 < 20) mid-CS with a served request.
  p0.idl().mutable_state().min_id = 10;
  p0.me().mutable_state().value = 0;
  p0.me().mutable_state().request = RequestState::In;
  p0.me().mutable_state().cs_remaining = 1;
  sim.execute(Step::tick(0));
  EXPECT_EQ(p0.me().request_state(), RequestState::Done);
  EXPECT_EQ(p0.me().value(), 1);  // the leader released itself: 0 -> 1
  EXPECT_EQ(p0.me().phase(), 4);
}

}  // namespace
}  // namespace snapstab::core
