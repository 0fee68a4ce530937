// test_svc.cpp — the unified service/session API (svc::ServiceHost +
// svc::Client): one submit/poll/complete surface over every protocol.
//
// Covers the session lifecycle edges: Wait/In/Done mirroring of the
// paper's Request variable, submit-while-In queuing order, duplicate
// submit coalescing, forwarding admission reasons and end-to-end delivery
// acks, completion across a mid-run corruption burst (ghost-budget
// assertion), identical session transcripts Simulator vs ThreadRuntime,
// and the await verdicts and supervisor on both live transports.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "core/forward_world.hpp"
#include "core/specs.hpp"
#include "live_transports.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "sim/timeline.hpp"
#include "svc/client.hpp"
#include "svc/supervisor.hpp"

namespace snapstab::svc {
namespace {

using core::ForwardSubmit;
using sim::Simulator;
using sim::Step;

std::unique_ptr<Simulator> pif_host_world(int n, std::uint64_t seed) {
  auto sim = service_world(sim::Topology::complete(n), 1, seed,
                           /*config_of=*/nullptr);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
  return sim;
}

// ---------------------------------------------------------------------------
// Lifecycle basics: Wait -> In -> Done, uniform results.
// ---------------------------------------------------------------------------

TEST(SvcSession, MirrorsThePapersRequestVariable) {
  auto sim = pif_host_world(3, 1);
  Client client(*sim);
  const Value payload = Value::text("How old are you?");
  const Session s = client.submit(0, PifBroadcast{payload});
  EXPECT_EQ(s.key.origin, 0);
  EXPECT_EQ(s.key.service, ServiceId::PifBroadcast);
  // Submitted = the application set Request := Wait (A1 has not run).
  EXPECT_EQ(client.state(s), SessionState::Wait);
  // One activation of the host executes A1: the computation is In.
  sim->execute(Step::tick(0));
  EXPECT_EQ(client.state(s), SessionState::In);
  ASSERT_EQ(client.await_all({s}), AwaitResult::Done);
  EXPECT_EQ(client.state(s), SessionState::Done);
  const SessionResult r = client.result(s);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.value, payload);
}

TEST(SvcSession, CompletionCallbackFiresOnceWithKeyAndResult) {
  auto sim = pif_host_world(2, 2);
  Client client(*sim);
  int fired = 0;
  SessionKey seen_key;
  SessionResult seen_result;
  const Session s = client.submit(
      1, PifBroadcast{Value::integer(7)},
      [&](const SessionKey& k, const SessionResult& r) {
        ++fired;
        seen_key = k;
        seen_result = r;
      });
  ASSERT_EQ(client.await_all({s}), AwaitResult::Done);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(seen_key, s.key);
  EXPECT_TRUE(seen_result.completed);
  EXPECT_EQ(seen_result.value, Value::integer(7));
}

TEST(SvcSession, ReleaseRecyclesTheHostRecord) {
  auto sim = pif_host_world(2, 3);
  Client client(*sim);
  const Session s = client.submit(0, PifBroadcast{Value::integer(1)});
  ASSERT_EQ(client.await_all({s}), AwaitResult::Done);
  auto& host = sim->process_as<ServiceHost>(0);
  EXPECT_EQ(host.session_count(), 1);
  client.release(s);
  EXPECT_EQ(host.session_count(), 0);
  // A released session reads as Done-and-forgotten.
  EXPECT_EQ(client.state(s), SessionState::Done);
}

// ---------------------------------------------------------------------------
// Submit-while-In queuing.
// ---------------------------------------------------------------------------

TEST(SvcSession, SubmitWhileInQueuesInSubmissionOrder) {
  auto sim = pif_host_world(3, 5);
  Client client(*sim);
  const Value b1 = Value::integer(101);
  const Value b2 = Value::integer(102);
  const Value b3 = Value::integer(103);
  const Session s1 = client.submit(0, PifBroadcast{b1});
  const Session s2 = client.submit(0, PifBroadcast{b2});
  const Session s3 = client.submit(0, PifBroadcast{b3});
  EXPECT_EQ(client.state(s1), SessionState::Wait);
  EXPECT_EQ(client.state(s2), SessionState::Wait);  // queued behind s1
  sim->execute(Step::tick(0));
  EXPECT_EQ(client.state(s1), SessionState::In);
  EXPECT_EQ(client.state(s2), SessionState::Wait);  // still queued
  ASSERT_EQ(client.await_all({s1, s2, s3}), AwaitResult::Done);
  // The host ran the three computations strictly in submission order:
  // request and decision events appear b1, b2, b3.
  std::vector<Value> requests;
  std::vector<Value> decisions;
  for (const auto& e : sim->log().events()) {
    if (e.process != 0 || e.layer != sim::Layer::Pif) continue;
    if (e.kind == sim::ObsKind::RequestWait) requests.push_back(e.value);
    if (e.kind == sim::ObsKind::Decide) decisions.push_back(e.value);
  }
  EXPECT_EQ(requests, (std::vector<Value>{b1, b2, b3}));
  EXPECT_EQ(decisions, (std::vector<Value>{b1, b2, b3}));
}

TEST(SvcSession, DuplicateSubmitCoalescesWithTheQueuedTwin) {
  auto sim = pif_host_world(3, 6);
  Client client(*sim);
  const Value dup = Value::integer(55);
  int cb2 = 0, cb3 = 0;
  const Session s1 = client.submit(0, PifBroadcast{Value::integer(11)});
  const Session s2 = client.submit(  // queued
      0, PifBroadcast{dup},
      [&cb2](const SessionKey&, const SessionResult&) { ++cb2; });
  const Session s3 = client.submit(  // coalesces
      0, PifBroadcast{dup},
      [&cb3](const SessionKey&, const SessionResult&) { ++cb3; });
  EXPECT_FALSE(s2.coalesced);
  EXPECT_TRUE(s3.coalesced);
  EXPECT_EQ(s3.key, s2.key);
  ASSERT_EQ(client.await_all({s1, s2, s3}), AwaitResult::Done);
  // Both callers' completion callbacks fired, chained on the one session.
  EXPECT_EQ(cb2, 1);
  EXPECT_EQ(cb3, 1);
  // The coalesced pair ran as ONE computation: one request, one decision.
  int dup_requests = 0;
  for (const auto& e : sim->log().events())
    if (e.process == 0 && e.kind == sim::ObsKind::RequestWait &&
        e.value == dup)
      ++dup_requests;
  EXPECT_EQ(dup_requests, 1);
}

TEST(SvcSession, CriticalSectionSessionsQueueInsteadOfRefusing) {
  auto sim = std::make_unique<Simulator>(3, 1, 9);
  for (int i = 0; i < 3; ++i)
    sim->add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .id = i + 1, .degree = 2, .with_me = true}));
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(9));
  Client client(*sim);
  const Session g1 = client.submit(1, CriticalSection{});
  const Session g2 = client.submit(1, CriticalSection{});  // queues (no false)
  EXPECT_FALSE(g2.coalesced);  // CS grants do not coalesce: two grants wanted
  ASSERT_EQ(client.await_all({g1, g2}), AwaitResult::Done);
  EXPECT_TRUE(client.result(g1).cs_granted);
  EXPECT_TRUE(client.result(g2).cs_granted);
  // ...while the ME layer itself still refuses a second request mid-service.
  const Session g3 = client.submit(1, CriticalSection{});
  EXPECT_FALSE(sim->process_as<ServiceHost>(1).me().request_cs());
  ASSERT_EQ(client.await_all({g3}), AwaitResult::Done);
}

// ---------------------------------------------------------------------------
// The PIF-based services through sessions.
// ---------------------------------------------------------------------------

TEST(SvcServices, ResetElectionSnapshotTermdetectUniformSurface) {
  const int n = 4;
  std::vector<int> hooks(static_cast<std::size_t>(n), 0);
  auto sim = service_world(
      sim::Topology::complete(n), 1, 21, [&](sim::ProcessId p) {
        HostConfig cfg;
        cfg.id = 100 - p;  // process n-1 holds the smallest id
        cfg.with_reset = true;
        cfg.with_election = true;
        cfg.with_snapshot = true;
        cfg.on_reset = [&hooks, p](sim::Context&) {
          ++hooks[static_cast<std::size_t>(p)];
        };
        cfg.local_state = [p] { return Value::integer(1000 + p); };
        return cfg;
      });
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(22));
  Client client(*sim);

  std::vector<Session> sessions;
  sessions.push_back(client.submit(0, Reset{}));
  for (int p = 0; p < n; ++p)
    sessions.push_back(client.submit(p, Election{}));
  sessions.push_back(client.submit(2, Snapshot{}));
  ASSERT_EQ(client.await_all(sessions), AwaitResult::Done);

  for (int p = 0; p < n; ++p)
    EXPECT_GE(hooks[static_cast<std::size_t>(p)], 1) << "p" << p;
  std::set<int> ranks;
  for (int p = 0; p < n; ++p) {
    const SessionResult r = client.result(sessions[1 + static_cast<std::size_t>(p)]);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.min_id, 100 - (n - 1));
    ranks.insert(r.rank);
  }
  EXPECT_EQ(static_cast<int>(ranks.size()), n);
  const SessionResult snap = client.result(sessions.back());
  EXPECT_TRUE(snap.completed);
  EXPECT_TRUE(snap.value.is_int());  // the digest
  EXPECT_NE(snap.value, Value::none());
}

// ---------------------------------------------------------------------------
// Forwarding sessions: admission reasons, delivery acks.
// ---------------------------------------------------------------------------

TEST(SvcForward, AdmissionReasonsSurfaceThroughResult) {
  auto sim = core::forward_world(sim::Topology::line(3), 1, 31,
                                 core::Forward::Options{.hop_buffer = 1});
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(31));
  Client client(*sim);

  const Session ok = client.submit(0, ForwardMsg{2, Value::integer(2'000'000)});
  EXPECT_EQ(ok.admission, ForwardSubmit::Accepted);
  EXPECT_TRUE(ok.accepted());

  const Session full =
      client.submit(0, ForwardMsg{2, Value::integer(2'000'001)});
  EXPECT_EQ(full.admission, ForwardSubmit::BufferFull);
  EXPECT_EQ(client.state(full), SessionState::Done);  // born Done (refused)
  EXPECT_FALSE(client.result(full).completed);
  EXPECT_EQ(client.result(full).admission, ForwardSubmit::BufferFull);

  const Session no_route =
      client.submit(0, ForwardMsg{7, Value::integer(2'000'002)});
  EXPECT_EQ(no_route.admission, ForwardSubmit::NoRoute);

  const Session self_ok =
      client.submit(1, ForwardMsg{1, Value::integer(2'000'003)});
  EXPECT_EQ(self_ok.admission, ForwardSubmit::Accepted);
  const Session self_full =
      client.submit(1, ForwardMsg{1, Value::integer(2'000'004)});
  EXPECT_EQ(self_full.admission, ForwardSubmit::SelfDestination);

  ASSERT_EQ(client.await_all({ok, self_ok}), AwaitResult::Done);
  EXPECT_EQ(client.result(ok).value, Value::integer(2'000'000));
  EXPECT_EQ(client.result(self_ok).value, Value::integer(2'000'003));
  EXPECT_TRUE(core::check_forward_spec(*sim).ok());
}

TEST(SvcForward, SessionCompletesAcrossAMidRunCorruptionBurst) {
  auto sim = core::forward_world(sim::Topology::ring(5), 1, 41);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(
      41, sim::LossOptions{.rate = 0.1, .max_consecutive = 4}));
  Client client(*sim);

  // Phase 1: clean service.
  const Session a = client.submit(0, ForwardMsg{2, Value::integer(3'000'000)});
  const Session b = client.submit(3, ForwardMsg{1, Value::integer(3'000'001)});
  ASSERT_EQ(client.await_all({a, b}), AwaitResult::Done);

  // Mid-run corruption burst: scramble every hop handshake and queue, stuff
  // forged forwarding traffic into the channels.
  Rng chaos(411);
  sim::FuzzOptions burst;
  burst.flag_limit = 4;
  burst.forward_header_n = 5;
  sim::fuzz(*sim, chaos, burst);
  const std::uint64_t ghost_budget = core::forward_ghost_budget(*sim);

  // Phase 2: sessions submitted after the burst still complete...
  const Session c = client.submit(1, ForwardMsg{4, Value::integer(3'000'002)});
  const Session d = client.submit(2, ForwardMsg{0, Value::integer(3'000'003)});
  ASSERT_EQ(client.await_all({c, d}), AwaitResult::Done);
  EXPECT_EQ(client.result(c).value, Value::integer(3'000'002));
  EXPECT_EQ(client.result(d).value, Value::integer(3'000'003));

  // ...and the burst's garbage surfaces as at most ghost_budget deliveries
  // (each corrupted entry at most once — the snap-stabilization bound).
  const auto report = core::check_forward_spec(
      *sim, {.require_all_delivered = true,
             .max_ghost_deliveries = ghost_budget});
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------------
// Backend equivalence: the same client program on Simulator and
// ThreadRuntime yields the same session transcript.
// ---------------------------------------------------------------------------

struct Transcript {
  std::vector<SessionKey> keys;
  std::vector<bool> done;
  std::vector<Value> values;

  bool operator==(const Transcript&) const = default;
};

// The one client program, written once against Client's backend-neutral
// surface (the acceptance shape of the svc API).
template <typename Backend>
Transcript run_program(Backend& backend) {
  Client client(backend);
  std::vector<Session> sessions;
  sessions.push_back(client.submit(0, PifBroadcast{Value::text("alpha")}));
  sessions.push_back(client.submit(1, PifBroadcast{Value::text("beta")}));
  sessions.push_back(client.submit(0, PifBroadcast{Value::text("gamma")}));
  EXPECT_EQ(client.await_all(sessions), AwaitResult::Done);
  Transcript t;
  for (const Session& s : sessions) {
    t.keys.push_back(s.key);
    t.done.push_back(client.done(s));
    t.values.push_back(client.result(s).value);
  }
  return t;
}

TEST(SvcBackends, IdenticalSessionTranscriptSimulatorVsThreadRuntime) {
  const int n = 3;
  auto sim = pif_host_world(n, 51);
  const Transcript sim_transcript = run_program(*sim);

  runtime::ThreadRuntime rt(n, {.seed = 51});
  for (int i = 0; i < n; ++i)
    rt.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = n - 1}));
  const Transcript rt_transcript = run_program(rt);
  rt.shutdown();

  EXPECT_EQ(sim_transcript, rt_transcript);
  // Both backends recorded the submissions in their observation streams.
  int rt_requests = 0;
  for (const auto& e : rt.observations())
    if (e.kind == sim::ObsKind::RequestWait) ++rt_requests;
  EXPECT_EQ(rt_requests, 3);
}

// ---------------------------------------------------------------------------
// AwaitOptions hardening: a bounded await stops at its budget instead of
// spinning when sessions cannot complete, on both backends.
// ---------------------------------------------------------------------------

TEST(SvcAwait, SimulatorBudgetExhaustionStopsAtTheBudgetAndIsRetryable) {
  auto sim = pif_host_world(3, 91);
  Client client(*sim);
  const Session s = client.submit(0, PifBroadcast{Value::integer(5)});
  // Far too few steps for a PIF cycle on n=3: the await must give up at the
  // budget, not spin, and leave the session In.
  AwaitOptions tight;
  tight.max_steps = 3;
  EXPECT_EQ(client.await_all({s}, tight), AwaitResult::BudgetExhausted);
  EXPECT_EQ(sim->step_count(), 3u);
  EXPECT_FALSE(client.done(s));
  // A follow-up await with a real budget finishes the same session.
  EXPECT_EQ(client.await_all({s}), AwaitResult::Done);
  EXPECT_TRUE(client.result(s).completed);
}

TEST(SvcAwait, RefusedForwardSessionIsDoneNotAwaitedForever) {
  auto sim = core::forward_world(sim::Topology::line(3), 1, 92,
                                 core::Forward::Options{.hop_buffer = 1});
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(92));
  Client client(*sim);
  // dst 99 is not a process of this topology: refused at admission, born
  // Done. await_all must see Done immediately (zero steps), with the
  // refusal surfaced through the result, not loop on an unreachable goal.
  const Session s = client.submit(0, ForwardMsg{99, Value::integer(1)});
  EXPECT_EQ(s.admission, ForwardSubmit::NoRoute);
  EXPECT_EQ(client.await_all({s}), AwaitResult::Done);
  EXPECT_EQ(sim->step_count(), 0u);
  const SessionResult r = client.result(s);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.admission, ForwardSubmit::NoRoute);
}

// await_all checks its sessions only after steps that made session
// progress. That must be exact: it stops on the very step a poll of every
// session after every step stops on, with the identical execution.
std::unique_ptr<Simulator> mixed_ring_world(std::uint64_t seed) {
  auto sim = service_world(
      sim::Topology::ring(6), 1, seed,
      [](sim::ProcessId p) {
        HostConfig cfg;
        cfg.id = 40 + p;
        cfg.with_election = true;
        cfg.with_snapshot = true;
        cfg.local_state = [p] { return Value::integer(p); };
        return cfg;
      },
      /*with_forward=*/true);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
  return sim;
}

// Submits the awaited batch, stamping the step each of its sessions
// completes on, plus sessions nobody awaits that keep host 0 busy: the
// world is still running when the batch completes, so an await that missed
// the completing step would run on instead of ending at a quiescent world.
std::vector<Session> submit_mixed_batch(Client& client,
                                        std::vector<std::uint64_t>& done_at) {
  done_at.assign(5, 0);
  Simulator& sim = *client.simulator();
  const auto stamp = [&done_at, &sim](std::size_t i) {
    return [&done_at, &sim, i](const SessionKey&, const SessionResult&) {
      done_at[i] = sim.step_count();
    };
  };
  std::vector<Session> batch;
  batch.push_back(client.submit(0, PifBroadcast{Value::integer(7)}, stamp(0)));
  batch.push_back(client.submit(1, Election{}, stamp(1)));
  batch.push_back(client.submit(4, Snapshot{}, stamp(2)));
  batch.push_back(client.submit(5, PifBroadcast{Value::integer(8)}, stamp(3)));
  batch.push_back(
      client.submit(2, ForwardMsg{4, Value::integer(9)}, stamp(4)));
  client.submit(0, Snapshot{});
  client.submit(0, Election{});
  client.submit(0, Snapshot{});
  return batch;
}

TEST(SvcAwait, ProgressGatedAwaitStopsWhereAPerStepPollStops) {
  const sim::TimelineOptions whole{.max_rows = 1'000'000};
  int forward_last = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    auto gated = mixed_ring_world(seed);
    Client gated_client(*gated);
    std::vector<std::uint64_t> done_at;
    const std::vector<Session> batch =
        submit_mixed_batch(gated_client, done_at);
    ASSERT_TRUE(batch.back().accepted());
    ASSERT_EQ(gated_client.await_all(batch), AwaitResult::Done);
    if (done_at[4] == gated->step_count()) ++forward_last;

    auto reference = mixed_ring_world(seed);
    Client ref_client(*reference);
    std::vector<std::uint64_t> ref_done_at;
    const std::vector<Session> ref_batch =
        submit_mixed_batch(ref_client, ref_done_at);
    const auto poll_every_session = [&](Simulator&) {
      bool all = true;
      for (const Session& s : ref_batch)
        if (!ref_client.done(s)) all = false;
      return all;
    };
    ASSERT_EQ(reference->run(10'000'000, poll_every_session,
                             sim::StopPolicy{.check_every = 1}),
              Simulator::StopReason::Predicate);

    EXPECT_EQ(gated->step_count(), reference->step_count());
    EXPECT_EQ(done_at, ref_done_at);
    EXPECT_EQ(sim::render_timeline(gated->log(), whole),
              sim::render_timeline(reference->log(), whole));
  }
  // The forward delivery step must itself end the await in some seed, or
  // the test would not pin that a recorded delivery counts as progress.
  EXPECT_GT(forward_last, 0);
}

// ---------------------------------------------------------------------------
// Supervisor resilience stack: the per-service circuit breaker
// (Closed -> Open -> HalfOpen) and hedged resubmits, all deterministic on
// the engine step clock.
// ---------------------------------------------------------------------------

TEST(SvcBreaker, TripsOpensProbesAndCloses) {
  auto sim = pif_host_world(3, 61);
  Client client(*sim);
  SuperviseOptions so;
  so.attempt_deadline = 2'000;
  so.retry_budget = 6;
  so.backoff_base = 4;
  so.backoff_max = 8;
  so.breaker.enabled = true;
  so.breaker.failure_threshold = 2;
  so.breaker.open_cooldown = 50'000;  // never elapses inside this run
  Supervisor sup(client, so);
  EXPECT_EQ(sup.breaker_state(ServiceId::PifBroadcast), BreakerState::Closed);
  const auto t = sup.supervise(0, PifBroadcast{Value::integer(41)});
  // Kill exactly the first two attempts: crash the origin host once per
  // attempt number, the first pump after each launch.
  Rng rng(7);
  int last_killed = 0;
  sup.set_on_pump([&] {
    if (sup.terminal(t)) return;
    const int a = sup.attempts(t);
    if (a >= 1 && a <= 2 && a != last_killed) {
      sim->process_as<ServiceHost>(0).crash_restart(rng);
      last_killed = a;
    }
  });
  AwaitOptions aw;
  aw.policy.check_every = 1;
  ASSERT_TRUE(sup.run_all(aw));
  EXPECT_EQ(sup.outcome(t), SessionOutcome::Ok);
  // Two kills reach the threshold and trip the breaker; the resubmission
  // lands on it Open (held, no attempt burned), the quiescent cooldown
  // fast-forward half-opens it, and the probe succeeds and closes it.
  EXPECT_EQ(sup.attempts(t), 3);
  EXPECT_EQ(sup.stats().breaker_trips, 1u);
  EXPECT_EQ(sup.stats().breaker_short_circuits, 1u);
  EXPECT_EQ(sup.stats().probes, 1u);
  EXPECT_EQ(sup.breaker_state(ServiceId::PifBroadcast), BreakerState::Closed);
}

TEST(SvcBreaker, ProbeQuotaAdmitsExactlyOneWhileHalfOpen) {
  auto sim = pif_host_world(3, 63);
  Client client(*sim);
  SuperviseOptions so;
  so.attempt_deadline = 2'000;
  so.retry_budget = 6;
  so.backoff_base = 4;
  so.backoff_max = 8;
  so.breaker.enabled = true;
  so.breaker.failure_threshold = 1;
  so.breaker.open_cooldown = 50'000;
  Supervisor sup(client, so);
  const auto t1 = sup.supervise(0, PifBroadcast{Value::integer(7)});
  const auto t2 = sup.supervise(1, PifBroadcast{Value::integer(8)});
  // Kill both first attempts before any pump: the first failure trips the
  // breaker, the second lands on it already Open.
  Rng rng(9);
  sim->process_as<ServiceHost>(0).crash_restart(rng);
  sim->process_as<ServiceHost>(1).crash_restart(rng);
  AwaitOptions aw;
  aw.policy.check_every = 1;
  ASSERT_TRUE(sup.run_all(aw));
  EXPECT_EQ(sup.outcome(t1), SessionOutcome::Ok);
  EXPECT_EQ(sup.outcome(t2), SessionOutcome::Ok);
  EXPECT_EQ(sup.stats().breaker_trips, 1u);
  EXPECT_EQ(sup.stats().probes, 1u);  // the quota admitted exactly one
  EXPECT_EQ(sup.breaker_state(ServiceId::PifBroadcast), BreakerState::Closed);
}

TEST(SvcBreaker, FailedProbeReopensTheBreaker) {
  auto sim = pif_host_world(3, 65);
  Client client(*sim);
  SuperviseOptions so;
  so.attempt_deadline = 2'000;
  so.retry_budget = 6;
  so.backoff_base = 4;
  so.backoff_max = 8;
  so.breaker.enabled = true;
  so.breaker.failure_threshold = 1;
  so.breaker.open_cooldown = 50'000;
  Supervisor sup(client, so);
  const auto t = sup.supervise(0, PifBroadcast{Value::integer(9)});
  Rng rng(11);
  int last_killed = 0;
  sup.set_on_pump([&] {
    if (sup.terminal(t)) return;
    const int a = sup.attempts(t);
    if (a >= 1 && a <= 2 && a != last_killed) {
      sim->process_as<ServiceHost>(0).crash_restart(rng);
      last_killed = a;
    }
  });
  AwaitOptions aw;
  aw.policy.check_every = 1;
  ASSERT_TRUE(sup.run_all(aw));
  // Attempt 1 trips the breaker; attempt 2 IS the HalfOpen probe and dies,
  // reopening it (the second trip); attempt 3 is the second probe and
  // closes it.
  EXPECT_EQ(sup.outcome(t), SessionOutcome::Ok);
  EXPECT_EQ(sup.attempts(t), 3);
  EXPECT_EQ(sup.stats().breaker_trips, 2u);
  EXPECT_EQ(sup.stats().probes, 2u);
  EXPECT_EQ(sup.breaker_state(ServiceId::PifBroadcast), BreakerState::Closed);
}

TEST(SvcBreaker, DisabledBreakerNeverTripsOrHolds) {
  auto sim = pif_host_world(3, 67);
  Client client(*sim);
  SuperviseOptions so;
  so.attempt_deadline = 2'000;
  so.retry_budget = 6;
  so.backoff_base = 4;
  Supervisor sup(client, so);  // breaker disabled by default
  const auto t = sup.supervise(0, PifBroadcast{Value::integer(3)});
  Rng rng(13);
  int last_killed = 0;
  sup.set_on_pump([&] {
    if (sup.terminal(t)) return;
    const int a = sup.attempts(t);
    if (a >= 1 && a <= 2 && a != last_killed) {
      sim->process_as<ServiceHost>(0).crash_restart(rng);
      last_killed = a;
    }
  });
  AwaitOptions aw;
  aw.policy.check_every = 1;
  ASSERT_TRUE(sup.run_all(aw));
  EXPECT_EQ(sup.outcome(t), SessionOutcome::Ok);
  EXPECT_EQ(sup.stats().breaker_trips, 0u);
  EXPECT_EQ(sup.stats().breaker_short_circuits, 0u);
  EXPECT_EQ(sup.stats().probes, 0u);
  EXPECT_EQ(sup.breaker_state(ServiceId::PifBroadcast), BreakerState::Closed);
}

TEST(SvcHedge, HealthyRequestLaunchesNoBackup) {
  auto sim = pif_host_world(3, 69);
  Client client(*sim);
  SuperviseOptions so;
  so.hedge.enabled = true;
  so.hedge.hedge_after = 100'000;  // far beyond the healthy completion
  Supervisor sup(client, so);
  const auto t = sup.supervise(0, PifBroadcast{Value::integer(5)});
  AwaitOptions aw;
  aw.policy.check_every = 1;
  ASSERT_TRUE(sup.run_all(aw));
  EXPECT_EQ(sup.outcome(t), SessionOutcome::Ok);
  EXPECT_EQ(sup.stats().hedges_launched, 0u);
  EXPECT_EQ(sup.stats().hedge_wins, 0u);
}

TEST(SvcHedge, BackupLaunchesAfterTheLatencyBudgetAndFirstTerminalWins) {
  auto sim = pif_host_world(3, 71);
  Client client(*sim);
  SuperviseOptions so;
  so.hedge.enabled = true;
  so.hedge.hedge_after = 1;  // fires on the first pump past launch
  Supervisor sup(client, so);
  const auto t = sup.supervise(0, PifBroadcast{Value::integer(6)});
  AwaitOptions aw;
  aw.policy.check_every = 1;
  ASSERT_TRUE(sup.run_all(aw));
  // Exactly one backup launched (one per attempt, even though the budget
  // keeps elapsing), the first terminal result won, and the ticket settled
  // once — no double completion.
  EXPECT_EQ(sup.outcome(t), SessionOutcome::Ok);
  EXPECT_EQ(sup.result(t).value, Value::integer(6));
  EXPECT_EQ(sup.stats().hedges_launched, 1u);
  EXPECT_EQ(sup.stats().ok, 1u);
  EXPECT_EQ(sup.live(), 0);
}

TEST(SvcResilience, BreakerPlusHedgeRunsAreDeterministic) {
  const auto run_once = [] {
    auto sim = pif_host_world(4, 73);
    Client client(*sim);
    SuperviseOptions so;
    so.attempt_deadline = 1'200;
    so.retry_budget = 4;
    so.backoff_base = 8;
    so.seed = 73;
    so.breaker.enabled = true;
    so.breaker.failure_threshold = 2;
    so.breaker.open_cooldown = 256;
    so.hedge.enabled = true;
    so.hedge.hedge_after = 600;
    Supervisor sup(client, so);
    Rng rng(17);
    int pumps = 0;
    sup.set_on_pump([&] {
      // A deterministic burst of kills early in the run.
      if (++pumps <= 3)
        sim->process_as<ServiceHost>(pumps % 4).crash_restart(rng);
    });
    std::vector<Supervisor::Ticket> ts;
    for (int i = 0; i < 4; ++i)
      ts.push_back(sup.supervise(i, PifBroadcast{Value::integer(500 + i)}));
    AwaitOptions aw;
    aw.policy.check_every = 4;
    sup.run_all(aw);
    std::vector<int> outcomes;
    for (const auto t : ts)
      outcomes.push_back(static_cast<int>(sup.outcome(t)));
    return std::tuple(sim->step_count(), outcomes, sup.stats().resubmits,
                      sup.stats().breaker_trips, sup.stats().probes,
                      sup.stats().hedges_launched, sup.stats().hedge_wins);
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// AwaitResult: the typed await verdict — "more budget might finish this"
// (BudgetExhausted) vs "no budget ever will" (RuntimeDown).
// ---------------------------------------------------------------------------

TEST(SvcAwait, AwaitResultNamesAreExhaustive) {
  EXPECT_STREQ(await_result_name(AwaitResult::Done), "done");
  EXPECT_STREQ(await_result_name(AwaitResult::BudgetExhausted),
               "budget-exhausted");
  EXPECT_STREQ(await_result_name(AwaitResult::RuntimeDown), "runtime-down");
}

TEST(SvcAwait, SimulatorBudgetVerdictIsTypedAndRetryable) {
  auto sim = pif_host_world(3, 94);
  Client client(*sim);
  const Session s = client.submit(0, PifBroadcast{Value::integer(4)});
  // Steps remain enabled at the budget: BudgetExhausted, not RuntimeDown —
  // a bigger budget finishes the same session. (A quiescent Simulator with
  // incomplete sessions would read RuntimeDown, but the snap-stabilizing
  // protocols retransmit: even a fully wiped channel set re-enables, which
  // is exactly why the typed verdict matters on a live runtime, which can
  // be shut down under the await.)
  AwaitOptions tight;
  tight.max_steps = 2;
  EXPECT_EQ(client.await_all({s}, tight), AwaitResult::BudgetExhausted);
  EXPECT_FALSE(client.done(s));
  AwaitOptions roomy;
  roomy.max_steps = 1'000'000;
  EXPECT_EQ(client.await_all({s}, roomy), AwaitResult::Done);
  EXPECT_TRUE(client.result(s).completed);
}

// ---------------------------------------------------------------------------
// Live runtimes, both transports: the await verdicts and the supervisor.
// ---------------------------------------------------------------------------

void set_every_edge_down(live::Runtime& rt, bool down) {
  for (sim::EdgeId e = 0; e < rt.topology().edge_count(); ++e)
    rt.set_edge_down(e, down);
}

class SvcLiveAwait : public ::testing::TestWithParam<test::Transport> {};

TEST_P(SvcLiveAwait, BudgetThenDoneThenRuntimeDown) {
  const int n = 3;
  auto rt = test::make_live(GetParam(), n, 93);
  for (int i = 0; i < n; ++i)
    rt->add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = n - 1}));
  Client client(*rt);
  AwaitOptions tight;
  tight.timeout = std::chrono::milliseconds(50);

  // Every edge down: the wave cannot complete, so the await ends at the
  // wall budget while the runtime is still live.
  set_every_edge_down(*rt, true);
  const Session s = client.submit(0, PifBroadcast{Value::integer(9)});
  EXPECT_EQ(client.await_all({s}, tight), AwaitResult::BudgetExhausted);
  EXPECT_FALSE(client.done(s));

  // The node threads kept serving: once the links heal, the same batch
  // awaits to Done.
  rt->clear_edge_faults();
  EXPECT_EQ(client.await_all({s}), AwaitResult::Done);
  EXPECT_TRUE(client.result(s).completed);

  // After shutdown no budget can finish a session.
  set_every_edge_down(*rt, true);
  const Session late = client.submit(0, PifBroadcast{Value::integer(10)});
  rt->shutdown();
  EXPECT_EQ(client.await_all({late}, tight), AwaitResult::RuntimeDown);
  EXPECT_FALSE(client.done(late));
}

INSTANTIATE_TEST_SUITE_P(Transports, SvcLiveAwait, test::kTransports,
                         test::transport_name);

TEST(SvcSupervisor, HedgedTicketsSettleOkOverUdp) {
  // Supervised PIF and election tickets over real sockets, hedging on with
  // sprayed origins. Every link starts down so each primary outlives the
  // hedge budget and a backup launches; once every ticket has its backup,
  // the links heal.
  const int n = 3;
  net::SocketRuntime rt(n, {.seed = 97});
  for (int p = 0; p < n; ++p) {
    HostConfig cfg;
    cfg.id = 10 + p;
    cfg.degree = n - 1;
    cfg.channel_capacity = 1;
    cfg.with_election = true;
    rt.add_process(std::make_unique<ServiceHost>(cfg));
  }
  Client client(rt);
  SuperviseOptions so;
  so.attempt_deadline = 20'000;  // ms
  so.hedge.enabled = true;
  so.hedge.hedge_after = 1;  // ms
  Supervisor sup(client, so);
  set_every_edge_down(rt, true);
  std::vector<Supervisor::Ticket> tickets;
  bool healed = false;
  sup.set_on_pump([&] {
    if (healed || sup.stats().hedges_launched < tickets.size()) return;
    rt.clear_edge_faults();
    healed = true;
  });
  for (int p = 0; p < n; ++p) {
    tickets.push_back(sup.supervise(p, PifBroadcast{Value::integer(70 + p)}));
    tickets.push_back(sup.supervise(p, Election{}));
  }
  AwaitOptions aw;
  aw.timeout = std::chrono::milliseconds(60'000);
  EXPECT_TRUE(sup.run_all(aw));
  rt.shutdown();
  for (const Supervisor::Ticket t : tickets)
    EXPECT_EQ(sup.outcome(t), SessionOutcome::Ok) << "ticket " << t.id;
  EXPECT_GT(sup.stats().hedges_launched, 0u);
}

}  // namespace
}  // namespace snapstab::svc
