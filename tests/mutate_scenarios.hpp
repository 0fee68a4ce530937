// mutate_scenarios.hpp — the kill-config ladder shared by
// tools/mutant_hunter.cpp and tests/test_mutate.cpp.
//
// Each KillConfig is one deterministic experiment: build a world, run it,
// assert the specification (spec checkers, exact results, golden traces).
// The contract is two-sided:
//   * DISARMED (the baseline), every config passes — the hunter verifies
//     this before hunting, and test_mutate pins the digests;
//   * with one non-equivalent mutant armed, at least one config fails —
//     that failure is the kill, recorded with the config's name and stage.
//
// Configs are ordered cheapest-first within their stage; the hunter runs
// stages in the fixed ladder order spec -> golden -> fuzz -> chaos and
// stops at the first failure. Every config also folds its observation
// trace and results into a digest, so test_mutate can additionally assert
// that each armed mutant *perturbs* at least one execution and that the
// two declared-equivalent mutants perturb none.
#ifndef SNAPSTAB_TESTS_MUTATE_SCENARIOS_HPP
#define SNAPSTAB_TESTS_MUTATE_SCENARIOS_HPP

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/forward_world.hpp"
#include "core/specs.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "golden_scenarios.hpp"
#include "net/wire.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "svc/host.hpp"
#include "svc/supervisor.hpp"

namespace snapstab::mutatetest {

// ---------------------------------------------------------------------------
// Outcome plumbing.
// ---------------------------------------------------------------------------

struct Outcome {
  bool pass = true;
  std::string detail;           // first failed assertion / spec violation
  std::uint64_t digest = 0;     // FNV-1a over the trace + checked results
  std::uint64_t steps = 0;      // simulator steps consumed (kill cost)
};

class Fold {
 public:
  void mix(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
  }
  void mix_int(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<unsigned char>(v >> (8 * i));
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t hash() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

class Check {
 public:
  explicit Check(Outcome& out) : out_(out) {}

  void require(bool cond, const std::string& what) {
    out_.get().digest ^= cond ? 0 : 0x9e3779b97f4a7c15ull;
    fold_.mix(what);
    fold_.mix(cond ? "|ok|" : "|FAIL|");
    if (!cond && out_.get().pass) {
      out_.get().pass = false;
      out_.get().detail = what;
    }
  }
  void spec(const core::SpecReport& report, const std::string& label) {
    require(report.ok(), report.ok() ? label : label + ": " + report.summary());
  }
  // Folds a checked value into the digest AND requires equality.
  void equals(std::int64_t got, std::int64_t want, const std::string& what) {
    fold_.mix_int(got);
    require(got == want, what + " (got " + std::to_string(got) + ", want " +
                             std::to_string(want) + ")");
  }
  void trace(sim::Simulator& sim) {
    fold_.mix(golden::render(sim));
    out_.get().steps += sim.metrics().steps;
  }
  void finish() { out_.get().digest ^= fold_.hash(); }

 private:
  std::reference_wrapper<Outcome> out_;
  Fold fold_;
};

struct KillConfig {
  const char* name;
  const char* stage;  // "spec" | "golden" | "fuzz" | "chaos"
  Outcome (*run)();
};

// ---------------------------------------------------------------------------
// Raw two-process PIF worlds for the scripted adversarial scenarios.
// The wrapper is a bare sim::Process (no svc layer) so the script can drive
// the exact Figure-1 interleavings and poke Pif::mutable_state directly.
// ---------------------------------------------------------------------------

class RawPifProcess final : public sim::Process {
 public:
  RawPifProcess(int degree, int capacity) : pif_(degree, capacity) {}
  core::Pif& pif() noexcept { return pif_; }
  void on_tick(sim::Context& ctx) override { pif_.tick(ctx); }
  void on_message(sim::Context& ctx, int ch, const Message& m) override {
    pif_.handle_message(ctx, ch, m);
  }
  bool tick_enabled() const override { return pif_.tick_enabled(); }
  void randomize(Rng& rng) override { pif_.randomize(rng); }

 private:
  core::Pif pif_;
};

// The Figure-1 prelude of bench/exp_ablation.cpp, aimed at the LIVE bound:
// a capacity-1 link's stale fuel fakes exactly three increments, so the
// paper's F = 2c+2 = 4 survives while any shortened bound ghost-decides
// without the responder ever seeing the broadcast.
inline Outcome run_pif_fig1() {
  Outcome out;
  Check ck(out);
  sim::Simulator world(2, 1, 5);
  world.add_process(std::make_unique<RawPifProcess>(1, 1));
  world.add_process(std::make_unique<RawPifProcess>(1, 1));
  auto& net = world.network();
  net.channel(1, 0).push(
      Message::pif(Value::text("junk"), Value::text("junk"), 0, 0));
  net.channel(0, 1).push(
      Message::pif(Value::text("junk"), Value::text("junk"), 2, 0));
  auto& q = world.process_as<RawPifProcess>(1).pif();
  q.mutable_state().neig_state[0] = 1;
  q.request(Value::text("mq"));
  auto& p = world.process_as<RawPifProcess>(0).pif();
  p.request(Value::text("m"));

  world.execute(sim::Step::tick(0));        // p starts; send dies on full
  world.execute(sim::Step::deliver(1, 0));  // stale echo 0
  world.execute(sim::Step::tick(1));        // q starts, echoes NeigState 1
  world.execute(sim::Step::deliver(1, 0));  // stale echo 1
  world.execute(sim::Step::deliver(0, 1));  // q eats stale flag-2, echoes 2
  world.execute(sim::Step::deliver(1, 0));  // stale echo 2
  world.execute(sim::Step::tick(0));        // p decides iff State == F

  if (!p.done()) {
    world.set_scheduler(std::make_unique<sim::RandomScheduler>(7));
    world.run(100'000, [](sim::Simulator& s) {
      return s.process_as<RawPifProcess>(0).pif().done();
    });
  }
  ck.require(p.done(), "fig1: the broadcast terminates under fair schedule");
  ck.spec(core::check_pif_spec(
              world, {.require_termination = false, .require_start = false}),
          "fig1: no ghost decision");
  ck.trace(world);
  ck.finish();
  return out;
}

// A genuine broadcast by q with p's NeigState copy corrupted by one wild
// (out-of-domain) echo mid-handshake. Live, the wild flag clamps to F and
// the genuine flag F-1 still reads as first sight; a clamp domain shrunk to
// F-1 pre-satisfies the first-sight test and suppresses receive-brd — a
// Correctness violation.
inline Outcome run_pif_wild_echo() {
  Outcome out;
  Check ck(out);
  sim::Simulator world(2, 1, 9);
  world.add_process(std::make_unique<RawPifProcess>(1, 1));
  world.add_process(std::make_unique<RawPifProcess>(1, 1));
  auto& q = world.process_as<RawPifProcess>(1).pif();
  q.request(Value::integer(4242));

  // Three genuine round trips: q's flag climbs 0 -> 3 while p has seen 2.
  for (int round = 0; round < 3; ++round) {
    world.execute(sim::Step::tick(1));        // q (re)transmits flag `round`
    world.execute(sim::Step::deliver(1, 0));  // p records it, echoes
    world.execute(sim::Step::deliver(0, 1));  // q increments
  }
  // One wild echo into p: flag 5 is outside {0..F}; live clamps to F = 4.
  world.network().channel(1, 0).push(
      Message::pif(Value::text("junk"), Value::text("junk"), 5, 9));
  world.execute(sim::Step::deliver(1, 0));
  // q's genuine flag-3 transmission: first sight of F-1 announces the
  // broadcast at p, and p's echo completes q's handshake.
  world.execute(sim::Step::tick(1));
  world.execute(sim::Step::deliver(1, 0));
  world.execute(sim::Step::deliver(0, 1));
  world.execute(sim::Step::tick(1));  // q decides

  ck.require(q.done(), "wild-echo: the broadcast terminates");
  ck.spec(core::check_pif_spec(
              world, {.require_termination = true, .require_start = false}),
          "wild-echo: receive-brd fires despite the wild flag");
  ck.trace(world);
  ck.finish();
  return out;
}

// A completed handshake hit by one ghost message whose NeigState field
// matches the already-final flag F. Live, the flag domain is closed at F
// and the message is inert; a counter allowed past the bound increments to
// F+1 and the broadcast never decides — a Termination violation.
inline Outcome run_pif_ghost_echo() {
  Outcome out;
  Check ck(out);
  sim::Simulator world(2, 1, 15);
  world.add_process(std::make_unique<RawPifProcess>(1, 1));
  world.add_process(std::make_unique<RawPifProcess>(1, 1));
  auto& p = world.process_as<RawPifProcess>(0).pif();
  p.request(Value::integer(7777));

  // Four genuine round trips complete the handshake: p's flag reaches F.
  for (int round = 0; round < 4; ++round) {
    world.execute(sim::Step::tick(0));
    world.execute(sim::Step::deliver(0, 1));
    world.execute(sim::Step::deliver(1, 0));
  }
  // Before p's deciding tick, a ghost whose NeigState equals F arrives.
  world.network().channel(1, 0).push(
      Message::pif(Value::text("junk"), Value::text("junk"), 0, 4));
  world.execute(sim::Step::deliver(1, 0));
  world.execute(sim::Step::tick(0));  // p decides iff State still == F

  if (!p.done()) {
    world.set_scheduler(std::make_unique<sim::RandomScheduler>(15));
    world.run(50'000, [](sim::Simulator& s) {
      return s.process_as<RawPifProcess>(0).pif().done();
    });
  }
  ck.require(p.done(), "ghost-echo: the flag domain is closed at F");
  ck.spec(core::check_pif_spec(
              world, {.require_termination = true, .require_start = false}),
          "ghost-echo: spec");
  ck.trace(world);
  ck.finish();
  return out;
}

// ---------------------------------------------------------------------------
// Spec-stage configs over the stock worlds.
// ---------------------------------------------------------------------------

inline Outcome run_spec_pif_rand() {
  Outcome out;
  Check ck(out);
  auto sim = golden::pif_world(4, 1, 7);
  for (int p = 0; p < 4; ++p)
    sim->process_as<svc::ServiceHost>(p).pif().request(
        Value::integer(100 + p));
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(7));
  sim->run(200'000, golden::all_pif_done);
  ck.require(golden::all_pif_done(*sim), "pif.rand: every broadcast decides");
  ck.spec(core::check_pif_spec(*sim, {.require_start = false}),
          "pif.rand: spec");
  ck.trace(*sim);
  ck.finish();
  return out;
}

inline Outcome run_spec_pif_loss() {
  Outcome out;
  Check ck(out);
  auto sim = golden::pif_world(6, 2, 11);
  for (int p = 0; p < 6; p += 2)
    sim->process_as<svc::ServiceHost>(p).pif().request(Value::integer(p));
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(
      11, sim::LossOptions{.rate = 0.3, .max_consecutive = 5}));
  sim->run(400'000, golden::all_pif_done);
  ck.require(golden::all_pif_done(*sim),
             "pif.loss: every broadcast decides despite loss");
  ck.spec(core::check_pif_spec(*sim, {.require_start = false}),
          "pif.loss: spec");
  ck.trace(*sim);
  ck.finish();
  return out;
}

inline Outcome run_spec_idl_exact() {
  Outcome out;
  Check ck(out);
  // Identities are all positive; fuzzed accumulators draw from
  // [-1000, 1000], so any stale minimum folded in (instead of reset) is
  // detected by the exactness check below.
  const std::vector<std::int64_t> ids = {42, 7, 99, 13};
  sim::Simulator sim(4, 1, 23);
  for (int p = 0; p < 4; ++p)
    sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .id = ids[static_cast<std::size_t>(p)], .degree = 3,
        .with_idl = true}));
  Rng fuzz_rng(23);
  sim::fuzz(sim, fuzz_rng);
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(23));
  // Requested over the fuzzed state: a direct Request := Wait restarts any
  // ghost computation (check_idl_spec reads no request events).
  for (int p = 0; p < 4; ++p)
    sim.process_as<svc::ServiceHost>(p).idl().request();
  sim.run(500'000, [](sim::Simulator& s) {
    for (int p = 0; p < s.process_count(); ++p)
      if (!s.process_as<svc::ServiceHost>(p).idl().done()) return false;
    return true;
  });
  for (int p = 0; p < 4; ++p) {
    const auto& idl = sim.process_as<svc::ServiceHost>(p).idl();
    ck.require(idl.done(), "idl.exact: computation " + std::to_string(p) +
                               " terminates");
    ck.equals(idl.min_id(), 7, "idl.exact: exact minimum at p" +
                                   std::to_string(p));
    for (int ch = 0; ch < 3; ++ch)
      ck.equals(idl.id_tab(ch),
                ids[static_cast<std::size_t>(
                    sim.topology().peer_of(p, ch))],
                "idl.exact: ID-Tab[" + std::to_string(ch) + "] at p" +
                    std::to_string(p));
  }
  ck.spec(core::check_idl_spec(
              sim,
              [&sim](sim::ProcessId p) -> const core::Idl& {
                return sim.process_as<svc::ServiceHost>(p).idl();
              },
              ids),
          "idl.exact: spec");
  ck.trace(sim);
  ck.finish();
  return out;
}

inline Outcome run_spec_me_cycle() {
  Outcome out;
  Check ck(out);
  sim::Simulator sim(3, 1, 29);
  core::MeOptions options;
  options.cs_length = 3;
  for (int p = 0; p < 3; ++p)
    sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .id = p + 1, .degree = 2, .with_me = true, .me_options = options}));
  svc::Client client(sim);
  for (int p = 0; p < 3; ++p) client.submit(p, svc::CriticalSection{});
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(29));
  sim.run(60'000);
  ck.spec(core::check_me_spec(sim, {.require_liveness = true}),
          "me.cycle: every requester served, mutual exclusion holds");
  ck.trace(sim);
  ck.finish();
  return out;
}

// Winner(p)'s second disjunct demands a privilege *from the minimum-identity
// neighbor* (Privileges[q] ∧ ID-Tab[q] = minID). A corrupted privilege from
// anyone else — here a ghost YES recorded from a non-minimum neighbor — must
// not make p a winner, or two processes enter the critical section.
inline Outcome run_spec_me_ghost_privilege() {
  Outcome out;
  Check ck(out);
  sim::Simulator sim(3, 1, 31);
  for (int p = 0; p < 3; ++p)
    sim.add_process(
        std::make_unique<svc::ServiceHost>(svc::HostConfig{
            .id = p + 5, .degree = 2, .with_me = true}));
  auto& host = sim.process_as<svc::ServiceHost>(2);  // own_id 7
  auto& idl_st = host.idl().mutable_state();
  idl_st.request = core::RequestState::Done;
  idl_st.min_id = 5;
  idl_st.id_tab = {6, 6};  // neither channel reports the minimum identity
  auto& me_st = host.me().mutable_state();
  me_st.privileges = {true, false};  // ghost YES from a non-minimum neighbor
  me_st.value = 2;                   // first disjunct (minID=ID ∧ Value=0) off
  ck.require(!host.me().winner(),
             "me.ghost_privilege: a privilege from a non-minimum neighbor "
             "does not make a winner");
  ck.finish();
  return out;
}

inline Outcome run_spec_svc_reset() {
  Outcome out;
  Check ck(out);
  std::array<int, 4> resets{};
  sim::Simulator sim(4, 1, 33);
  for (int p = 0; p < 4; ++p)
    sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = 3, .with_reset = true,
        .on_reset = [&resets, p](sim::Context&) {
          ++resets[static_cast<std::size_t>(p)];
        }}));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(33));
  svc::Client client(sim);
  const auto session = client.submit(0, svc::Reset{});
  const auto res = client.await_all({session}, {.max_steps = 100'000});
  ck.require(res == svc::AwaitResult::Done, "reset: the session completes");
  for (int p = 0; p < 4; ++p)
    ck.equals(resets[static_cast<std::size_t>(p)], 1,
              "reset: process " + std::to_string(p) +
                  " executed exactly one reset at completion");
  for (int p = 0; p < 4; ++p)
    ck.equals(static_cast<std::int64_t>(
                  sim.process_as<svc::ServiceHost>(p).reset()
                      .resets_executed()),
              1, "reset: process " + std::to_string(p) +
                     " bookkeeping counts one execution");
  ck.trace(sim);
  ck.finish();
  return out;
}

inline Outcome run_spec_svc_snapshot() {
  Outcome out;
  Check ck(out);
  sim::Simulator sim(3, 1, 37);
  for (int p = 0; p < 3; ++p)
    sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = 2, .with_snapshot = true,
        .local_state = [p] { return Value::integer(1000 + p); }}));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(37));
  svc::Client client(sim);
  const auto session = client.submit(0, svc::Snapshot{});
  const auto res = client.await_all({session}, {.max_steps = 100'000});
  ck.require(res == svc::AwaitResult::Done, "snapshot: the session completes");
  const auto& snap = sim.process_as<svc::ServiceHost>(0).snapshot();
  ck.equals(snap.own_state().as_int(-1), 1000, "snapshot: own state read");
  for (int ch = 0; ch < 2; ++ch)
    ck.equals(snap.collected()[static_cast<std::size_t>(ch)].as_int(-1),
              1000 + sim.topology().peer_of(0, ch),
              "snapshot: collected[" + std::to_string(ch) + "]");
  ck.trace(sim);
  ck.finish();
  return out;
}

inline Outcome run_spec_svc_election() {
  Outcome out;
  Check ck(out);
  const std::vector<std::int64_t> ids = {42, 7, 99, 13};
  const std::vector<std::int64_t> sorted = {7, 13, 42, 99};
  sim::Simulator sim(4, 1, 41);
  for (int p = 0; p < 4; ++p)
    sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .id = ids[static_cast<std::size_t>(p)], .degree = 3,
        .with_election = true}));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(41));
  svc::Client client(sim);
  std::vector<svc::Session> sessions;
  for (int p = 0; p < 4; ++p)
    sessions.push_back(client.submit(p, svc::Election{}));
  const auto res = client.await_all(sessions, {.max_steps = 200'000});
  ck.require(res == svc::AwaitResult::Done, "election: every session done");
  for (int p = 0; p < 4; ++p) {
    const auto result = client.result(sessions[static_cast<std::size_t>(p)]);
    const std::int64_t own = ids[static_cast<std::size_t>(p)];
    ck.equals(result.min_id, 7, "election: minimum at p" + std::to_string(p));
    std::int64_t want_rank = 0;
    while (sorted[static_cast<std::size_t>(want_rank)] != own) ++want_rank;
    ck.equals(result.rank, want_rank,
              "election: rank at p" + std::to_string(p));
    const auto& el = sim.process_as<svc::ServiceHost>(p).election();
    ck.equals(el.leader(), 7, "election: leader() at p" + std::to_string(p));
    ck.equals(el.is_leader() ? 1 : 0, own == 7 ? 1 : 0,
              "election: is_leader() at p" + std::to_string(p));
    const auto members = el.members();
    ck.equals(static_cast<std::int64_t>(members.size()), 4,
              "election: member count at p" + std::to_string(p));
    for (std::size_t i = 0; i < members.size() && i < sorted.size(); ++i)
      ck.equals(members[i], sorted[i],
                "election: members[" + std::to_string(i) + "] at p" +
                    std::to_string(p));
  }
  ck.trace(sim);
  ck.finish();
  return out;
}

// --- termination detection -------------------------------------------------

inline std::unique_ptr<sim::Simulator> td_world(
    std::uint64_t seed, const std::function<core::AppCounters(int)>& counters) {
  auto sim = std::make_unique<sim::Simulator>(3, 1, seed);
  for (int p = 0; p < 3; ++p) {
    core::DiffusingApp app;
    app.counters = [counters, p] { return counters(p); };
    sim->add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = 2, .with_termdetect = true, .app = app}));
  }
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
  return sim;
}

// Idle application: detection claims after exactly two probe waves, and a
// second detection on the same world behaves identically.
inline Outcome run_spec_td_idle_twice() {
  Outcome out;
  Check ck(out);
  auto sim = td_world(45, [](int) { return core::AppCounters{}; });
  svc::Client client(*sim);
  for (int round = 0; round < 2; ++round) {
    const auto session = client.submit(0, svc::TermDetect{});
    const auto res = client.await_all({session}, {.max_steps = 100'000});
    ck.require(res == svc::AwaitResult::Done,
               "td.idle: detection " + std::to_string(round) + " completes");
    if (res != svc::AwaitResult::Done) break;
    const auto result = client.result(session);
    ck.equals(result.termination_claimed ? 1 : 0, 1,
              "td.idle: claim " + std::to_string(round));
    ck.equals(result.waves, 2,
              "td.idle: exactly two waves, round " + std::to_string(round));
    client.release(session);
  }
  ck.trace(*sim);
  ck.finish();
  return out;
}

// Per-process counters that disagree but sum to a quiet snapshot: the claim
// hinges on every peer's feedback being collected and unpacked exactly.
inline Outcome run_spec_td_asym_idle() {
  Outcome out;
  Check ck(out);
  auto sim = td_world(47, [](int p) {
    return core::AppCounters{true, static_cast<std::uint32_t>(p),
                             static_cast<std::uint32_t>(2 - p)};
  });
  svc::Client client(*sim);
  const auto session = client.submit(0, svc::TermDetect{});
  const auto res = client.await_all({session}, {.max_steps = 100'000});
  ck.require(res == svc::AwaitResult::Done, "td.asym: detection completes");
  if (res == svc::AwaitResult::Done)
    ck.equals(client.result(session).termination_claimed ? 1 : 0, 1,
              "td.asym: globally quiet counters are claimed");
  ck.trace(*sim);
  ck.finish();
  return out;
}

// Drifting application: every snapshot is quiet but no two are equal, so a
// sound detector never claims — it must compare two successive snapshots.
inline Outcome run_spec_td_drift() {
  Outcome out;
  Check ck(out);
  auto drift = std::make_shared<std::array<std::uint32_t, 3>>();
  auto sim = td_world(49, [drift](int p) {
    const std::uint32_t k = (*drift)[static_cast<std::size_t>(p)]++;
    return core::AppCounters{true, k, k};
  });
  svc::Client client(*sim);
  const auto session = client.submit(0, svc::TermDetect{});
  const auto res = client.await_all({session}, {.max_steps = 40'000});
  ck.require(res != svc::AwaitResult::Done,
             "td.drift: drifting quiet snapshots never anchor a claim");
  ck.trace(*sim);
  ck.finish();
  return out;
}

// Messages permanently in flight (sent > received): never quiet.
inline Outcome run_spec_td_inflight_lie() {
  Outcome out;
  Check ck(out);
  auto sim = td_world(51, [](int) { return core::AppCounters{true, 1, 0}; });
  svc::Client client(*sim);
  const auto session = client.submit(0, svc::TermDetect{});
  const auto res = client.await_all({session}, {.max_steps = 40'000});
  ck.require(res != svc::AwaitResult::Done,
             "td.inflight: unreceived messages block the claim");
  ck.trace(*sim);
  ck.finish();
  return out;
}

// A permanently active process: never quiet, regardless of counters.
inline Outcome run_spec_td_active_idle() {
  Outcome out;
  Check ck(out);
  auto sim = td_world(53, [](int) { return core::AppCounters{false, 0, 0}; });
  svc::Client client(*sim);
  const auto session = client.submit(0, svc::TermDetect{});
  const auto res = client.await_all({session}, {.max_steps = 40'000});
  ck.require(res != svc::AwaitResult::Done,
             "td.active: an active process blocks the claim");
  ck.trace(*sim);
  ck.finish();
  return out;
}

// --- forwarding ------------------------------------------------------------

inline Outcome run_spec_fwd_ring() {
  Outcome out;
  Check ck(out);
  auto sim = core::forward_world(sim::Topology::ring(5), 1, 57);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(
      57, sim::LossOptions{.rate = 0.1, .max_consecutive = 4}));
  // Payloads >= 10^6 are outside Value::random's range, so no fuzzed ghost
  // can impersonate them (see check_forward_spec's header comment).
  svc::Client client(*sim);
  ck.require(client.submit(0, svc::ForwardMsg{2, Value::integer(1'000'042)})
                 .accepted(),
             "fwd.ring: submit 0->2 accepted");
  ck.require(client.submit(3, svc::ForwardMsg{1, Value::integer(1'000'043)})
                 .accepted(),
             "fwd.ring: submit 3->1 accepted");
  ck.require(client.submit(4, svc::ForwardMsg{2, Value::integer(1'000'044)})
                 .accepted(),
             "fwd.ring: submit 4->2 accepted");
  sim->run(500'000, [](sim::Simulator& s) {
    std::uint64_t delivered = 0;
    for (int p = 0; p < s.process_count(); ++p)
      delivered +=
          s.process_as<svc::ServiceHost>(p).forward().delivered_count();
    return delivered >= 3;
  });
  std::uint64_t delivered = 0;
  for (int p = 0; p < 5; ++p)
    delivered +=
        sim->process_as<svc::ServiceHost>(p).forward().delivered_count();
  ck.equals(static_cast<std::int64_t>(delivered), 3,
            "fwd.ring: three deliveries counted");
  ck.spec(core::check_forward_spec(*sim), "fwd.ring: exactly-once delivery");
  ck.trace(*sim);
  ck.finish();
  return out;
}

// --- supervisor circuit breaker / hedging ----------------------------------
// PIF-only worlds (golden::pif_world), so none of the declared-equivalent
// IDL/ME/TD mutants can touch these traces. Failures are injected by
// crashing the origin host (kills the live session visibly), which is what
// feeds the breaker's consecutive-failure count deterministically.

// Trip -> Open -> short-circuit -> (quiescent fast-forward) HalfOpen probe
// -> Closed. Kills sup.breaker.trip, sup.breaker.cooldown, sup.probe.close.
inline Outcome run_spec_sup_breaker() {
  Outcome out;
  Check ck(out);
  auto sim = golden::pif_world(3, 1, 31);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(32));
  svc::Client client(*sim);
  svc::SuperviseOptions so;
  so.attempt_deadline = 2'000;
  so.retry_budget = 6;
  so.backoff_base = 4;
  so.backoff_max = 8;
  so.breaker.enabled = true;
  so.breaker.failure_threshold = 2;
  so.breaker.open_cooldown = 50'000;  // never elapses inside this run
  svc::Supervisor sup(client, so);
  const auto t = sup.supervise(0, svc::PifBroadcast{Value::integer(41)});
  // Kill exactly the first two attempts: crash the origin host once per
  // attempt number, the first pump after each launch.
  Rng rng(7);
  int last_killed = 0;
  sup.set_on_pump([&] {
    if (sup.terminal(t)) return;
    const int a = sup.attempts(t);
    if (a >= 1 && a <= 2 && a != last_killed) {
      sim->process_as<svc::ServiceHost>(0).crash_restart(rng);
      last_killed = a;
    }
  });
  svc::AwaitOptions aw;
  aw.policy.check_every = 1;
  ck.require(sup.run_all(aw), "sup.breaker: run_all settles every ticket");
  ck.equals(static_cast<std::int64_t>(sup.outcome(t)),
            static_cast<std::int64_t>(svc::SessionOutcome::Ok),
            "sup.breaker: recovered Ok");
  ck.equals(sup.attempts(t), 3, "sup.breaker: two kills then the probe");
  ck.equals(static_cast<std::int64_t>(sup.stats().breaker_trips), 1,
            "sup.breaker: tripped exactly once");
  ck.equals(static_cast<std::int64_t>(sup.stats().breaker_short_circuits), 1,
            "sup.breaker: one held resubmission while Open");
  ck.equals(static_cast<std::int64_t>(sup.stats().probes), 1,
            "sup.breaker: one HalfOpen probe");
  ck.equals(
      static_cast<std::int64_t>(sup.breaker_state(svc::ServiceId::PifBroadcast)),
      static_cast<std::int64_t>(svc::BreakerState::Closed),
      "sup.breaker: probe success closed the breaker");
  ck.trace(*sim);
  ck.finish();
  return out;
}

// Two tickets contending for one HalfOpen probe slot: the quota admits one,
// short-circuits the other. Kills sup.probe.quota (and sup.breaker.trip at
// threshold 1).
inline Outcome run_spec_sup_probe() {
  Outcome out;
  Check ck(out);
  auto sim = golden::pif_world(3, 1, 33);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(34));
  svc::Client client(*sim);
  svc::SuperviseOptions so;
  so.attempt_deadline = 2'000;
  so.retry_budget = 6;
  so.backoff_base = 4;
  so.backoff_max = 8;
  so.breaker.enabled = true;
  so.breaker.failure_threshold = 1;
  so.breaker.open_cooldown = 50'000;
  svc::Supervisor sup(client, so);
  const auto t1 = sup.supervise(0, svc::PifBroadcast{Value::integer(7)});
  const auto t2 = sup.supervise(1, svc::PifBroadcast{Value::integer(8)});
  // Kill both first attempts before any pump: the first failure trips the
  // breaker, the second lands on it already Open.
  Rng rng(9);
  sim->process_as<svc::ServiceHost>(0).crash_restart(rng);
  sim->process_as<svc::ServiceHost>(1).crash_restart(rng);
  svc::AwaitOptions aw;
  aw.policy.check_every = 1;
  ck.require(sup.run_all(aw), "sup.probe: run_all settles every ticket");
  ck.equals(static_cast<std::int64_t>(sup.outcome(t1)),
            static_cast<std::int64_t>(svc::SessionOutcome::Ok),
            "sup.probe: t1 Ok");
  ck.equals(static_cast<std::int64_t>(sup.outcome(t2)),
            static_cast<std::int64_t>(svc::SessionOutcome::Ok),
            "sup.probe: t2 Ok");
  ck.equals(static_cast<std::int64_t>(sup.stats().breaker_trips), 1,
            "sup.probe: one trip");
  ck.equals(static_cast<std::int64_t>(sup.stats().probes), 1,
            "sup.probe: the quota admitted exactly one probe");
  ck.equals(
      static_cast<std::int64_t>(sup.breaker_state(svc::ServiceId::PifBroadcast)),
      static_cast<std::int64_t>(svc::BreakerState::Closed),
      "sup.probe: closed after the probe");
  ck.trace(*sim);
  ck.finish();
  return out;
}

// Hedging: a healthy request under a huge hedge budget must launch zero
// backups (kills sup.hedge.fire, whose mutant fires at the first pump); a
// tiny budget launches exactly one.
inline Outcome run_spec_sup_hedge() {
  Outcome out;
  Check ck(out);
  {
    auto sim = golden::pif_world(3, 1, 35);
    sim->set_scheduler(std::make_unique<sim::RandomScheduler>(36));
    svc::Client client(*sim);
    svc::SuperviseOptions so;
    so.hedge.enabled = true;
    so.hedge.hedge_after = 100'000;  // far beyond the healthy completion
    svc::Supervisor sup(client, so);
    const auto t = sup.supervise(0, svc::PifBroadcast{Value::integer(5)});
    svc::AwaitOptions aw;
    aw.policy.check_every = 1;
    ck.require(sup.run_all(aw), "sup.hedge: healthy run settles");
    ck.equals(static_cast<std::int64_t>(sup.outcome(t)),
              static_cast<std::int64_t>(svc::SessionOutcome::Ok),
              "sup.hedge: healthy Ok");
    ck.equals(static_cast<std::int64_t>(sup.stats().hedges_launched), 0,
              "sup.hedge: no backup within the budget");
    ck.trace(*sim);
  }
  {
    auto sim = golden::pif_world(3, 1, 37);
    sim->set_scheduler(std::make_unique<sim::RandomScheduler>(38));
    svc::Client client(*sim);
    svc::SuperviseOptions so;
    so.hedge.enabled = true;
    so.hedge.hedge_after = 1;  // fires on the first pump past launch
    svc::Supervisor sup(client, so);
    const auto t = sup.supervise(0, svc::PifBroadcast{Value::integer(6)});
    svc::AwaitOptions aw;
    aw.policy.check_every = 1;
    ck.require(sup.run_all(aw), "sup.hedge: hedged run settles");
    ck.equals(static_cast<std::int64_t>(sup.outcome(t)),
              static_cast<std::int64_t>(svc::SessionOutcome::Ok),
              "sup.hedge: hedged Ok");
    ck.equals(static_cast<std::int64_t>(sup.stats().hedges_launched), 1,
              "sup.hedge: exactly one backup");
    ck.trace(*sim);
  }
  ck.finish();
  return out;
}

// ---------------------------------------------------------------------------
// Wire-frame validation: forge datagrams around one well-formed frame and
// require every rejection to fire. Each MUTATION_POINT in decode_frame
// (version gate, length guard, checksum check) has a forged input here
// that only the live check rejects — the mutant accepts it as Ok, which
// both flips the folded result code and breaks the explicit equals.
// ---------------------------------------------------------------------------

inline Outcome run_spec_net_frame() {
  Outcome out;
  Check ck(out);
  StringPool pool;
  ScopedStringPool scope(pool);
  const Message m =
      Message::pif(Value::text("net-frame"), Value::integer(3), 1, 2);
  const std::vector<std::uint8_t> good = net::encode_frame(5, m, pool);

  const auto result_of = [&](const std::vector<std::uint8_t>& frame) {
    return static_cast<std::int64_t>(
        net::decode_frame(frame.data(), frame.size(), pool).result);
  };
  const auto want = [](net::WireFrameResult r) {
    return static_cast<std::int64_t>(r);
  };

  const net::DecodedFrame ok = net::decode_frame(good.data(), good.size(), pool);
  ck.equals(static_cast<std::int64_t>(ok.result),
            want(net::WireFrameResult::Ok), "net.frame: well-formed accepted");
  ck.equals(ok.edge, 5, "net.frame: edge survives the round trip");
  ck.require(ok.message.kind == m.kind && ok.message.b == m.b &&
                 ok.message.f == m.f && ok.message.state == m.state,
             "net.frame: message survives the round trip");

  auto forged = good;
  forged[13] ^= 0xFF;  // corrupt the stored checksum
  ck.equals(result_of(forged), want(net::WireFrameResult::BadChecksum),
            "net.frame: corrupted checksum field rejected");

  forged = good;
  forged.back() ^= 0x01;  // corrupt one payload byte in flight
  ck.equals(result_of(forged), want(net::WireFrameResult::BadChecksum),
            "net.frame: corrupted payload byte rejected");

  forged = good;
  forged[4] = net::kWireVersion + 1;  // incompatible peer, checksum valid
  net::patch_checksum(forged);
  ck.equals(result_of(forged), want(net::WireFrameResult::BadVersion),
            "net.frame: foreign frame version rejected");

  // Trailing garbage: payload_len disagrees with the datagram size but the
  // checksum (over the declared payload) still verifies — only the exact
  // length guard catches it.
  forged = good;
  forged.push_back(0xEE);
  ck.equals(result_of(forged), want(net::WireFrameResult::BadLength),
            "net.frame: trailing garbage rejected");

  forged.assign(good.begin(), good.begin() + net::kWireHeaderSize - 1);
  ck.equals(result_of(forged), want(net::WireFrameResult::TooShort),
            "net.frame: truncated header rejected");

  forged = good;
  forged[0] ^= 0xFF;
  ck.equals(result_of(forged), want(net::WireFrameResult::BadMagic),
            "net.frame: foreign magic rejected");

  ck.finish();
  return out;
}

// ---------------------------------------------------------------------------
// Golden stage: replay the pinned traces and compare bit for bit.
// ---------------------------------------------------------------------------

inline std::string read_golden(const char* file) {
  const std::string path = std::string(SNAPSTAB_GOLDEN_DIR) + "/" + file;
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

inline Outcome run_golden(std::size_t index) {
  Outcome out;
  Check ck(out);
  const auto& sc = golden::scenarios()[index];
  auto sim = sc.run();
  const std::string got = golden::render(*sim);
  const std::string want = read_golden(sc.file);
  ck.require(!want.empty(), std::string("golden: ") + sc.file + " readable");
  ck.require(got == want,
             std::string("golden: ") + sc.file + " replays bit-identically");
  ck.trace(*sim);
  ck.finish();
  return out;
}

// ---------------------------------------------------------------------------
// Fuzz stage: arbitrary initial configurations (I = C).
// ---------------------------------------------------------------------------

inline Outcome run_fuzz_pif(std::uint64_t seed, bool wild) {
  Outcome out;
  Check ck(out);
  auto sim = golden::pif_world(4, 1, seed);
  Rng fuzz_rng(seed * 3 + 1);
  sim::FuzzOptions fo;
  fo.wild_flags = wild;
  sim::fuzz(*sim, fuzz_rng, fo);
  for (int p = 0; p < 4; ++p)
    sim->process_as<svc::ServiceHost>(p).pif().request(
        Value::integer(500 + p));
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
  sim->run(500'000, golden::all_pif_done);
  ck.require(golden::all_pif_done(*sim),
             "fuzz.pif: every broadcast decides from arbitrary state");
  ck.spec(core::check_pif_spec(*sim, {.require_start = false}),
          "fuzz.pif: spec from arbitrary state");
  ck.trace(*sim);
  ck.finish();
  return out;
}

inline Outcome run_fuzz_pif_21() { return run_fuzz_pif(21, false); }
inline Outcome run_fuzz_pif_22() { return run_fuzz_pif(22, false); }
inline Outcome run_fuzz_wild_31() { return run_fuzz_pif(31, true); }
inline Outcome run_fuzz_wild_32() { return run_fuzz_pif(32, true); }

inline Outcome run_fuzz_me(std::uint64_t seed) {
  Outcome out;
  Check ck(out);
  sim::Simulator sim(3, 1, seed);
  core::MeOptions options;
  options.cs_length = 2;
  for (int p = 0; p < 3; ++p)
    sim.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .id = p + 1, .degree = 2, .with_me = true, .me_options = options}));
  Rng fuzz_rng(seed ^ 0xA5Eu);
  sim::fuzz(sim, fuzz_rng);
  // The paper's usage rule: a process requests only while its fuzzed
  // Request is Done (a CS session would otherwise queue behind the ghost).
  svc::Client client(sim);
  for (int p = 0; p < 3; ++p)
    if (sim.process_as<svc::ServiceHost>(p).me().request_state() ==
        core::RequestState::Done)
      client.submit(p, svc::CriticalSection{});
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
  sim.run(120'000);
  ck.spec(core::check_me_spec(sim, {.require_liveness = true}),
          "fuzz.me: mutual exclusion from arbitrary state");
  ck.trace(sim);
  ck.finish();
  return out;
}

inline Outcome run_fuzz_me_41() { return run_fuzz_me(41); }
inline Outcome run_fuzz_me_42() { return run_fuzz_me(42); }

inline Outcome run_fuzz_fwd(std::uint64_t seed) {
  Outcome out;
  Check ck(out);
  auto sim = core::forward_world(sim::Topology::ring(4), 1, seed);
  Rng fuzz_rng(seed * 7 + 5);
  sim::FuzzOptions fo;
  fo.forward_header_n = 4;
  fo.wild_flags = true;
  sim::fuzz(*sim, fuzz_rng, fo);
  const std::uint64_t ghosts = core::forward_ghost_budget(*sim);
  svc::Client client(*sim);
  const auto submit = [&client, seed](sim::ProcessId origin,
                                      sim::ProcessId dst, int base) {
    const Value payload = Value::integer(base + static_cast<int>(seed));
    return client.submit(origin, svc::ForwardMsg{dst, payload}).accepted();
  };
  ck.require(submit(0, 2, 2'000'000), "fuzz.fwd: submit 0->2 accepted");
  ck.require(submit(1, 3, 3'000'000), "fuzz.fwd: submit 1->3 accepted");
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
  sim->run(400'000, [](sim::Simulator&) { return false; });
  ck.spec(core::check_forward_spec(
              *sim, {.require_all_delivered = true,
                     .max_ghost_deliveries = ghosts}),
          "fuzz.fwd: exactly-once within the ghost budget");
  ck.trace(*sim);
  ck.finish();
  return out;
}

inline Outcome run_fuzz_fwd_51() { return run_fuzz_fwd(51); }
inline Outcome run_fuzz_fwd_52() { return run_fuzz_fwd(52); }

// ---------------------------------------------------------------------------
// Chaos stage: a shortened PR-7 fault campaign — crash-restart scrambles and
// garbage bursts on ring(6); after the fault ceases, a fresh broadcast must
// complete and the whole run must satisfy the PIF spec.
// ---------------------------------------------------------------------------

inline Outcome run_chaos_recover(std::uint64_t seed) {
  Outcome out;
  Check ck(out);
  const sim::Topology topo = sim::Topology::ring(6);
  auto sim = svc::service_world(topo, 1, seed, [](sim::ProcessId p) {
    svc::HostConfig cfg;
    cfg.id = p + 1;
    return cfg;
  });
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
  svc::Client client(*sim);

  fault::FaultPlanSpec fs;
  fs.seed = seed;
  fs.horizon = 200;
  fs.min_len = 100;
  fs.max_len = 400;
  fs.crash_windows = 2;
  fs.garbage_windows = 1;
  const fault::FaultPlan plan = fault::FaultPlan::compile(fs, topo);
  fault::Injector injector(plan);

  client.submit(0, svc::PifBroadcast{Value::integer(600)});
  int guard = 0;
  while (!injector.done() && ++guard < 100) {
    const auto reason = sim->run(2'000, [&](sim::Simulator& s) {
      injector.poll(s);
      return injector.done();
    });
    if (reason == sim::Simulator::StopReason::Quiescent)
      client.submit(static_cast<int>(guard) % 6,
                    svc::PifBroadcast{Value::integer(600 + guard)});
  }
  ck.require(injector.done(), "chaos: the fault schedule drains");
  // Snap-stabilization promises correctness for requests *started after the
  // faults cease* — broadcasts disrupted mid-campaign are legitimately
  // abnormal, so the spec window opens here.
  sim->log().clear();
  const auto post = client.submit(1, svc::PifBroadcast{Value::integer(888)});
  const auto res = client.await_all({post}, {.max_steps = 300'000});
  ck.require(res == svc::AwaitResult::Done,
             "chaos: the post-fault broadcast completes");
  ck.spec(core::check_pif_spec(
              *sim, {.require_termination = false, .require_start = false}),
          "chaos: spec over the post-fault window");
  ck.trace(*sim);
  ck.finish();
  return out;
}

inline Outcome run_chaos_61() { return run_chaos_recover(61); }
inline Outcome run_chaos_62() { return run_chaos_recover(62); }

// ---------------------------------------------------------------------------
// The ladder.
// ---------------------------------------------------------------------------

inline Outcome run_golden_0() { return run_golden(0); }
inline Outcome run_golden_1() { return run_golden(1); }
inline Outcome run_golden_2() { return run_golden(2); }
inline Outcome run_golden_3() { return run_golden(3); }
inline Outcome run_golden_4() { return run_golden(4); }
inline Outcome run_golden_5() { return run_golden(5); }
inline Outcome run_golden_6() { return run_golden(6); }

inline const std::vector<KillConfig>& kill_configs() {
  static const std::vector<KillConfig> kConfigs = {
      {"spec.pif.fig1", "spec", run_pif_fig1},
      {"spec.pif.wild_echo", "spec", run_pif_wild_echo},
      {"spec.pif.ghost_echo", "spec", run_pif_ghost_echo},
      {"spec.pif.rand", "spec", run_spec_pif_rand},
      {"spec.pif.loss", "spec", run_spec_pif_loss},
      {"spec.idl.exact", "spec", run_spec_idl_exact},
      {"spec.me.cycle", "spec", run_spec_me_cycle},
      {"spec.me.ghost_privilege", "spec", run_spec_me_ghost_privilege},
      {"spec.svc.reset", "spec", run_spec_svc_reset},
      {"spec.svc.snapshot", "spec", run_spec_svc_snapshot},
      {"spec.svc.election", "spec", run_spec_svc_election},
      {"spec.td.idle_twice", "spec", run_spec_td_idle_twice},
      {"spec.td.asym_idle", "spec", run_spec_td_asym_idle},
      {"spec.td.drift", "spec", run_spec_td_drift},
      {"spec.td.inflight_lie", "spec", run_spec_td_inflight_lie},
      {"spec.td.active_idle", "spec", run_spec_td_active_idle},
      {"spec.fwd.ring", "spec", run_spec_fwd_ring},
      {"spec.sup.breaker", "spec", run_spec_sup_breaker},
      {"spec.sup.probe", "spec", run_spec_sup_probe},
      {"spec.sup.hedge", "spec", run_spec_sup_hedge},
      {"spec.net.frame", "spec", run_spec_net_frame},
      {"golden.pif_rand", "golden", run_golden_0},
      {"golden.pif_loss", "golden", run_golden_1},
      {"golden.pif_rr", "golden", run_golden_2},
      {"golden.pif_fuzz", "golden", run_golden_3},
      {"golden.me_stack", "golden", run_golden_4},
      {"golden.fwd_ring", "golden", run_golden_5},
      {"golden.pif_crash_restart", "golden", run_golden_6},
      {"fuzz.pif.21", "fuzz", run_fuzz_pif_21},
      {"fuzz.pif.22", "fuzz", run_fuzz_pif_22},
      {"fuzz.wild.31", "fuzz", run_fuzz_wild_31},
      {"fuzz.wild.32", "fuzz", run_fuzz_wild_32},
      {"fuzz.me.41", "fuzz", run_fuzz_me_41},
      {"fuzz.me.42", "fuzz", run_fuzz_me_42},
      {"fuzz.fwd.51", "fuzz", run_fuzz_fwd_51},
      {"fuzz.fwd.52", "fuzz", run_fuzz_fwd_52},
      {"chaos.recover.61", "chaos", run_chaos_61},
      {"chaos.recover.62", "chaos", run_chaos_62},
  };
  return kConfigs;
}

}  // namespace snapstab::mutatetest

#endif  // SNAPSTAB_TESTS_MUTATE_SCENARIOS_HPP
