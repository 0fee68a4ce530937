// micro_bench — google-benchmark microbenchmarks for the hot paths:
// simulator stepping, codec round trips, full PIF computations and ME
// grants as a function of n. These are throughput numbers for the
// *implementation* (the experiment tables live in the exp_* binaries).
#include <benchmark/benchmark.h>

#include <memory>

#include "msg/codec.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "svc/host.hpp"

namespace snapstab {
namespace {

// --- message hot path (the BENCH_msg_hotpath.json trio) --------------------
// Channel push / pop / per-message step with a text payload. Pre-PR these
// moved std::variant Values owning heap std::strings through std::deque
// nodes; now they move one flat 48-byte trivially-copyable Message whose
// text is an interned 4-byte StrId — zero allocations, zero indirections.

Message hot_message() {
  return Message::pif(Value::text("How old are you?"),
                      Value::text("stale-feedback"), 3, 2);
}

// push: fill a capacity-256 channel (the drain between fills rides along at
// 1/256 of the op count).
void BM_ChannelPush(benchmark::State& state) {
  sim::Channel ch(256);
  const Message m = hot_message();
  std::uint64_t ops = 0;
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) ch.push(m);
    ch.clear();
    ops += 256;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_ChannelPush);

// pop: drain a prefilled capacity-256 channel (refill rides along).
void BM_ChannelPop(benchmark::State& state) {
  sim::Channel ch(256);
  const Message m = hot_message();
  std::uint64_t ops = 0;
  std::int64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) ch.push(m);
    for (int i = 0; i < 256; ++i) sink += ch.pop().state;
    ops += 256;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_ChannelPop);

// step: the per-message step of the delivery pipeline — one message enters
// and leaves a capacity-1 channel, the empty↔nonempty transition hooks
// firing both ways (as they do under the simulator's enabled-step index).
void BM_ChannelStep(benchmark::State& state) {
  class CountingListener final : public sim::ChannelListener {
   public:
    void channel_transition(int, bool) override { ++transitions; }
    std::uint64_t transitions = 0;
  };
  CountingListener listener;
  sim::Channel ch(1);
  ch.bind_listener(&listener, 0);
  const Message m = hot_message();
  std::int64_t sink = 0;
  for (auto _ : state) {
    ch.push(m);
    sink += ch.pop().state;
  }
  benchmark::DoNotOptimize(sink);
  benchmark::DoNotOptimize(listener.transitions);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChannelStep);

void BM_CodecEncode(benchmark::State& state) {
  const Message m = Message::pif(Value::text("How old are you?"),
                                 Value::integer(42), 3, 2);
  for (auto _ : state) {
    auto bytes = encode(m);
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_CodecEncode);

void BM_CodecDecode(benchmark::State& state) {
  const auto bytes = encode(Message::pif(Value::text("How old are you?"),
                                         Value::integer(42), 3, 2));
  for (auto _ : state) {
    auto m = decode(bytes);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_CodecDecode);

// Full simulator steps under a text-payload ping workload. Unlike the trio
// above this includes the engine floor (scheduler draw, enabled-index
// maintenance, activation dispatch), which the zero-allocation message path
// does not touch; the sealed step loop (BENCH_engine_floor.json) attacks
// exactly that floor.
void BM_SimulatorStepTextPing(benchmark::State& state) {
  class TextPing final : public sim::Process {
   public:
    void on_tick(sim::Context& ctx) override {
      const int d = ctx.degree();
      ctx.send(
          static_cast<int>(ctx.rng().below(static_cast<std::uint64_t>(d))),
          msg_);
    }
    void on_message(sim::Context&, int, const Message&) override {}
    bool tick_enabled() const override { return true; }
    void randomize(Rng&) override {}

   private:
    const Message msg_ = hot_message();
  };
  const int n = static_cast<int>(state.range(0));
  sim::Simulator world(n, 1, 42);
  for (int p = 0; p < n; ++p) world.add_process(std::make_unique<TextPing>());
  world.set_scheduler(std::make_unique<sim::RandomScheduler>(42));
  std::uint64_t steps = 0;
  for (auto _ : state) {
    world.run(1024);
    steps += 1024;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_SimulatorStepTextPing)->Arg(16);

// --- engine floor (the BENCH_engine_floor.json set) ------------------------
// The cost of one simulator step with the protocol work removed, plus a
// breakdown trio (scheduler draw / execute / observation emit) so a future
// regression shows up in the guilty component, not just the total.

class NoopProcess final : public sim::Process {
 public:
  void on_tick(sim::Context&) override {}
  void on_message(sim::Context&, int, const Message&) override {}
  bool tick_enabled() const override { return true; }
  void randomize(Rng&) override {}
};

void install_noop_processes(sim::Simulator& world, int n) {
  for (int p = 0; p < n; ++p)
    world.add_process(std::make_unique<NoopProcess>());
}

// The whole floor: sealed scheduler draw + execute dispatch + concrete
// Context + enabled-index upkeep, with empty protocol actions.
void BM_EngineFloorNoopStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulator world(n, 1, 42);
  install_noop_processes(world, n);
  world.set_scheduler(std::make_unique<sim::RandomScheduler>(42));
  std::uint64_t steps = 0;
  for (auto _ : state) {
    world.run(1024);
    steps += 1024;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_EngineFloorNoopStep)->Arg(16);

// Breakdown 1/3 — scheduler draw only: the sealed non-virtual next_step
// against a static all-ticks-enabled world (nothing executes, so every draw
// sees the same index state).
void BM_EngineFloorSchedulerDraw(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulator world(n, 1, 42);
  install_noop_processes(world, n);
  world.reconcile_enabled_index();
  sim::RandomScheduler sched(42);
  sim::Step step;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.next_step(world, step));
    benchmark::DoNotOptimize(step);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineFloorSchedulerDraw)->Arg(16);

// Breakdown 2/3 — execute only: scripted tick steps straight into
// execute(), no scheduler in the loop.
void BM_EngineFloorExecuteTick(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulator world(n, 1, 42);
  install_noop_processes(world, n);
  int i = 0;
  for (auto _ : state) {
    world.execute(sim::Step::tick(i));
    i = (i + 1 == n) ? 0 : i + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineFloorExecuteTick)->Arg(16);

// Breakdown 3/3 — observation emit only: the concrete Context's sim
// backend appending to the log (cleared in batches to bound memory).
void BM_EngineFloorObserveEmit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulator world(n, 1, 42);
  install_noop_processes(world, n);
  sim::Context ctx(world, 0);
  const Value v = Value::integer(7);
  for (auto _ : state) {
    ctx.observe(sim::Layer::Pif, sim::ObsKind::Start, -1, v);
    if (world.log().size() >= 8192) world.log().clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineFloorObserveEmit)->Arg(16);

// --- service API overhead (the BENCH_svc_api.json pair) --------------------
// One full PIF computation per iteration, driven two ways over the same
// world: a raw layer poke (host.pif().request) + done() poll, and a svc
// session (submit -> await_all -> release). Items = engine steps executed,
// so the ns/item difference is the per-step tax of the session machinery.
// The raw path checks its predicate after every step; await_all checks only
// after steps that made session progress, so the tax is negative.

void BM_RawRequestPifCycle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulator world(n, 1, 42);
  for (int p = 0; p < n; ++p)
    world.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = n - 1}));
  world.set_scheduler(std::make_unique<sim::RandomScheduler>(42));
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const std::uint64_t before = world.step_count();
    world.process_as<svc::ServiceHost>(0).pif().request(Value::integer(7));
    world.run(5'000'000, [](sim::Simulator& s) {
      return s.process_as<svc::ServiceHost>(0).pif().done();
    });
    steps += world.step_count() - before;
    if (world.log().size() >= (1u << 20)) world.log().clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_RawRequestPifCycle)->Arg(16);

void BM_SessionSubmitPoll(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulator world(n, 1, 42);
  for (int p = 0; p < n; ++p)
    world.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = n - 1}));
  world.set_scheduler(std::make_unique<sim::RandomScheduler>(42));
  svc::Client client(world);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const std::uint64_t before = world.step_count();
    const svc::Session s =
        client.submit(0, svc::PifBroadcast{Value::integer(7)});
    client.await_all({s});
    client.release(s);
    steps += world.step_count() - before;
    if (world.log().size() >= (1u << 20)) world.log().clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_SessionSubmitPoll)->Arg(16);

// Session recycling steady state (the BENCH_load.json pair): the same
// submit -> await_all -> release PIF cycle as BM_SessionSubmitPoll, but
// after Arg(0) vs Arg(~10^6) sessions have already been churned through the
// host. The slot arena recycles released sessions through a free list, so
// the per-step cost must be flat in the churn count — a regression here
// means session storage started scaling O(total) instead of O(live).
void BM_SessionRecycleSteadyState(benchmark::State& state) {
  const int n = 4;
  auto world_ptr = svc::service_world(
      sim::Topology::complete(n), 1, 42,
      [](sim::ProcessId p) {
        svc::HostConfig cfg;
        cfg.id = p + 1;
        return cfg;
      },
      /*with_forward=*/true);
  sim::Simulator& world = *world_ptr;
  world.set_scheduler(std::make_unique<sim::RandomScheduler>(42));
  svc::Client client(world);
  // Pre-churn: a ForwardMsg to a nonexistent destination is refused at
  // submit (born Done, zero engine steps), so each iteration still
  // allocates and releases one real session record.
  for (std::int64_t i = 0; i < state.range(0); ++i)
    client.release(client.submit(0, svc::ForwardMsg{.dst = 99'999,
                                                    .payload = Value::none()}));
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const std::uint64_t before = world.step_count();
    const svc::Session s =
        client.submit(0, svc::PifBroadcast{Value::integer(7)});
    client.await_all({s});
    client.release(s);
    steps += world.step_count() - before;
    if (world.log().size() >= (1u << 20)) world.log().clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_SessionRecycleSteadyState)->Arg(0)->Arg(1'000'000);

void BM_SimulatorStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulator world(n, 1, 1);
  for (int i = 0; i < n; ++i)
    world.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = n - 1}));
  world.set_scheduler(std::make_unique<sim::RandomScheduler>(2));
  world.process_as<svc::ServiceHost>(0).pif().request(Value::integer(7));
  std::uint64_t steps = 0;
  for (auto _ : state) {
    world.run(1);
    ++steps;
    // Keep the system busy: re-request once the computation finishes.
    if (world.process_as<svc::ServiceHost>(0).pif().done())
      world.process_as<svc::ServiceHost>(0).pif().request(Value::integer(7));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_SimulatorStep)->Arg(2)->Arg(8)->Arg(32);

void BM_PifComputation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::Simulator world(n, 1, seed);
    for (int i = 0; i < n; ++i)
      world.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
          .degree = n - 1}));
    world.set_scheduler(std::make_unique<sim::RandomScheduler>(seed++));
    world.process_as<svc::ServiceHost>(0).pif().request(Value::integer(1));
    world.run(5'000'000, [](sim::Simulator& s) {
      return s.process_as<svc::ServiceHost>(0).pif().done();
    });
  }
}
BENCHMARK(BM_PifComputation)->Arg(2)->Arg(8)->Arg(32);

void BM_PifComputationCorrupted(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::Simulator world(n, 1, seed);
    for (int i = 0; i < n; ++i)
      world.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
          .degree = n - 1}));
    Rng rng(seed * 3);
    sim::fuzz(world, rng);
    world.set_scheduler(std::make_unique<sim::RandomScheduler>(seed++));
    world.process_as<svc::ServiceHost>(0).pif().request(Value::integer(1));
    world.run(5'000'000, [](sim::Simulator& s) {
      return s.process_as<svc::ServiceHost>(0).pif().done();
    });
  }
}
BENCHMARK(BM_PifComputationCorrupted)->Arg(2)->Arg(8);

void BM_MeGrant(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulator world(n, 1, 5);
  for (int i = 0; i < n; ++i)
    world.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .id = i + 1, .degree = n - 1, .with_me = true}));
  world.set_scheduler(std::make_unique<sim::RandomScheduler>(6));
  int target = 0;
  for (auto _ : state) {
    world.process_as<svc::ServiceHost>(target).me().request_cs();
    world.run(50'000'000, [target](sim::Simulator& s) {
      return s.process_as<svc::ServiceHost>(target).me().request_state() ==
             core::RequestState::Done;
    });
    target = (target + 1) % n;
  }
}
BENCHMARK(BM_MeGrant)->Arg(2)->Arg(4);

void BM_FuzzWorld(benchmark::State& state) {
  sim::Simulator world(8, 1, 1);
  for (int i = 0; i < 8; ++i)
    world.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .id = i + 1, .degree = 7, .with_me = true}));
  Rng rng(9);
  for (auto _ : state) sim::fuzz(world, rng);
}
BENCHMARK(BM_FuzzWorld);

}  // namespace
}  // namespace snapstab

BENCHMARK_MAIN();
