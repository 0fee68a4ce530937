// client.hpp — the driver-side half of the service API.
//
// A Client binds the uniform submit / poll / complete surface to an
// execution backend: the deterministic Simulator or a live::Runtime (the
// mailbox ThreadRuntime or the UDP SocketRuntime). The *same* client
// program runs against any of them — submit typed descriptors, batch-await
// with await_all, read results — which is what lets examples and benches
// be written once (see examples/service_client.cpp).
//
//   svc::Client client(sim);                      // or Client(rt)
//   auto s1 = client.submit(0, svc::PifBroadcast{Value::text("hello")});
//   auto s2 = client.submit(3, svc::ForwardMsg{.dst = 7, .payload = v});
//   client.await_all({s1, s2});                   // AwaitResult::Done
//   client.result(s2).value;                      // the delivery ack
//
// Backend notes:
//   * Simulator: await_all drives the sealed step loop (sim.run with a
//     session-completion stop predicate that stops on session progress:
//     it runs only after a step on which a host completed a session or
//     recorded a forward delivery — StopPolicy{on_progress} — and so stops
//     on exactly the step a per-step check would). Everything is
//     deterministic and adds no RNG draws — a session-driven world replays
//     bit-identically.
//   * live::Runtime: submissions lock the target node; await_all checks
//     the batch once, then maps onto Runtime::run with the same completion
//     predicate, which re-checks it after every node activation (no timer
//     poll). The node threads keep serving between awaits, so a timed-out
//     batch can simply be awaited again with more budget; only shutdown()
//     makes the runtime terminal (and wakes a blocked await at once).
#ifndef SNAPSTAB_SVC_CLIENT_HPP
#define SNAPSTAB_SVC_CLIENT_HPP

#include <chrono>
#include <cstdint>
#include <vector>

#include "live/runtime.hpp"
#include "sim/simulator.hpp"
#include "svc/host.hpp"
#include "svc/service.hpp"

namespace snapstab::svc {

// A value handle on one submitted session. Copyable; poll through the
// Client that issued it. Forwarding sessions carry the matching data the
// client needs to detect the end-to-end delivery at the destination.
struct Session {
  SessionKey key;
  ForwardSubmit admission = ForwardSubmit::Accepted;
  bool coalesced = false;
  sim::ProcessId dst = -1;     // ForwardMsg
  std::uint32_t wire_seq = 0;  // ForwardMsg
  Value payload;               // ForwardMsg

  bool accepted() const noexcept {
    return admission == ForwardSubmit::Accepted;
  }
};

struct AwaitOptions {
  std::uint64_t max_steps = 10'000'000;     // Simulator step budget
  std::chrono::milliseconds timeout{30'000};  // live runtime wall budget
  // Simulator cadence of svc::Supervisor::run_all's pump (its stop
  // predicate). await_all does not read it: it stops on session progress.
  sim::StopPolicy policy{};
};

// Terminal answer of a batch await. `BudgetExhausted` means more budget
// could still finish the batch (steps remain enabled / threads still
// running); `RuntimeDown` means no budget can — the Simulator went
// quiescent with sessions incomplete, or the live runtime was shut down.
// A bare bool would conflate "try a bigger timeout" with "this runtime will
// never answer".
enum class AwaitResult : std::uint8_t { Done, BudgetExhausted, RuntimeDown };

inline constexpr int kAwaitResultCount = 3;

constexpr const char* await_result_name(AwaitResult r) noexcept {
  static_assert(kAwaitResultCount ==
                    static_cast<int>(AwaitResult::RuntimeDown) + 1,
                "new AwaitResult: update kAwaitResultCount and every switch");
  switch (r) {
    case AwaitResult::Done: return "done";
    case AwaitResult::BudgetExhausted: return "budget-exhausted";
    case AwaitResult::RuntimeDown: return "runtime-down";
  }
  return "?";
}

class Client {
 public:
  using CompletionFn = ServiceHost::CompletionFn;

  explicit Client(sim::Simulator& sim) : sim_(&sim) {}
  explicit Client(live::Runtime& rt) : rt_(&rt) {}

  // Typed submit: any descriptor from svc/service.hpp.
  template <typename D>
  Session submit(sim::ProcessId origin, const D& d, CompletionFn cb = {}) {
    return submit_desc(origin, Descriptor::of(d), std::move(cb));
  }
  Session submit_desc(sim::ProcessId origin, const Descriptor& d,
                      CompletionFn cb = {});

  // Uniform Wait / In / Done (the paper's Request variable). Polling a
  // forwarding session is what completes it: the client matches the
  // destination host's delivery record back to the origin's session.
  SessionState state(const Session& s);
  bool done(const Session& s) { return state(s) == SessionState::Done; }
  SessionResult result(const Session& s);
  // Recycles a completed session's host-side record (bulk drivers).
  void release(const Session& s);

  // Batch-await with a terminal reason: runs the backend until every
  // session is Done, the budget runs out, or the runtime can no longer make
  // progress. Simulator: deterministic, stop checked after each step that
  // made session progress (`opts.policy` is not read). Live:
  // wall-clock bounded; a shut-down runtime is polled once.
  AwaitResult await_all(const std::vector<Session>& sessions,
                        AwaitOptions opts = {});

  sim::Simulator* simulator() noexcept { return sim_; }
  live::Runtime* live_runtime() noexcept { return rt_; }
  int process_count() const noexcept {
    return sim_ != nullptr ? sim_->process_count() : rt_->process_count();
  }

 private:
  // Runs `f` on the ServiceHost at `p`: direct for the simulator backend,
  // under the node lock for a live runtime.
  template <typename F>
  auto with_host(sim::ProcessId p, F&& f);
  bool poll_all(const std::vector<Session>& sessions);

  sim::Simulator* sim_ = nullptr;
  live::Runtime* rt_ = nullptr;
};

}  // namespace snapstab::svc

#endif  // SNAPSTAB_SVC_CLIENT_HPP
