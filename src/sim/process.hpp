// process.hpp — the process abstraction of the paper's model.
//
// A process is a sequential deterministic machine executing guarded actions
// atomically. The simulator activates a process in exactly two ways:
//
//   on_tick(ctx)        — execute every enabled *spontaneous* action (those
//                         whose guard reads only local variables) once, in
//                         the order of their appearance in the protocol text
//                         (the paper's rule for simultaneously enabled
//                         actions);
//   on_message(ctx, ch, m) — execute the receive action for the message at
//                         the head of local channel `ch`, atomically,
//                         including any events it generates.
//
// Context is the capability set an action may use during its atomic step:
// sending messages, emitting observations and (for randomized baselines)
// drawing random bits. Everything else — including the decision of *when* a
// process is activated — belongs to the scheduler.
//
// Context is a concrete final class with a tagged backend: bound to a
// Simulator it calls straight into the engine (every method inlines — the
// simulator's step loop pays no virtual dispatch for the millions of
// send/observe/rng calls of a bulk run); bound to a ContextBackend it
// forwards through one virtual hop (the thread runtime, external hosts).
// The sim-path method bodies live at the bottom of sim/simulator.hpp —
// translation units that *call* Context methods must include it.
#ifndef SNAPSTAB_SIM_PROCESS_HPP
#define SNAPSTAB_SIM_PROCESS_HPP

#include <cstdint>

#include "common/rng.hpp"
#include "msg/message.hpp"
#include "sim/observation.hpp"

namespace snapstab::sim {

class Simulator;

// Host interface for contexts not bound to a Simulator. Implemented by the
// thread runtime's per-node context and by any external execution harness;
// the semantics of each method are those documented on Context below.
class ContextBackend {
 public:
  virtual ~ContextBackend() = default;
  virtual int degree() const = 0;
  virtual bool send(int channel_index, const Message& m) = 0;
  virtual void observe(Layer layer, ObsKind kind, int peer,
                       const Value& value) = 0;
  virtual Rng& rng() = 0;
  virtual std::uint64_t now() const = 0;
};

class Context final {
 public:
  // Sim backend: bound to (simulator, acting process) for one atomic step.
  Context(Simulator& sim, ProcessId self) noexcept
      : sim_(&sim), self_(self) {}
  // Generic backend (thread runtime, external hosts).
  explicit Context(ContextBackend& backend) noexcept : backend_(&backend) {}

  // Number of incident channels (n - 1 in the fully-connected topology).
  int degree() const;

  // Send `m` over local channel `channel_index` (0-based). If the channel is
  // full the message is lost, per the bounded-capacity model. Returns
  // whether the channel accepted the message — the paper's protocols are
  // fire-and-forget and ignore it; application layers (e.g. the diffusing
  // computations observed by the termination detector) may use it as
  // backpressure. An accepted message can still be lost by the adversary.
  bool send(int channel_index, const Message& m);

  // Emit a protocol-level event; `peer` is a local channel index or -1
  // (the forwarding-service events use it for a global process id — see
  // sim/observation.hpp).
  void observe(Layer layer, ObsKind kind, int peer, const Value& value);

  // Random bits for randomized protocols (seeded per process).
  Rng& rng();

  // Current global step number (never used by the protocols themselves —
  // only by observers; protocol determinism is required for replay).
  std::uint64_t now() const;

  // Marks this step as one that may satisfy a progress-gated stop predicate
  // (StopPolicy::on_progress): svc's ServiceHost calls it when a session
  // completes or a forward delivery is recorded. Bound to a Simulator it
  // sets one flag; on a ContextBackend it does nothing (the live runtimes
  // re-check their predicate after every activation anyway).
  void progress();

 private:
  Simulator* sim_ = nullptr;
  ProcessId self_ = -1;
  ContextBackend* backend_ = nullptr;
};

class Process {
 public:
  virtual ~Process() = default;

  Process() = default;
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  virtual void on_tick(Context& ctx) = 0;
  virtual void on_message(Context& ctx, int channel_index,
                          const Message& m) = 0;

  // True when at least one spontaneous action is enabled; lets schedulers
  // skip no-op activations and detect quiescence.
  virtual bool tick_enabled() const = 0;

  // True while the process is busy in its critical section: the scheduler
  // will not deliver messages to it (a process executes at most one atomic
  // action at a time; a long CS models a slow process between receipts).
  virtual bool busy() const { return false; }

  // Fuzz hook: redraw every protocol variable uniformly over its declared
  // domain — the paper's arbitrary initial configuration.
  virtual void randomize(Rng& rng) = 0;

  // The fault engine's crash-restart: by default the plain arbitrary-state
  // scramble. A process that also holds driver-facing state (svc's
  // ServiceHost fails its live sessions) overrides it.
  virtual void crash_restart(Rng& rng) { randomize(rng); }
};

}  // namespace snapstab::sim

#endif  // SNAPSTAB_SIM_PROCESS_HPP
