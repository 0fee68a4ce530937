#include "sim/simulator.hpp"

#include <atomic>

#include "common/check.hpp"

namespace snapstab::sim {

namespace {

std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Simulator::Simulator(Topology topology, std::size_t channel_capacity,
                     std::uint64_t seed)
    : instance_id_(next_instance_id()),
      pool_(&current_string_pool()),
      network_(std::move(topology), channel_capacity) {
  const int n = network_.process_count();
  Rng seeder(seed);
  processes_.reserve(static_cast<std::size_t>(n));
  process_rngs_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    process_rngs_.push_back(seeder.fork(static_cast<std::uint64_t>(i) + 1));

  tick_set_.reset(n);
  deliverable_set_.reset(network_.edge_count());
  busy_bit_.assign(static_cast<std::size_t>(n), 0);
  for (EdgeId e = 0; e < network_.edge_count(); ++e)
    network_.edge_channel(e).bind_listener(this, e);
}

Simulator::Simulator(int process_count, std::size_t channel_capacity,
                     std::uint64_t seed)
    : Simulator(Topology::complete(process_count), channel_capacity, seed) {}

void Simulator::add_process(std::unique_ptr<Process> p) {
  SNAPSTAB_CHECK(p != nullptr);
  SNAPSTAB_CHECK_MSG(
      processes_.size() < static_cast<std::size_t>(network_.process_count()),
      "more processes than network endpoints");
  processes_.push_back(std::move(p));
  refresh_process(static_cast<ProcessId>(processes_.size()) - 1);
}

Process& Simulator::process(ProcessId p) {
  SNAPSTAB_CHECK(p >= 0 && static_cast<std::size_t>(p) < processes_.size());
  return *processes_[static_cast<std::size_t>(p)];
}

const Process& Simulator::process(ProcessId p) const {
  SNAPSTAB_CHECK(p >= 0 && static_cast<std::size_t>(p) < processes_.size());
  return *processes_[static_cast<std::size_t>(p)];
}

void Simulator::set_scheduler(std::unique_ptr<Scheduler> s) {
  scheduler_ = std::move(s);
}

void Simulator::channel_transition(int tag, bool) {
  refresh_deliverable(tag);
}

void Simulator::refresh_deliverable(EdgeId e) {
  const ProcessId dst = network_.topology().edge_dst(e);
  deliverable_set_.set(e, network_.edge_nonempty(e) &&
                              busy_bit_[static_cast<std::size_t>(dst)] == 0);
}

void Simulator::refresh_process(ProcessId p) {
  // Uninstalled processes are neither tickable nor busy.
  const bool installed = static_cast<std::size_t>(p) < processes_.size();
  tick_set_.set(p, installed && processes_[static_cast<std::size_t>(p)]
                                    ->tick_enabled());

  const bool busy = installed && processes_[static_cast<std::size_t>(p)]->busy();
  char& busy_bit = busy_bit_[static_cast<std::size_t>(p)];
  if (busy != (busy_bit != 0)) {
    busy_bit = busy ? 1 : 0;
    // The busy flag gates delivery on every incident in-edge.
    const Topology& topo = network_.topology();
    for (int k = 0; k < topo.degree(p); ++k)
      refresh_deliverable(topo.in_edge(p, k));
  }
}

void Simulator::reconcile_enabled_index() {
  for (ProcessId p = 0; p < network_.process_count(); ++p) refresh_process(p);
}

EdgeId Simulator::step_edge(const Step& step) const {
  const Topology& topo = network_.topology();
  if (step.edge >= 0) {
    // The producer's claim must match the endpoints — a mismatched edge
    // would silently address another channel.
    SNAPSTAB_CHECK_MSG(topo.edge_src(step.edge) == step.src &&
                           topo.edge_dst(step.edge) == step.target,
                       "Step.edge does not connect (src, target)");
    return step.edge;
  }
  return topo.edge_between(step.src, step.target);
}

bool Simulator::execute(const Step& step) {
  SNAPSTAB_CHECK_MSG(
      processes_.size() == static_cast<std::size_t>(network_.process_count()),
      "install all processes before stepping");
  return execute_step(step);
}

bool Simulator::execute_step(const Step& step) {
  ++metrics_.steps;
  // One branch hoists recording out of the per-kind paths, which stay
  // straight-line in the common (non-recording) executions.
  if (recording_) return execute_impl<true>(step);
  return execute_impl<false>(step);
}

template <bool Recording>
bool Simulator::execute_impl(const Step& step) {
  switch (step.kind) {
    case StepKind::Tick: {
      Process& p = process(step.target);
      ++metrics_.ticks;
      Context ctx(*this, step.target);
      p.on_tick(ctx);
      refresh_process(step.target);
      if constexpr (Recording)
        recorded_activations_[static_cast<std::size_t>(step.target)].push_back(
            Activation{StepKind::Tick, -1, Message{}});
      return true;
    }
    case StepKind::Deliver: {
      const EdgeId e = step_edge(step);
      Channel& ch = network_.edge_channel(e);
      if (ch.empty()) return false;
      const Message msg = ch.pop();  // flat copy, no optional wrapper
      Process& p = process(step.target);
      SNAPSTAB_CHECK_MSG(!p.busy(),
                         "scheduler delivered to a process busy in its CS");
      ++metrics_.deliveries;
      const int index = network_.topology().edge_index_at_dst(e);
      if constexpr (Recording) {
        recorded_activations_[static_cast<std::size_t>(step.target)].push_back(
            Activation{StepKind::Deliver, index, msg});
        recorded_deliveries_[static_cast<std::size_t>(e)].push_back(msg);
      }
      Context ctx(*this, step.target);
      p.on_message(ctx, index, msg);
      refresh_process(step.target);
      return true;
    }
    case StepKind::Lose: {
      Channel& ch = network_.edge_channel(step_edge(step));
      if (!ch.drop_head()) return false;  // empty: the drop misses, no count
      ++metrics_.adversary_losses;
      return true;
    }
  }
  return false;
}

template <typename Sched>
Simulator::StopReason Simulator::run_loop(
    Sched& sched, std::uint64_t max_steps,
    const std::function<bool(Simulator&)>& stop, StopPolicy policy) {
  if (!stop) {
    for (std::uint64_t i = 0; i < max_steps; ++i) {
      Step step;
      if (!sched.next_step(*this, step)) return StopReason::Quiescent;
      execute_step(step);
    }
    return StopReason::BudgetExhausted;
  }

  const std::uint64_t every = policy.check_every == 0 ? 1 : policy.check_every;
  std::uint64_t until_check = every;
  for (std::uint64_t i = 0; i < max_steps; ++i) {
    Step step;
    if (!sched.next_step(*this, step)) return StopReason::Quiescent;
    execute_step(step);
    if (policy.on_progress) {
      if (!progress_) continue;
      progress_ = false;  // before stop(): a check may raise it for the next
    } else if (--until_check != 0) {
      continue;
    } else {
      until_check = every;
    }
    if (stop(*this)) return StopReason::Predicate;
    // Stop predicates may mutate process state (e.g. submit the next
    // request once the previous one decided), and they hold plain
    // references to the processes — no dirty flag can observe that. The
    // O(n) re-read per check is the price of an exact index under
    // predicate-driven runs; predicate-free runs stay on the O(log n)
    // path, and StopPolicy amortizes it: check_every for bulk runs,
    // on_progress for session awaits.
    reconcile_enabled_index();
  }
  return StopReason::BudgetExhausted;
}

Simulator::StopReason Simulator::run(
    std::uint64_t max_steps, const std::function<bool(Simulator&)>& stop,
    StopPolicy policy) {
  SNAPSTAB_CHECK_MSG(scheduler_ != nullptr, "no scheduler installed");
  // The sealed loop skips execute()'s per-step install check, so misuse
  // must trap here: a partially-installed world would otherwise run as a
  // plausible-looking smaller system (missing processes are neither
  // tickable nor busy to the enabled index).
  SNAPSTAB_CHECK_MSG(
      processes_.size() == static_cast<std::size_t>(network_.process_count()),
      "install all processes before stepping");
  // Text payloads created by protocol code during this run intern into the
  // simulator's pool, wherever the driving thread came from.
  ScopedStringPool pool_scope(*pool_);
  // Process state may have been mutated since the last step (new requests,
  // fuzzed variables, adversary strikes) — resynchronize the index once.
  reconcile_enabled_index();
  progress_ = false;
  if (stop) {
    if (stop(*this)) return StopReason::Predicate;
    reconcile_enabled_index();
  }
  // Seal the loop on the installed scheduler's concrete type: non-virtual
  // next_step, steps delivered with their EdgeId attached.
  switch (scheduler_->kind()) {
    case SchedulerKind::Random:
      return run_loop(static_cast<RandomScheduler&>(*scheduler_), max_steps,
                      stop, policy);
    case SchedulerKind::RoundRobin:
      return run_loop(static_cast<RoundRobinScheduler&>(*scheduler_),
                      max_steps, stop, policy);
    case SchedulerKind::Scripted:
      break;
  }
  return run_loop(static_cast<ScriptedScheduler&>(*scheduler_), max_steps,
                  stop, policy);
}

void Simulator::enable_recording() {
  recording_ = true;
  recorded_activations_.assign(
      static_cast<std::size_t>(network_.process_count()), {});
  recorded_deliveries_.assign(static_cast<std::size_t>(network_.edge_count()),
                              {});
}

const std::vector<Activation>& Simulator::activations(ProcessId p) const {
  SNAPSTAB_CHECK(recording_);
  return recorded_activations_[static_cast<std::size_t>(p)];
}

const std::vector<Message>& Simulator::delivered(ProcessId src,
                                                 ProcessId dst) const {
  SNAPSTAB_CHECK(recording_);
  return recorded_deliveries_[static_cast<std::size_t>(
      network_.topology().edge_between(src, dst))];
}

}  // namespace snapstab::sim
