#include "sim/scheduler.hpp"

#include "sim/simulator.hpp"

namespace snapstab::sim {

int& LossStreaks::streak(Simulator& sim, int edge) {
  // Streaks are keyed by EdgeId, which only means something within one
  // simulator's topology. When the scheduler is pointed at a different
  // simulator (detected by instance id — addresses can be reused), start
  // the loss adversary fresh rather than letting another world's streaks
  // cap or extend losses on unrelated channels.
  if (sim.instance_id() != last_sim_id_) {
    last_sim_id_ = sim.instance_id();
    counts_.assign(static_cast<std::size_t>(sim.topology().edge_count()), 0);
  }
  return counts_[static_cast<std::size_t>(edge)];
}

RandomScheduler::RandomScheduler(std::uint64_t seed, LossOptions loss)
    : Scheduler(SchedulerKind::Random), rng_(seed), loss_(loss) {}

RoundRobinScheduler::RoundRobinScheduler(std::uint64_t seed, LossOptions loss)
    : Scheduler(SchedulerKind::RoundRobin), rng_(seed), loss_(loss) {}

void RoundRobinScheduler::refill(Simulator& sim) {
  // One synchronous round: every tick-enabled process activates in id order,
  // then every currently non-empty channel transmits once. Loss is sampled
  // when the round is formed, subject to the fair-loss cap.
  for (int k = 0; k < sim.tick_enabled_count(); ++k)
    pending_.push_back(Step::tick(sim.nth_tick_enabled(k)));
  for (int k = 0; k < sim.deliverable_count(); ++k) {
    const EdgeId e = sim.nth_deliverable(k);
    const ProcessId src = sim.topology().edge_src(e);
    const ProcessId dst = sim.topology().edge_dst(e);
    int& streak = streaks_.streak(sim, e);
    if (loss_.rate > 0.0 && streak < loss_.max_consecutive &&
        rng_.chance(loss_.rate)) {
      ++streak;
      pending_.push_back(Step::lose_on(e, src, dst));
    } else {
      streak = 0;
      pending_.push_back(Step::deliver_on(e, src, dst));
    }
  }
  if (!pending_.empty()) ++rounds_;
}

}  // namespace snapstab::sim
