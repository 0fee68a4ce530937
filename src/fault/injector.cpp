#include "fault/injector.hpp"

#include <algorithm>

namespace snapstab::fault {

namespace {

// One `fault` observation per window open: the golden crash-restart trace
// pins window application itself, not just its downstream effects. The
// value carries the kind's ordinal; the peer the target edge (or -1).
void emit_fault(sim::Simulator& sim, const FaultWindow& w) {
  sim.log().emit(sim::Observation{
      sim.step_count(), w.process, sim::Layer::Service, sim::ObsKind::Fault,
      w.edge, Value::integer(static_cast<std::int64_t>(w.kind))});
}

}  // namespace

void Injector::scramble_process(sim::Simulator& sim, sim::ProcessId p) {
  sim.process(p).crash_restart(rng_);
  ++counters_.crashes;
}

void Injector::garbage_fill(sim::Simulator& sim, sim::EdgeId e) {
  sim::Channel& ch = sim.network().edge_channel(e);
  ch.clear();
  const std::size_t count =
      ch.unbounded() ? 1 + rng_.below(3) : 1 + rng_.below(ch.capacity());
  const int fwd_n = plan_->forward_header_n();
  for (std::size_t i = 0; i < count; ++i)
    ch.push(fwd_n > 0
                ? Message::random_forward(rng_, plan_->flag_limit(), fwd_n)
                : Message::random(rng_, plan_->flag_limit()));
  ++counters_.garbage_bursts;
}

void Injector::open_window(sim::Simulator& sim, std::uint32_t idx) {
  const FaultWindow& w = plan_->windows()[idx];
  emit_fault(sim, w);
  switch (w.kind) {
    case FaultKind::CrashRestart:
      scramble_process(sim, w.process);
      break;
    case FaultKind::ChannelGarbage:
      garbage_fill(sim, w.edge);
      break;
    case FaultKind::EdgeLoss:
    case FaultKind::EdgeDuplicate:
      break;  // per-poll probabilistic effects only (apply_active)
    case FaultKind::LinkPartition:
    case FaultKind::LinkDown:
      (void)apply_active(sim, idx);  // wipe immediately
      break;
  }
}

int Injector::apply_active(sim::Simulator& sim, std::uint32_t idx) {
  const FaultWindow& w = plan_->windows()[idx];
  switch (w.kind) {
    case FaultKind::CrashRestart:
      // The process stays down for the window: every poll re-scrambles, so
      // no coherent recovery can begin before the window closes.
      scramble_process(sim, w.process);
      return 1;
    case FaultKind::ChannelGarbage:
      if (rng_.chance(w.rate)) {
        garbage_fill(sim, w.edge);
        return 1;
      }
      return 0;
    case FaultKind::EdgeLoss:
      if (rng_.chance(w.rate) &&
          sim.network().edge_channel(w.edge).drop_head()) {
        ++counters_.drops;
        return 1;
      }
      return 0;
    case FaultKind::EdgeDuplicate: {
      sim::Channel& ch = sim.network().edge_channel(w.edge);
      if (rng_.chance(w.rate) && !ch.empty() && ch.push(ch.peek())) {
        ++counters_.duplicates;
        return 1;
      }
      return 0;
    }
    case FaultKind::LinkPartition: {
      // Wipe everything in flight across the cut, both directions.
      int wiped = 0;
      const sim::Topology& topo = sim.topology();
      for (sim::EdgeId e = 0; e < topo.edge_count(); ++e) {
        const bool src_a = (w.partition_mask >> topo.edge_src(e)) & 1u;
        const bool dst_a = (w.partition_mask >> topo.edge_dst(e)) & 1u;
        if (src_a == dst_a) continue;
        sim::Channel& ch = sim.network().edge_channel(e);
        if (ch.empty()) continue;
        counters_.partition_wipes += ch.size();
        ch.clear();
        ++wiped;
      }
      return wiped;
    }
    case FaultKind::LinkDown: {
      // The edge is fully dead while the window is open: every poll wipes
      // whatever arrived since the last one.
      sim::Channel& ch = sim.network().edge_channel(w.edge);
      if (ch.empty()) return 0;
      counters_.down_wipes += ch.size();
      ch.clear();
      return 1;
    }
  }
  return 0;
}

int Injector::poll(sim::Simulator& sim) {
  if (done()) return 0;
  // Garbage refills may intern text payloads: they belong to the victim
  // simulator's pool (same rule as sim::Adversary::strike).
  ScopedStringPool pool_scope(sim.string_pool());
  const std::uint64_t now = sim.step_count();
  int applied = 0;

  // Advance the event cursor: close windows whose span has passed, collect
  // the ones opening at this poll (they take their opening burst exactly
  // once; already-open windows take their continued per-poll effects).
  std::vector<std::uint32_t> opened;
  const auto& events = plan_->events();
  while (cursor_ < events.size() && events[cursor_].step <= now) {
    const FaultPlan::Event ev = events[cursor_++];
    if (ev.open) {
      active_.push_back(ev.window);
      opened.push_back(ev.window);
    } else {
      const auto it = std::find(active_.begin(), active_.end(), ev.window);
      if (it != active_.end()) active_.erase(it);
      // An opened-and-closed-within-one-poll window still fires its burst.
    }
  }
  for (const std::uint32_t idx : active_) {
    if (std::find(opened.begin(), opened.end(), idx) != opened.end()) {
      open_window(sim, idx);
      ++applied;
    } else {
      applied += apply_active(sim, idx);
    }
  }
  // Windows whose whole span fell between two polls (coarse check_every):
  // the burst must not be skipped, or the plan would silently thin out.
  for (const std::uint32_t idx : opened) {
    if (std::find(active_.begin(), active_.end(), idx) == active_.end()) {
      open_window(sim, idx);
      ++applied;
    }
  }
  return applied;
}

}  // namespace snapstab::fault
