#include "fault/runtime_injector.hpp"

#include <signal.h>

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "msg/strpool.hpp"

namespace snapstab::fault {

RuntimeInjector::RuntimeInjector(const FaultPlan& plan, live::Runtime& rt,
                                 RuntimeInjectorOptions options)
    : plan_(&plan),
      rt_(&rt),
      options_(options),
      rng_(plan.seed() ^ 0xFA17FA17FA17FA17ull) {
  SNAPSTAB_CHECK_MSG(options_.step_duration.count() > 0,
                     "step_duration must be positive");
}

void RuntimeInjector::set_node_pid(int node, ::pid_t pid) {
  SNAPSTAB_CHECK_MSG(!thread_.joinable(),
                     "register node pids before start()");
  node_pids_[node] = pid;
}

RuntimeInjector::~RuntimeInjector() { stop(); }

void RuntimeInjector::start() {
  SNAPSTAB_CHECK_MSG(!thread_.joinable(), "injector already started");
  if (plan_->empty()) {
    finish();
    return;
  }
  thread_ = std::thread([this] { thread_main(); });
}

void RuntimeInjector::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Filters persist until cleared; an early stop() must still mean "the
  // fault has ceased", so disarm whatever windows were mid-flight.
  rt_->clear_edge_faults();
}

void RuntimeInjector::crash(sim::ProcessId p) {
  rt_->with_process<sim::Process>(p, [this](sim::Process& proc) {
    proc.crash_restart(rng_);
    return 0;
  });
  ++counters_.crashes;
}

// A burst of random messages in channel `e` — the in-channel garbage of the
// paper's fault model. A full mailbox loses the excess, like any send.
void RuntimeInjector::garbage(sim::EdgeId e) {
  const std::size_t count = 1 + rng_.below(3);
  const int fwd_n = plan_->forward_header_n();
  for (std::size_t i = 0; i < count; ++i)
    rt_->inject(e, fwd_n > 0 ? Message::random_forward(
                                   rng_, plan_->flag_limit(), fwd_n)
                             : Message::random(rng_, plan_->flag_limit()));
  ++counters_.garbage_bursts;
}

bool RuntimeInjector::wait_done(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, timeout, [this] { return done(); });
}

void RuntimeInjector::finish() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  rt_->notify_progress();
}

// Filter windows are re-asserted every poll (cheap atomic stores), so
// overlapping windows self-heal after one of them closes and clears the
// edge: the clear is at worst one poll_interval too wide.
void RuntimeInjector::apply_window(const FaultWindow& w, Phase phase) {
  const bool opening = phase == Phase::Open;
  const bool arm = phase != Phase::Close;
  const sim::Topology& topo = rt_->topology();
  switch (w.kind) {
    case FaultKind::CrashRestart: {
      if (!arm) break;
      if (rt_->hosts(w.process)) {
        // Every poll re-scrambles: the process stays down for the window.
        crash(w.process);
        break;
      }
      const auto it = node_pids_.find(w.process);
      if (it != node_pids_.end() && opening &&
          ::kill(it->second, SIGKILL) == 0)
        ++counters_.process_kills;
      break;
    }
    case FaultKind::ChannelGarbage:
      if (arm && (opening || rng_.chance(w.rate))) garbage(w.edge);
      break;
    case FaultKind::EdgeLoss:
      rt_->set_edge_drop(w.edge, arm ? w.rate : 0.0);
      if (opening) ++counters_.drops;
      break;
    case FaultKind::EdgeDuplicate:
      rt_->set_edge_duplicate(w.edge, arm ? w.rate : 0.0);
      if (opening) ++counters_.duplicates;
      break;
    case FaultKind::LinkPartition:
      for (sim::EdgeId e = 0; e < topo.edge_count(); ++e) {
        const bool src_a = (w.partition_mask >> topo.edge_src(e)) & 1u;
        const bool dst_a = (w.partition_mask >> topo.edge_dst(e)) & 1u;
        if (src_a == dst_a) continue;
        rt_->set_edge_down(e, arm);
        if (opening) ++counters_.partition_wipes;
      }
      break;
    case FaultKind::LinkDown:
      rt_->set_edge_down(w.edge, arm);
      if (opening) ++counters_.down_wipes;
      break;
  }
}

void RuntimeInjector::thread_main() {
  // Garbage payloads intern into the runtime's pool, same rule as every
  // node thread.
  ScopedStringPool pool_scope(rt_->string_pool());
  const auto epoch = std::chrono::steady_clock::now();
  const auto& events = plan_->events();
  const auto& windows = plan_->windows();
  std::size_t cursor = 0;
  std::vector<std::uint32_t> active;
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    const auto now_step =
        static_cast<std::uint64_t>((now - epoch) / options_.step_duration);
    while (cursor < events.size() && events[cursor].step <= now_step) {
      const FaultPlan::Event ev = events[cursor++];
      if (ev.open) {
        active.push_back(ev.window);
        apply_window(windows[ev.window], Phase::Open);
      } else {
        const auto it = std::find(active.begin(), active.end(), ev.window);
        if (it != active.end()) active.erase(it);
        apply_window(windows[ev.window], Phase::Close);
      }
    }
    for (const std::uint32_t idx : active)
      apply_window(windows[idx], Phase::Hold);
    if (cursor >= events.size() && active.empty()) break;
    // Sleep until the next event boundary; an open window also wakes the
    // thread every poll_interval to re-assert itself.
    auto wake_at = now + options_.poll_interval;
    if (cursor < events.size()) {
      const auto step = static_cast<std::int64_t>(events[cursor].step);
      const auto next = epoch + options_.step_duration * step;
      wake_at = active.empty() ? next : std::min(wake_at, next);
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_until(lock, wake_at, [this] { return stop_; })) break;
  }
  finish();
}

}  // namespace snapstab::fault
