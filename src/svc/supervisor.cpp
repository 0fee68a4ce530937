#include "svc/supervisor.hpp"

#include <algorithm>

// Context method bodies (the sealed sim fast path) are inline in
// sim/simulator.hpp; every TU calling them must see the definitions.
#include "sim/simulator.hpp"

#include "common/check.hpp"
#include "mutate/mutate.hpp"

namespace snapstab::svc {

Supervisor::Supervisor(Client& client, SuperviseOptions options)
    : client_(&client),
      opts_(options),
      rng_(options.seed ^ 0x5A5A5A5A5A5A5A5Aull),
      start_(std::chrono::steady_clock::now()) {
  SNAPSTAB_CHECK_MSG(opts_.attempt_deadline >= 1,
                     "a zero attempt deadline expires every attempt at birth");
  SNAPSTAB_CHECK_MSG(opts_.retry_budget >= 0, "retry budget must be >= 0");
  if (opts_.breaker.enabled)
    SNAPSTAB_CHECK_MSG(opts_.breaker.failure_threshold >= 1,
                       "breaker failure threshold must be >= 1");
  if (opts_.hedge.enabled)
    SNAPSTAB_CHECK_MSG(opts_.hedge.hedge_after >= 1,
                       "hedging needs hedge_after >= 1");
}

std::uint64_t Supervisor::now() const {
  if (client_->simulator() != nullptr) return client_->simulator()->step_count();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

std::uint64_t Supervisor::next_timer() const {
  std::uint64_t next = kNoTimer;
  for (const Rec& rec : recs_) {
    if (rec.st == St::Backoff) next = std::min(next, rec.resume_at);
    if (rec.st != St::Flying) continue;
    next = std::min(next, rec.deadline);
    if (opts_.hedge.enabled && !rec.hedged)
      next = std::min(next, rec.flying_since + opts_.hedge.hedge_after);
  }
  return next;
}

std::uint64_t Supervisor::backoff_delay(int attempts_so_far) {
  // Exponential in the number of attempts, clamped, with uniform jitter in
  // the upper half — the classic decorrelation against retry stampedes,
  // drawn from the supervisor's own stream so replay is exact.
  const int shift = attempts_so_far > 16 ? 16 : attempts_so_far - 1;
  std::uint64_t base = opts_.backoff_base << shift;
  if (base > opts_.backoff_max) base = opts_.backoff_max;
  return base / 2 + rng_.below(base / 2 + 1);
}

Supervisor::Ticket Supervisor::supervise_desc(sim::ProcessId origin,
                                              const Descriptor& d) {
  Rec rec;
  rec.desc = d;
  rec.origin = origin;
  recs_.push_back(std::move(rec));
  ++live_;
  Rec& r = recs_.back();
  if (admit(r, now())) launch(r);
  return Ticket{static_cast<std::uint32_t>(recs_.size() - 1)};
}

void Supervisor::launch(Rec& rec) {
  rec.session = client_->submit_desc(rec.origin, rec.desc);
  ++rec.attempts;
  rec.st = St::Flying;
  const std::uint64_t t = now();
  rec.deadline = t + opts_.attempt_deadline;
  rec.flying_since = t;
  rec.hedge_live = false;
  rec.hedged = false;
}

sim::ProcessId Supervisor::hedge_origin(const Rec& rec,
                                        std::size_t index) const {
  const int n = client_->process_count();
  if (n < 2) return rec.origin;
  // Salt by the ticket index so concurrent hedges fan out across backups
  // instead of re-creating a hotspot on one designated host.
  sim::ProcessId target = static_cast<sim::ProcessId>(
      (static_cast<std::size_t>(rec.origin) + 1 + index) %
      static_cast<std::size_t>(n));
  if (target == rec.origin)
    target = static_cast<sim::ProcessId>((target + 1) % n);
  return target;
}

bool Supervisor::admit(Rec& rec, std::uint64_t t) {
  rec.is_probe = false;
  if (!opts_.breaker.enabled || settling_) return true;
  Breaker& br = breaker_for(rec);
  if (br.state == BreakerState::Open) {
    if (MUTATION_POINT("sup.breaker.cooldown",
                       (t >= br.opened_at + opts_.breaker.open_cooldown),
                       true)) {
      br.state = BreakerState::HalfOpen;
      br.probing = false;
    } else {
      // Short-circuit: hold until the cooldown elapses, no attempt spent.
      ++stats_.breaker_short_circuits;
      rec.st = St::Backoff;
      rec.resume_at = br.opened_at + opts_.breaker.open_cooldown;
      return false;
    }
  }
  if (br.state == BreakerState::HalfOpen) {
    if (MUTATION_POINT("sup.probe.quota", (!br.probing), true)) {
      rec.is_probe = true;
      br.probing = true;
      ++stats_.probes;
      return true;
    }
    ++stats_.breaker_short_circuits;
    rec.st = St::Backoff;
    rec.resume_at = t + (opts_.backoff_base > 0 ? opts_.backoff_base : 1);
    return false;
  }
  return true;
}

void Supervisor::breaker_note_success(Rec& rec) {
  if (!opts_.breaker.enabled) return;
  Breaker& br = breaker_for(rec);
  br.consecutive_failures = 0;
  if (!rec.is_probe) return;
  rec.is_probe = false;
  br.probing = false;
  if (MUTATION_POINT("sup.probe.close", (br.state == BreakerState::HalfOpen),
                     false))
    br.state = BreakerState::Closed;
}

void Supervisor::breaker_note_failure(Rec& rec, std::uint64_t t) {
  if (!opts_.breaker.enabled) return;
  Breaker& br = breaker_for(rec);
  if (rec.is_probe) {
    // One failed probe reopens the breaker: the service is still sick.
    rec.is_probe = false;
    br.probing = false;
    br.state = BreakerState::Open;
    br.opened_at = t;
    br.consecutive_failures = 0;
    ++stats_.breaker_trips;
    return;
  }
  ++br.consecutive_failures;
  if (br.state == BreakerState::Closed &&
      MUTATION_POINT(
          "sup.breaker.trip",
          (br.consecutive_failures >= opts_.breaker.failure_threshold),
          false)) {
    br.state = BreakerState::Open;
    br.opened_at = t;
    ++stats_.breaker_trips;
  }
}

void Supervisor::settle(Rec& rec, SessionOutcome o) {
  rec.st = St::Terminal;
  rec.outcome = o;
  --live_;
  switch (o) {
    case SessionOutcome::Ok: ++stats_.ok; break;
    case SessionOutcome::Refused: ++stats_.refused; break;
    case SessionOutcome::Expired: ++stats_.expired; break;
    case SessionOutcome::GaveUp: ++stats_.gave_up; break;
  }
}

void Supervisor::fail_over(Rec& rec, std::uint64_t now_t) {
  if (rec.attempts >= 1 + opts_.retry_budget) {
    // Out of attempts: classify. A deadline on the last attempt reads as
    // Expired; otherwise pure-refusal histories read as backpressure.
    if (rec.last_was_deadline)
      settle(rec, SessionOutcome::Expired);
    else if (rec.non_refusal_failure)
      settle(rec, SessionOutcome::GaveUp);
    else
      settle(rec, SessionOutcome::Refused);
    return;
  }
  rec.st = St::Backoff;
  rec.resume_at = now_t + backoff_delay(rec.attempts);
}

bool Supervisor::pump() {
  if (on_pump_) on_pump_();
  if (live_ == 0) return true;
  const std::uint64_t t = now();
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    Rec& rec = recs_[i];
    if (rec.st == St::Terminal) continue;
    if (rec.st == St::Backoff) {
      if (t >= rec.resume_at && admit(rec, t)) {
        if (rec.attempts > 0) ++stats_.resubmits;
        launch(rec);
      }
      continue;
    }
    // Flying. First terminal result wins: the primary is polled first, so a
    // tie goes to it deterministically; the loser's session is released if
    // done, abandoned if still flying (a ghost completion is harmless — the
    // supervisor has forgotten the key).
    const bool primary_done =
        client_->state(rec.session) == SessionState::Done;
    const bool hedge_done =
        rec.hedge_live &&
        client_->state(rec.hedge_session) == SessionState::Done;
    if (primary_done || hedge_done) {
      if (primary_done) {
        rec.result = client_->result(rec.session);
        client_->release(rec.session);
        if (hedge_done) client_->release(rec.hedge_session);
      } else {
        rec.result = client_->result(rec.hedge_session);
        client_->release(rec.hedge_session);
        ++stats_.hedge_wins;
      }
      rec.hedge_live = false;
      if (rec.result.completed) {
        breaker_note_success(rec);
        settle(rec, SessionOutcome::Ok);
        continue;
      }
      // Failed attempt: an admission refusal keeps the pure-refusal
      // classification; anything else (killed by a crash-restart) taints it.
      if (rec.result.admission == ForwardSubmit::Accepted) {
        rec.non_refusal_failure = true;
        breaker_note_failure(rec, t);
      } else if (rec.is_probe) {
        // A refused probe frees its slot without reopening the breaker:
        // backpressure is not service death.
        rec.is_probe = false;
        breaker_for(rec).probing = false;
      }
      rec.last_was_deadline = false;
      fail_over(rec, t);
      continue;
    }
    if (t >= rec.deadline) {
      ++stats_.deadline_hits;
      rec.non_refusal_failure = true;
      rec.last_was_deadline = true;
      // The expired attempt (and any live hedge) is abandoned, not
      // released: it may still be In on the host.
      rec.hedge_live = false;
      breaker_note_failure(rec, t);
      fail_over(rec, t);
      continue;
    }
    // Tail defense: back the slow primary up with a hedged resubmit.
    if (opts_.hedge.enabled && !rec.hedged &&
        MUTATION_POINT("sup.hedge.fire",
                       (t >= rec.flying_since + opts_.hedge.hedge_after),
                       true)) {
      rec.hedge_session =
          client_->submit_desc(hedge_origin(rec, i), rec.desc);
      rec.hedge_live = true;
      rec.hedged = true;
      ++stats_.hedges_launched;
    }
  }
  return live_ == 0;
}

void Supervisor::force_settle() {
  // No more backend progress is possible. Expire flying attempts and drain
  // backoffs immediately, bypassing the breaker gate (settling_: a held
  // submission consumes no attempt, so holding here would never converge);
  // each round then either settles a ticket or consumes one attempt, so
  // this terminates within retry_budget + 1 rounds.
  settling_ = true;
  while (live_ > 0) {
    const std::uint64_t t = now();
    for (Rec& rec : recs_) {
      if (rec.st == St::Flying && rec.deadline > t) rec.deadline = t;
      if (rec.st == St::Backoff && rec.resume_at > t) rec.resume_at = t;
    }
    pump();
  }
  settling_ = false;
}

bool Supervisor::run_all(AwaitOptions opts) {
  sim::Simulator* sim = client_->simulator();
  if (sim != nullptr) {
    if (pump()) return true;
    const std::uint64_t start_steps = sim->step_count();
    while (live_ > 0) {
      const std::uint64_t used = sim->step_count() - start_steps;
      if (used >= opts.max_steps) {
        force_settle();
        return false;
      }
      const sim::Simulator::StopReason reason =
          sim->run(opts.max_steps - used,
                   [this](sim::Simulator&) { return pump(); }, opts.policy);
      if (live_ == 0) return true;
      if (reason == sim::Simulator::StopReason::BudgetExhausted) {
        force_settle();
        return false;
      }
      // Quiescent: no step is enabled, so step-time cannot advance and
      // pending timers would never fire. Fast-forward backoff timers (their
      // resubmissions re-enable the world); if none were pending, every
      // flying attempt is stranded — expire it now. Each pass consumes
      // attempts, so the loop terminates.
      bool any_backoff = false;
      for (Rec& rec : recs_) {
        if (rec.st == St::Backoff) {
          rec.resume_at = now();
          any_backoff = true;
        }
      }
      // Open breakers hold submissions on the same frozen clock: their
      // cooldowns can never elapse either, so fast-forward them to HalfOpen
      // — the probe resubmissions are what re-enable the world.
      if (opts_.breaker.enabled) {
        for (Breaker& br : breakers_) {
          if (br.state != BreakerState::Open) continue;
          br.state = BreakerState::HalfOpen;
          br.probing = false;
        }
      }
      if (!any_backoff)
        for (Rec& rec : recs_)
          if (rec.st == St::Flying) rec.deadline = now();
      if (pump()) return true;
    }
    return true;
  }
  // Wait in slices that end at the next supervisor timer: node activations
  // re-run pump() on progress, but a backoff, deadline or hedge must fire
  // even while every node is idle. A pump that arms an earlier timer ends
  // the slice too.
  live::Runtime& rt = *client_->live_runtime();
  using Clock = std::chrono::steady_clock;
  const Clock::time_point give_up = Clock::now() + opts.timeout;
  for (;;) {
    if (pump()) return true;
    const Clock::time_point t = Clock::now();
    if (t >= give_up) break;
    const std::uint64_t timer = next_timer();
    Clock::duration slice = give_up - t;
    if (timer != kNoTimer)
      slice = std::min(slice, start_ + std::chrono::milliseconds(timer) - t);
    const auto wait = std::max(
        std::chrono::ceil<std::chrono::milliseconds>(slice),
        std::chrono::milliseconds(1));
    rt.run([this, timer] { return pump() || next_timer() < timer; }, wait);
    if (!rt.running()) break;
  }
  // Timed out, or the runtime was shut down: settle every live ticket
  // (Expired / GaveUp / Refused) so the caller still gets terminal
  // outcomes, and report the budget loss.
  force_settle();
  return false;
}

bool Supervisor::terminal(Ticket t) const {
  return recs_[t.id].st == St::Terminal;
}

SessionOutcome Supervisor::outcome(Ticket t) const {
  SNAPSTAB_CHECK_MSG(recs_[t.id].st == St::Terminal,
                     "outcome() before the ticket is terminal");
  return recs_[t.id].outcome;
}

const SessionResult& Supervisor::result(Ticket t) const {
  return recs_[t.id].result;
}

int Supervisor::attempts(Ticket t) const { return recs_[t.id].attempts; }

}  // namespace snapstab::svc
