// host.hpp — the per-process service host.
//
// A ServiceHost is a sim::Process that owns the process's protocol stack
// (one shared PIF underneath, per the paper's one-message-type rule, plus
// whichever service layers the HostConfig enables) and serves *sessions*:
// typed requests submitted through svc::Client, tracked Wait → In → Done,
// queued deterministically when the stack is busy, completed with a
// uniform SessionResult.
//
// It is the one host type: every world builds ServiceHosts from a
// HostConfig (directly, or uniformly through service_world below), and
// every request enters through submit — svc::Client is the driver-side
// caller. Tests of a layer's own contract poke the layer through the
// accessors instead (host.pif().request(b), host.me().request_cs(), ...).
//
// Dispatch rule (mirroring the paper's actions): a received broadcast
// payload selects the receive-brd handler of the layer it names (IDL query
// -> Idl::on_brd, ASK/EXIT/EXITCS -> the ME handlers, RESET/SNAPQUERY/PROBE
// -> the PIF-based services, anything else falls to the application hook
// or a polite OK); a feedback is routed by the process's *own* current
// B-Mes.
//
// Determinism contract: the session machinery performs NO RNG draws and
// emits exactly one observation per request — RequestWait when the
// session starts (FwdSubmit for an accepted ForwardMsg) — so a
// session-driven world replays bit-identically (the goldens in tests/golden
// pin this).
#ifndef SNAPSTAB_SVC_HOST_HPP
#define SNAPSTAB_SVC_HOST_HPP

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "core/election.hpp"
#include "core/forward.hpp"
#include "core/idl.hpp"
#include "core/me.hpp"
#include "core/pif.hpp"
#include "core/reset.hpp"
#include "core/snapshot.hpp"
#include "core/termdetect.hpp"
#include "sim/process.hpp"
#include "svc/service.hpp"

namespace snapstab::svc {

struct HostConfig {
  std::int64_t id = 0;         // identity (IDL / ME / election)
  int degree = 0;              // incident channels in the world's topology
  int channel_capacity = 1;    // known bound c (PIF flag range {0..2c+2})

  bool with_pif = true;        // the shared lower layer; required by every
                               // service except ForwardMsg
  bool with_idl = false;
  bool with_me = false;        // implies with_idl
  bool with_reset = false;
  bool with_snapshot = false;
  bool with_termdetect = false;
  bool with_election = false;  // implies with_idl

  core::MeOptions me_options{};
  // Application feedback hook for broadcasts no service layer claims;
  // defaults to acknowledging with OK.
  std::function<Value(sim::Context&, int, const Value&)> app_brd{};
  std::function<void(sim::Context&)> on_reset{};  // reset hook
  std::function<Value()> local_state{};           // snapshot state supplier
  core::DiffusingApp app{};                       // termdetect's application
  // Non-null enables the ForwardMsg service (self must be set, see ctor).
  std::shared_ptr<const sim::RoutingTable> routes{};
  core::ForwardOptions forward_options{};
  sim::ProcessId self = -1;    // global id; required for ForwardMsg

  // Reverses the IDL/PIF tick order (ablation experiment only).
  bool unsafe_lower_layer_first = false;
};

class ServiceHost : public sim::Process {
 public:
  using CompletionFn =
      std::function<void(const SessionKey&, const SessionResult&)>;
  // Sink for the RequestWait observation of a session started at submit
  // time (driver-side, outside any activation — the svc::Client binds this
  // to the backend's observation log). Deferred starts emit through ctx.
  using Emit = std::function<void(sim::Layer, sim::ObsKind, int peer,
                                  const Value&)>;

  struct Submitted {
    SessionKey key;
    ForwardSubmit admission = ForwardSubmit::Accepted;
    bool coalesced = false;   // joined an identical queued session
    std::uint32_t wire_seq = 0;  // ForwardMsg: the hop-layer sequence number
  };

  explicit ServiceHost(HostConfig config);
  ~ServiceHost() override;

  // --- session surface (driver side; svc::Client is the usual caller) ----
  // Submits a request. PIF-based services start immediately when the stack
  // is idle and their layer is Done; otherwise the session queues (state
  // Wait) and starts deterministically, in submission order, as soon as the
  // stack frees up. An identical descriptor already queued coalesces: the
  // existing key is returned instead of queuing a duplicate. ForwardMsg
  // submissions are admitted or refused on the spot (see ForwardSubmit).
  Submitted submit(sim::ProcessId origin, const Descriptor& d,
                   CompletionFn on_complete, const Emit& emit);

  SessionState session_state(std::uint32_t seq) const;
  // Valid once session_state(seq) == Done (refused forward submissions are
  // born Done); default-constructed result for unknown seqs.
  SessionResult session_result(std::uint32_t seq) const;
  // Drops a completed session's record and returns its storage slot to the
  // host's free list: a recycling workload (submit -> complete -> release,
  // repeated) runs at O(live sessions) memory and O(1) steady-state cost
  // per operation however many sessions have passed through — the
  // million-session load generator's contract (micro_bench
  // BM_SessionRecycleSteadyState pins the flatness).
  void release_session(std::uint32_t seq);

  // ForwardMsg completion is end-to-end and therefore cross-host: the
  // destination host records each delivery and
  // the client matches it back to the origin's session, removing the
  // matched record so one delivery completes at most one session (and the
  // record store stays bounded).
  struct Delivery {
    sim::ProcessId origin = -1;
    std::uint32_t wire_seq = 0;
    Value payload;
  };
  bool consume_delivery(sim::ProcessId origin, std::uint32_t wire_seq,
                        const Value& payload);
  // Bulk alternative to per-session consume_delivery: appends every pending
  // delivery record to `out` and clears the store. The load generator
  // drains each destination once per poll cadence and matches the batch
  // against its own (origin, wire_seq) table — O(deliveries) per drain
  // instead of O(live forward sessions x deliveries) per poll.
  void take_deliveries(std::vector<Delivery>& out);
  void finish_forward(std::uint32_t seq);  // origin side: mark Done, fire cb

  int session_count() const noexcept { return static_cast<int>(by_seq_.size()); }

  // --- graceful degradation (the fault engine's host-side view) ----------
  struct Degrade {
    // Forward admissions refused, indexed by core::ForwardSubmit ordinal
    // (the Accepted slot stays zero).
    std::array<std::uint64_t, core::kForwardSubmitCount> refusals_by_reason{};
    std::uint64_t sessions_killed = 0;  // live sessions failed by a crash
    std::uint64_t crashes = 0;          // crash_restart() applications
  };
  const Degrade& degrade() const noexcept { return degrade_; }

  // The fault engine's process crash-restart: scrambles the protocol stack
  // exactly like randomize() AND fails every live session (phase Done,
  // completed = false, completion callbacks fire — the no-silent-hangs
  // contract), drops the pending queue and any un-consumed forward
  // deliveries. A restarted process has no session memory; the driver
  // (svc::Supervisor, load::Workload) owns the retry.
  void crash_restart(Rng& rng) override;

  // --- layer accessors ---------------------------------------------------
  core::Pif& pif() { return checked(pif_); }
  const core::Pif& pif() const { return checked(pif_); }
  core::Idl& idl() { return checked(idl_); }
  const core::Idl& idl() const { return checked(idl_); }
  core::Me& me() { return checked(me_); }
  const core::Me& me() const { return checked(me_); }
  core::Reset& reset() { return checked(reset_); }
  const core::Reset& reset() const { return checked(reset_); }
  core::Snapshot& snapshot() { return checked(snapshot_); }
  const core::Snapshot& snapshot() const { return checked(snapshot_); }
  core::TermDetect& detector() { return checked(detect_); }
  const core::TermDetect& detector() const { return checked(detect_); }
  core::Election& election() { return checked(election_); }
  const core::Election& election() const { return checked(election_); }
  core::Forward& forward() { return checked(fwd_); }
  const core::Forward& forward() const { return checked(fwd_); }

  // --- sim::Process ------------------------------------------------------
  void on_tick(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, int ch, const Message& m) override;
  bool tick_enabled() const override;
  bool busy() const override { return me_ != nullptr && me_->in_cs(); }
  // Scrambles protocol state only (the paper's corruption model): session
  // bookkeeping is driver-side application state, like the CS body.
  void randomize(Rng& rng) override;

 private:
  struct SessionRec {
    std::uint32_t seq = 0;
    Descriptor desc;
    enum class Phase : std::uint8_t { Queued, Active, Done } phase =
        Phase::Queued;
    SessionResult result;
    CompletionFn on_complete;
    std::uint32_t wire_seq = 0;  // ForwardMsg
  };

  template <typename T>
  static T& checked(const std::unique_ptr<T>& p) {
    SNAPSTAB_CHECK_MSG(p != nullptr,
                       "service layer not configured on this host");
    return *p;
  }

  SessionRec* find(std::uint32_t seq);
  const SessionRec* find(std::uint32_t seq) const;
  // Hash of the fields Descriptor::operator== compares; text payloads hash
  // by resolved string so cross-pool-equal descriptors collide as required.
  static std::uint64_t desc_hash(const Descriptor& d);
  // Moves `rec` into a free slot (reusing a released one when available)
  // and indexes it by seq; returns the slot index.
  std::uint32_t alloc_slot(SessionRec&& rec);
  core::RequestState layer_state(ServiceId s) const;
  bool service_available(ServiceId s) const;
  // Sets the layer's Request := Wait and emits the RequestWait observation
  // (the layer/value pair the specs key on, see start()).
  template <typename EmitFn>
  void start(SessionRec& rec, const EmitFn& emit);
  void complete(SessionRec& rec);
  // Completion/queue pump, run at the end of every activation. O(1) when no
  // session is active or pending.
  void poll_sessions(sim::Context& ctx);

  Value on_brd(sim::Context& ctx, int ch, const Value& b);
  void on_fck(sim::Context& ctx, int ch, const Value& f);

  HostConfig cfg_;
  std::unique_ptr<core::Pif> pif_;
  std::unique_ptr<core::Idl> idl_;
  std::unique_ptr<core::Me> me_;
  std::unique_ptr<core::Reset> reset_;
  std::unique_ptr<core::Snapshot> snapshot_;
  std::unique_ptr<core::TermDetect> detect_;
  std::unique_ptr<core::Election> election_;
  std::unique_ptr<core::Forward> fwd_;

  sim::ProcessId origin_ = -1;     // learned at first submit
  std::uint32_t next_session_ = 0;
  // Session storage is a slot arena: records live in `slots_`, freed slots
  // are recycled through `free_` (LIFO, so a recycling workload stays in a
  // hot cache footprint), and `by_seq_` maps a session's public seq to its
  // current slot in O(1). The unordered containers are lookup-only — never
  // iterated — so they cannot perturb execution order (determinism holds
  // for any hash-bucket layout).
  std::vector<SessionRec> slots_;
  std::vector<std::uint32_t> free_;             // free slot indices, LIFO
  std::unordered_map<std::uint32_t, std::uint32_t> by_seq_;  // seq -> slot
  // One-entry find() cache: poll_sessions looks up the active session at
  // the end of every activation, which must not pay a hash lookup per
  // engine step (an awaiting client's session_state polls hit it too).
  // Validated against slots_[cache_slot_].seq and invalidated on release
  // (a freed slot resets to seq 0, which is a real session id).
  mutable std::uint32_t cache_seq_ = kNoSession;
  mutable std::uint32_t cache_slot_ = 0;
  static constexpr std::uint32_t kNoSession = 0xFFFFFFFFu;
  // Queued sessions by descriptor hash, for O(1) coalescing lookup (the
  // historic linear scan over pending_ was O(C^2) when queueing 10^5+
  // sessions). At most one queued session exists per distinct descriptor
  // (that is what coalescing guarantees), so equal_range order never
  // matters — hash collisions are resolved by a full Descriptor compare.
  std::unordered_multimap<std::uint64_t, std::uint32_t> queued_by_desc_;
  std::deque<std::uint32_t> pending_;     // queued PIF-based sessions, FIFO
  std::int64_t stack_active_ = -1;        // seq of the In PIF-based session
  int pending_n_ = 0;
  std::vector<Delivery> deliveries_;      // ForwardMsg: what arrived here
  Degrade degrade_;
};

// Builds a world of ServiceHosts over `topology`, one per node, each
// configured by `config_of(p)` (routes are filled in automatically when
// `with_forward` is set). The svc analogue of core::forward_world.
std::unique_ptr<sim::Simulator> service_world(
    sim::Topology topology, std::size_t channel_capacity, std::uint64_t seed,
    const std::function<HostConfig(sim::ProcessId)>& config_of,
    bool with_forward = false,
    core::ForwardOptions forward_options = {});

}  // namespace snapstab::svc

#endif  // SNAPSTAB_SVC_HOST_HPP
