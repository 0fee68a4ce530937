// perf.hpp — shared pieces of snapstab_perf, the end-to-end and per-layer
// benchmark driver (see bench/perf/README.md).
//
// The driver measures the system only through its public API: svc::Client
// sessions on the three backends and load::run_sharded. Spans are recorded
// around the driver's own calls into those functions, never inside src/.
#ifndef SNAPSTAB_BENCH_PERF_PERF_HPP
#define SNAPSTAB_BENCH_PERF_PERF_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "load/histogram.hpp"
#include "net/socket_runtime.hpp"
#include "runtime/thread_runtime.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "svc/host.hpp"

namespace snapstab::perf {

inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

// `full` scaled down for smoke runs, never below 1.
inline std::uint64_t scaled(std::uint64_t full, double scale) {
  const double v = static_cast<double>(full) * scale;
  return v < 1.0 ? 1 : static_cast<std::uint64_t>(v);
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Percentile of a LatencyHistogram, interpolated linearly inside the bucket
// that holds the rank. The histogram itself reports the bucket's upper
// bound (up to 1/32 above the truth); interpolation keeps run-to-run
// medians from jumping between bucket edges. Deterministic for identical
// histograms.
double percentile(const load::LatencyHistogram& h, double pct);

// --- resource usage --------------------------------------------------------

struct Usage {
  std::uint64_t cpu_ns = 0;  // user + system
  std::uint64_t ctx_switches = 0;  // voluntary + involuntary
};
Usage process_usage();  // every thread of the process, joined ones included
Usage thread_usage();   // the calling thread only
inline Usage usage_delta(const Usage& from, const Usage& to) {
  return Usage{to.cpu_ns - from.cpu_ns, to.ctx_switches - from.ctx_switches};
}
double peak_rss_mb();

// --- spans -----------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  Session,    // submit -> completion callback, one per session
  Submit,     // svc::Client::submit
  Await,      // svc::Client::await_all
  Release,    // svc::Client::release
  Round,      // one round of the round script
  Construct,  // backend construction (make_backend)
  Chunk,      // one load::run_sharded call
};
inline constexpr int kSpanKindCount = 7;
const char* span_name(SpanKind k) noexcept;

// In-memory span recorder. Durations land in one histogram per span kind
// (fixed memory, whatever the run length); the first kMaxSpans spans are
// also kept verbatim for the Chrome-trace file written at exit.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_ns_(now_ns()) {}

  bool on() const noexcept { return on_; }
  void record(SpanKind k, std::uint64_t begin_ns, std::uint64_t end_ns,
              int tid = 0, std::uint64_t id = 0);
  const load::LatencyHistogram& durations(SpanKind k) const {
    return hist_[static_cast<std::size_t>(k)];
  }
  // Self time of the driver per round: round span minus its child spans.
  load::LatencyHistogram& round_self() { return round_self_; }

  bool write_chrome(const std::string& path) const;

  // Session span ids pack (origin, service, seq).
  static std::uint64_t session_id(const svc::SessionKey& k) {
    return (static_cast<std::uint64_t>(k.origin) << 40) |
           (static_cast<std::uint64_t>(k.service) << 32) | k.seq;
  }

 private:
  struct Span {
    SpanKind kind;
    int tid;
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
    std::uint64_t id;
  };
  static constexpr std::size_t kMaxSpans = 200'000;

  bool on_;
  std::uint64_t origin_ns_;
  std::array<load::LatencyHistogram, kSpanKindCount> hist_{};
  load::LatencyHistogram round_self_;
  std::vector<Span> spans_;
};

// --- backends --------------------------------------------------------------

enum class BackendKind : std::uint8_t { Simulator, Mailbox, Udp };

struct BackendSpec {
  BackendKind kind = BackendKind::Simulator;
  std::string topology = "complete";  // "complete" | "ring"
  int n = 3;
  // Hosts run PIF + IDL + election; `mixed` adds the snapshot and
  // termination-detection layers of exp_load's `mixed` service mix.
  bool mixed = false;
  std::uint64_t seed = 1;
  double loss_rate = 0.0;  // Udp only
};

// The protocol identity of node p: ids descend from 100, so on complete(n)
// the election elects node n-1 (id 100-(n-1)) and ranks node p at n-1-p.
inline std::int64_t host_id(int p) { return 100 - p; }

sim::Topology make_topology(const BackendSpec& spec);

// What an Election at origin p must return. IDL learns the identities one
// hop away, so the answer is the minimum over p and its neighbours and p's
// rank among them.
struct ElectionAnswer {
  std::int64_t min_id = 0;
  int rank = 0;
};
ElectionAnswer election_answer(const sim::Topology& t, int p);

// One constructed backend and the svc::Client bound to it. Live backends
// count protocol activations (on_tick / on_message calls) into the
// caller's counter, the live analogue of Simulator steps.
struct Backend {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<runtime::ThreadRuntime> thread;
  std::unique_ptr<net::SocketRuntime> socket;
  std::unique_ptr<svc::Client> client;
  const std::atomic<std::uint64_t>* activations = nullptr;

  // Steps taken so far: engine steps, or protocol activations when live.
  std::uint64_t steps() const {
    return sim != nullptr ? sim->step_count()
                          : activations->load(std::memory_order_relaxed);
  }
};

// The one place backends are built. `activations` must outlive the
// backend (it is shared across the per-round ThreadRuntimes).
std::unique_ptr<Backend> make_backend(const BackendSpec& spec,
                                      std::atomic<std::uint64_t>& activations);

// --- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const noexcept { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace snapstab::perf

#endif  // SNAPSTAB_BENCH_PERF_PERF_HPP
