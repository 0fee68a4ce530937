#include "perf.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace snapstab::perf {

namespace {

using load::LatencyHistogram;

// The recorded value at 1-based nearest rank `rank`, as the histogram
// reports it (its bucket's upper bound, clamped to the maximum).
std::uint64_t value_at_rank(const LatencyHistogram& h, std::uint64_t rank) {
  const double pct = (static_cast<double>(rank) - 0.5) * 100.0 /
                     static_cast<double>(h.count());
  return h.percentile(pct);
}

std::uint64_t to_ns(const timeval& tv) {
  return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(tv.tv_usec) * 1'000ull;
}

Usage usage_of(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return Usage{to_ns(ru.ru_utime) + to_ns(ru.ru_stime),
               static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

// Activation-counting host for the live backends.
class CountingHost final : public svc::ServiceHost {
 public:
  CountingHost(svc::HostConfig cfg, std::atomic<std::uint64_t>& activations)
      : ServiceHost(std::move(cfg)), activations_(activations) {}

  void on_tick(sim::Context& ctx) override {
    activations_.fetch_add(1, std::memory_order_relaxed);
    ServiceHost::on_tick(ctx);
  }
  void on_message(sim::Context& ctx, int ch, const Message& m) override {
    activations_.fetch_add(1, std::memory_order_relaxed);
    ServiceHost::on_message(ctx, ch, m);
  }

 private:
  std::atomic<std::uint64_t>& activations_;
};

svc::HostConfig host_config(const BackendSpec& spec, const sim::Topology& t,
                            int p) {
  svc::HostConfig cfg;
  cfg.id = host_id(p);
  cfg.degree = t.degree(p);
  cfg.channel_capacity = 1;
  cfg.with_election = true;
  if (spec.mixed) {
    cfg.with_idl = true;
    cfg.with_snapshot = true;
    cfg.with_termdetect = true;
    cfg.local_state = [p] { return Value::integer(p); };
    cfg.app.counters = [] { return core::AppCounters{}; };
  }
  return cfg;
}

}  // namespace

sim::Topology make_topology(const BackendSpec& spec) {
  return spec.topology == "ring" ? sim::Topology::ring(spec.n)
                                 : sim::Topology::complete(spec.n);
}

ElectionAnswer election_answer(const sim::Topology& t, int p) {
  ElectionAnswer a{host_id(p), 0};
  for (int k = 0; k < t.degree(p); ++k) {
    const std::int64_t id = host_id(t.edge_dst(t.out_edge(p, k)));
    a.min_id = std::min(a.min_id, id);
    if (id < host_id(p)) ++a.rank;
  }
  return a;
}

double percentile(const LatencyHistogram& h, double pct) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  double target = pct / 100.0 * static_cast<double>(n);
  if (target < 1.0) target = 1.0;
  if (target > static_cast<double>(n)) target = static_cast<double>(n);
  const auto rank = static_cast<std::uint64_t>(std::ceil(target));
  const int b = LatencyHistogram::index_of(value_at_rank(h, rank));
  const std::uint64_t lo =
      b == 0 ? 0 : LatencyHistogram::bucket_high(b - 1) + 1;
  const std::uint64_t hi = LatencyHistogram::bucket_high(b);
  if (hi == lo) return static_cast<double>(lo);  // exact bucket
  // First and last rank inside bucket b (value_at_rank is monotone).
  std::uint64_t first = 1, last = rank;
  while (first < last) {
    const std::uint64_t mid = first + (last - first) / 2;
    if (value_at_rank(h, mid) >= lo) last = mid; else first = mid + 1;
  }
  const std::uint64_t r_lo = first;
  first = rank;
  last = n;
  while (first < last) {
    const std::uint64_t mid = first + (last - first + 1) / 2;
    if (value_at_rank(h, mid) <= hi) first = mid; else last = mid - 1;
  }
  const std::uint64_t r_hi = first;
  const double frac = (target - static_cast<double>(r_lo - 1)) /
                      static_cast<double>(r_hi - r_lo + 1);
  double v = static_cast<double>(lo) +
             frac * static_cast<double>(hi + 1 - lo);
  if (v < static_cast<double>(h.min())) v = static_cast<double>(h.min());
  if (v > static_cast<double>(h.max())) v = static_cast<double>(h.max());
  return v;
}

Usage process_usage() { return usage_of(RUSAGE_SELF); }
Usage thread_usage() { return usage_of(RUSAGE_THREAD); }

double peak_rss_mb() {
  // VmHWM is this program's own high-water mark. ru_maxrss would also count
  // the process that exec'd it (the build wrapper), since exec carries the
  // old image's peak over.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f) != nullptr)
      found = std::sscanf(line, "VmHWM: %lu kB", &kib) == 1;
    std::fclose(f);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

const char* span_name(SpanKind k) noexcept {
  static_assert(kSpanKindCount == static_cast<int>(SpanKind::Chunk) + 1,
                "new SpanKind: update kSpanKindCount and span_name");
  switch (k) {
    case SpanKind::Session: return "session";
    case SpanKind::Submit: return "svc.submit";
    case SpanKind::Await: return "svc.await";
    case SpanKind::Release: return "svc.release";
    case SpanKind::Round: return "round";
    case SpanKind::Construct: return "runtime.construct";
    case SpanKind::Chunk: return "load.run_sharded";
  }
  return "?";
}

void Tracer::record(SpanKind k, std::uint64_t begin_ns, std::uint64_t end_ns,
                    int tid, std::uint64_t id) {
  if (!on_) return;
  hist_[static_cast<std::size_t>(k)].record(end_ns - begin_ns);
  if (spans_.size() < kMaxSpans)
    spans_.push_back(Span{k, tid, begin_ns, end_ns, id});
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Chrome trace-event format: complete ("X") events in microseconds.
  // tid 0 is the driver thread; session spans sit on tid origin+1.
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f",
                 i == 0 ? "" : ",", span_name(s.kind), s.tid,
                 static_cast<double>(s.begin_ns - origin_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.begin_ns) / 1e3);
    if (s.kind == SpanKind::Session) {
      const auto service = static_cast<svc::ServiceId>((s.id >> 32) & 0xFF);
      std::fprintf(f, ",\"args\":{\"origin\":%llu,\"service\":\"%s\","
                   "\"seq\":%llu}",
                   static_cast<unsigned long long>(s.id >> 40),
                   svc::service_name(service),
                   static_cast<unsigned long long>(s.id & 0xFFFFFFFFu));
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::unique_ptr<Backend> make_backend(const BackendSpec& spec,
                                      std::atomic<std::uint64_t>& activations) {
  auto b = std::make_unique<Backend>();
  b->activations = &activations;
  sim::Topology topology = make_topology(spec);
  switch (spec.kind) {
    case BackendKind::Simulator: {
      const sim::Topology shape = topology;
      b->sim = svc::service_world(
          std::move(topology), 1, spec.seed,
          [&](sim::ProcessId p) { return host_config(spec, shape, p); });
      b->sim->set_scheduler(
          std::make_unique<sim::RandomScheduler>(spec.seed ^ 0x5EEDull));
      b->client = std::make_unique<svc::Client>(*b->sim);
      break;
    }
    case BackendKind::Mailbox: {
      runtime::ThreadRuntimeOptions options;
      options.seed = spec.seed;
      b->thread = std::make_unique<runtime::ThreadRuntime>(topology, options);
      for (int p = 0; p < spec.n; ++p)
        b->thread->add_process(std::make_unique<CountingHost>(
            host_config(spec, topology, p), activations));
      b->client = std::make_unique<svc::Client>(*b->thread);
      break;
    }
    case BackendKind::Udp: {
      net::SocketRuntimeOptions options;
      options.seed = spec.seed;
      options.loss_rate = spec.loss_rate;
      b->socket = std::make_unique<net::SocketRuntime>(topology, options);
      for (int p = 0; p < spec.n; ++p)
        b->socket->add_process(std::make_unique<CountingHost>(
            host_config(spec, topology, p), activations));
      b->socket->start();
      b->client = std::make_unique<svc::Client>(*b->socket);
      break;
    }
  }
  return b;
}

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

}  // namespace snapstab::perf
