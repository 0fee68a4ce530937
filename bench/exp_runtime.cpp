// exp_runtime — Experiment E12: the protocols on real threads.
//
// The paper closes with "actually implementing them is a future
// challenge". This experiment runs the same protocol objects on the thread
// runtime (one OS thread per process, capacity-1 lossy mailboxes, binary
// wire format) and reports wall-clock completion times plus a mutual-
// exclusion witness based on an atomic occupancy counter.
#include <atomic>
#include <chrono>

#include "exp_common.hpp"
#include "runtime/thread_runtime.hpp"

namespace snapstab::bench {
namespace {

using namespace std::chrono_literals;
using runtime::ThreadRuntime;

double pif_wall_ms(int n, double loss, std::uint64_t seed, bool& ok) {
  ThreadRuntime rt(n, {.loss_rate = loss, .seed = seed});
  for (int i = 0; i < n; ++i)
    rt.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = n - 1}));
  rt.with_process<svc::ServiceHost>(0, [](svc::ServiceHost& p) {
    p.pif().request(Value::text("wall-clock"));
    return 0;
  });
  const auto start = std::chrono::steady_clock::now();
  ok = rt.run(
      [&rt] {
        return rt.with_process<svc::ServiceHost>(
            0, [](svc::ServiceHost& p) { return p.pif().done(); });
      },
      30s);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

struct MeResult {
  bool all_served = false;
  int peak_occupancy = 0;
  double wall_ms = 0;
};

MeResult me_on_threads(int n, std::uint64_t seed) {
  ThreadRuntime rt(n, {.seed = seed});
  std::atomic<int> occupancy{0};
  std::atomic<int> peak{0};
  std::atomic<int> grants{0};
  for (int i = 0; i < n; ++i) {
    core::MeOptions opts;
    opts.cs_length = 2;
    opts.cs_body = [&occupancy, &peak, &grants] {
      const int now = occupancy.fetch_add(1) + 1;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      occupancy.fetch_sub(1);
      grants.fetch_add(1);
    };
    rt.add_process(
        std::make_unique<svc::ServiceHost>(svc::HostConfig{
            .id = i + 1, .degree = n - 1, .with_me = true,
            .me_options = opts}));
  }
  for (int i = 0; i < n; ++i)
    rt.with_process<svc::ServiceHost>(
        i, [](svc::ServiceHost& s) { return s.me().request_cs(); });

  const auto start = std::chrono::steady_clock::now();
  MeResult result;
  result.all_served = rt.run([&grants, n] { return grants.load() >= n; }, 60s);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  rt.shutdown();  // the CS body touches this frame's counters
  result.wall_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  result.peak_occupancy = peak.load();
  return result;
}

}  // namespace
}  // namespace snapstab::bench

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::bench;
  CliArgs args(argc, argv, {"seed", "json"});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 21));

  banner("E12: exp_runtime",
         "§5: 'actually implementing them is a future challenge'",
         "Wall-clock behaviour of the same protocol objects on one OS\n"
         "thread per process, capacity-1 lossy mailboxes, binary codec.");

  std::printf("--- PIF wall-clock completion ---\n");
  TextTable pif_table({"n", "loss", "completed", "wall time (ms)"});
  bool all_ok = true;
  for (int n : {2, 4, 8}) {
    for (double loss : {0.0, 0.2}) {
      bool ok = false;
      const double ms =
          pif_wall_ms(n, loss, seed + static_cast<std::uint64_t>(n), ok);
      all_ok = all_ok && ok;
      pif_table.add_row({TextTable::cell(n), TextTable::cell(loss, 2),
                         ok ? "yes" : "NO", TextTable::cell(ms, 1)});
    }
  }
  pif_table.print();

  std::printf("\n--- ME on threads (atomic occupancy witness) ---\n");
  TextTable me_table(
      {"n", "all requests served", "peak CS occupancy", "wall time (ms)"});
  bool exclusion = true;
  bool served = true;
  for (int n : {2, 3, 5}) {
    const auto r = me_on_threads(n, seed + 100 + static_cast<std::uint64_t>(n));
    exclusion = exclusion && r.peak_occupancy <= 1;
    served = served && r.all_served;
    me_table.add_row({TextTable::cell(n), r.all_served ? "yes" : "NO",
                      TextTable::cell(r.peak_occupancy),
                      TextTable::cell(r.wall_ms, 1)});
  }
  me_table.print();

  verdict(all_ok, "PIF completed on the thread runtime at every setting");
  verdict(served, "every CS request was served on the thread runtime");
  verdict(exclusion, "peak CS occupancy never exceeded 1 (real-time mutual "
                     "exclusion witness)");

  BenchJson json("exp_runtime");
  json.set("pif_all_ok", all_ok);
  json.set("me_all_served", served);
  json.set("me_exclusion", exclusion);
  json.write_if_requested(args);
  return 0;
}
