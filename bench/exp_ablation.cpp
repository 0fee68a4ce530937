// exp_ablation — ablations of the two design choices DESIGN.md calls out.
//
// A) Flag range. Lemma 4's counting argument dictates flag range {0..2c+2}
//    (five values for capacity 1). What if the protocol used fewer? This
//    ablation runs the adversarial two-process sweep of E1 with flag bounds
//    2..6 and counts Specification-1 violations: every bound below 4 is
//    unsound, 4 and above are sound — the paper's constant is exactly tight.
//
// B) Stack tick order. The reproduction found that composing the protocols
//    lower-layer-first opens a one-activation window in which a ghost
//    receive-fck against still-corrupted PIF flags poisons IDL's monotone
//    minID (DESIGN.md §6.3). This ablation measures the poisoning rate of
//    the unsafe order against the safe (upper-layer-first) order.
#include "exp_common.hpp"

namespace snapstab::bench {
namespace {

using sim::Simulator;

struct FlagCell {
  int configurations = 0;
  int completed = 0;
  int violations = 0;
};

// A PIF-only process with an explicit flag bound (ablation only).
class AblatedPifProcess final : public sim::Process {
 public:
  AblatedPifProcess(int degree, std::int32_t flag_bound)
      : pif_(degree, 1, flag_bound) {}
  core::Pif& pif() noexcept { return pif_; }
  void on_tick(sim::Context& ctx) override { pif_.tick(ctx); }
  void on_message(sim::Context& ctx, int ch, const Message& m) override {
    pif_.handle_message(ctx, ch, m);
  }
  bool tick_enabled() const override { return pif_.tick_enabled(); }
  void randomize(Rng& rng) override { pif_.randomize(rng); }

 private:
  core::Pif pif_;
};

// Drives the Figure-1 adversarial prelude against a protocol using flag
// range {0..F}: the stale fuel of a capacity-1 link can fake exactly three
// increments (one stale echo per channel direction plus the responder's
// stale NeigState). A protocol with F <= 3 therefore ghost-decides without
// the responder ever seeing the broadcast; F >= 4 (the paper's 2c+2)
// survives and completes correctly under a fair schedule.
FlagCell flag_ablation(std::int32_t flag_bound) {
  FlagCell cell;
  cell.configurations = 1;
  Simulator world(2, 1, 5);
  world.add_process(std::make_unique<AblatedPifProcess>(1, flag_bound));
  world.add_process(std::make_unique<AblatedPifProcess>(1, flag_bound));
  auto& net = world.network();
  net.channel(1, 0).push(
      Message::pif(Value::text("junk"), Value::text("junk"), 0, 0));
  net.channel(0, 1).push(
      Message::pif(Value::text("junk"), Value::text("junk"), 2, 0));
  auto& q = world.process_as<AblatedPifProcess>(1).pif();
  q.mutable_state().neig_state[0] = 1;
  q.request(Value::text("mq"));

  auto& p = world.process_as<AblatedPifProcess>(0).pif();
  p.request(Value::text("m"));
  world.log().emit(sim::Observation{0, 0, sim::Layer::Pif,
                                    sim::ObsKind::RequestWait, -1,
                                    Value::text("m")});
  // The scripted prelude: three stale increments, no genuine round trip.
  world.execute(sim::Step::tick(0));        // p starts; send dies on full
  world.execute(sim::Step::deliver(1, 0));  // stale echo 0
  world.execute(sim::Step::tick(1));        // q starts, echoes NeigState 1
  world.execute(sim::Step::deliver(1, 0));  // stale echo 1
  world.execute(sim::Step::deliver(0, 1));  // q eats stale flag-2, echoes 2
  world.execute(sim::Step::deliver(1, 0));  // stale echo 2
  world.execute(sim::Step::tick(0));        // p decides iff State == F

  if (!p.done()) {
    // The bound resisted the prelude; finish fairly and verify the spec.
    world.set_scheduler(std::make_unique<sim::RandomScheduler>(7));
    const auto reason = world.run(100'000, [](Simulator& s) {
      return s.process_as<AblatedPifProcess>(0).pif().done();
    });
    if (reason != Simulator::StopReason::Predicate) return cell;
  }
  ++cell.completed;
  const auto report = core::check_pif_spec(
      world, {.require_termination = false, .require_start = false});
  if (!report.ok()) ++cell.violations;
  return cell;
}

struct OrderCell {
  int runs = 0;
  int poisoned = 0;
};

OrderCell order_ablation(bool unsafe_order, int n, int trials,
                         std::uint64_t seed0) {
  OrderCell cell;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(t);
    std::vector<std::int64_t> ids;
    Rng id_rng(seed * 13);
    for (int i = 0; i < n; ++i)
      ids.push_back(id_rng.range(1, 10'000) * 100 + i);
    const std::int64_t true_min =
        *std::min_element(ids.begin(), ids.end());

    Simulator world(n, 1, seed);
    for (int i = 0; i < n; ++i)
      world.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
          .id = ids[static_cast<std::size_t>(i)], .degree = n - 1,
          .with_idl = true, .unsafe_lower_layer_first = unsafe_order}));
    Rng rng(seed ^ 0xAB1A);
    sim::fuzz(world, rng);
    world.set_scheduler(std::make_unique<sim::RandomScheduler>(seed + 1));
    for (int p = 0; p < n; ++p)
      world.process_as<svc::ServiceHost>(p).idl().request();
    const auto reason = world.run(3'000'000, [n](Simulator& s) {
      for (int p = 0; p < n; ++p)
        if (!s.process_as<svc::ServiceHost>(p).idl().done()) return false;
      return true;
    });
    if (reason != Simulator::StopReason::Predicate) continue;
    ++cell.runs;
    for (int p = 0; p < n; ++p)
      if (world.process_as<svc::ServiceHost>(p).idl().min_id() != true_min) {
        ++cell.poisoned;
        break;
      }
  }
  return cell;
}

}  // namespace
}  // namespace snapstab::bench

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::bench;
  CliArgs args(argc, argv, {"trials", "seed", "json"});
  const int trials = static_cast<int>(args.get_int("trials", 120));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1300));

  banner("exp_ablation", "design-choice ablations (DESIGN.md §6)",
         "A) flag range {0..F}: F < 2c+2 is unsound, the paper's constant\n"
         "is tight. B) stack tick order: lower-layer-first reopens the\n"
         "ghost-feedback window and poisons IDL's minID.");

  std::printf(
      "--- A: flag-range ablation (capacity 1, scripted Figure-1 prelude) "
      "---\n");
  TextTable flags({"flag bound F", "configurations", "completed",
                   "spec violations", "sound?"});
  bool small_unsound = false;
  bool paper_sound = true;
  for (std::int32_t bound : {2, 3, 4, 5, 6}) {
    const auto cell = flag_ablation(bound);
    if (bound < 4 && cell.violations > 0) small_unsound = true;
    if (bound >= 4 && cell.violations > 0) paper_sound = false;
    flags.add_row({TextTable::cell(static_cast<int>(bound)),
                   TextTable::cell(cell.configurations),
                   TextTable::cell(cell.completed),
                   TextTable::cell(cell.violations),
                   cell.violations == 0 ? "yes" : "NO"});
  }
  flags.print();

  std::printf("\n--- B: stack tick-order ablation (IDL over PIF, n = 8) ---\n");
  TextTable order({"tick order", "runs", "runs with poisoned minID"});
  const auto safe = order_ablation(false, 8, trials, seed);
  const auto unsafe = order_ablation(true, 8, trials, seed);
  order.add_row({"upper layer first (ours)", TextTable::cell(safe.runs),
                 TextTable::cell(safe.poisoned)});
  order.add_row({"lower layer first (naive)", TextTable::cell(unsafe.runs),
                 TextTable::cell(unsafe.poisoned)});
  order.print();

  verdict(small_unsound,
          "every flag bound below the paper's 2c+2 admitted violations");
  verdict(paper_sound, "the paper's bound (and larger) stayed sound");
  verdict(safe.poisoned == 0 && unsafe.poisoned > 0,
          "the upper-layer-first composition eliminates the minID "
          "poisoning the naive order exhibits");

  BenchJson json("exp_ablation");
  json.set("trials", trials);
  json.set("small_unsound", small_unsound);
  json.set("paper_sound", paper_sound);
  json.set("safe_order_poisoned", safe.poisoned);
  json.set("unsafe_order_poisoned", unsafe.poisoned);
  json.write_if_requested(args);
  return 0;
}
