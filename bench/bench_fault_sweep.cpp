// Fault sweep: accuracy and wire cost of the CR distributed replay on a
// lossy fabric, across drop rate x reorder delay, plus a site-crash
// scenario. Not a paper table -- the paper assumes reliable links -- but
// the robustness counterpart to Table 5: what the ack/retransmit protocol
// (dist/network.h) costs in bytes and what faults cost in accuracy.
//
// Expected shape: containment error is flat across the sweep (the ARQ
// layer delivers exactly-once, so inference sees the same migrations; only
// arrival timing shifts within an epoch) while total bytes grow with the
// drop rate -- the reliability tax is retransmitted frames plus the ack
// stream. The crash row completes with finite error and a durable
// recovery: the rebuilt site restores its checkpoint and replays its
// frame-WAL tail.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "dist/distributed.h"
#include "obs/telemetry.h"

namespace rfid {
namespace {

int64_t CounterValue(const obs::MetricsRegistry& reg,
                     const std::string& name) {
  for (const obs::MetricsRegistry::Entry& e : reg.Entries()) {
    if (e.name == name && e.counter != nullptr) return e.counter->value();
  }
  return 0;
}

struct SweepPoint {
  double drop = 0.0;
  double reorder = 0.0;
  Epoch delay_max = 0;
};

int Main() {
  bench::PrintHeader("Fault sweep: lossy links and site crashes",
                     "accuracy + reliability tax vs drop/reorder rate");
  SupplyChainSim sim(bench::MultiWarehouse(
      /*read_rate=*/0.8, /*anomaly_interval=*/0, /*horizon=*/2400,
      /*seed=*/9100));
  sim.Run();
  const Epoch horizon = sim.config().horizon;

  TablePrinter table({"Drop", "Reorder", "Error%", "Bytes", "Retx",
                      "RetxBytes", "AckBytes", "DupDrops", "Flush",
                      "Delivered"});
  obs::RunReport report = bench::MakeReport("fault");

  const SweepPoint kSweep[] = {
      {0.0, 0.0, 0},  {0.02, 0.0, 0},  {0.05, 0.0, 0},
      {0.02, 0.1, 2}, {0.05, 0.1, 2},  {0.1, 0.2, 8},
  };
  for (const SweepPoint& pt : kSweep) {
    DistributedOptions opts;
    opts.site.migration = MigrationMode::kCollapsed;
    opts.trace = false;
    opts.network.faults = FaultModel{};
    opts.network.faults.drop = pt.drop;
    opts.network.faults.reorder = pt.reorder;
    opts.network.faults.reorder_delay_min = pt.delay_max > 0 ? 1 : 0;
    opts.network.faults.reorder_delay_max = pt.delay_max;
    opts.network.faults.seed = 777;
    DistributedSystem sys(&sim, opts);
    sys.Run();

    const double err = sys.AverageContainmentErrorPercent(/*warmup=*/300);
    const Network& net = sys.network();
    const bool delivered = !net.reliable() || net.AllReliableDelivered();
    table.AddRow(
        {TablePrinter::Fmt(pt.drop, 2), TablePrinter::Fmt(pt.reorder, 2),
         TablePrinter::Fmt(err, 2), std::to_string(net.total_bytes()),
         std::to_string(net.reliable_stats().retransmits),
         std::to_string(net.reliable_stats().retransmit_bytes),
         std::to_string(net.BytesOfKind(MessageKind::kAck)),
         std::to_string(net.reliable_stats().dup_drops),
         std::to_string(sys.reliability_flush_epochs()),
         delivered ? "yes" : "NO"});

    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("drop", pt.drop);
    row.Set("reorder", pt.reorder);
    row.Set("reorder_delay_max", static_cast<int64_t>(pt.delay_max));
    row.Set("containment_error_percent", err);
    row.Set("total_bytes", net.total_bytes());
    row.Set("fault_drops", net.fault_stats().drops);
    row.Set("fault_reorders", net.fault_stats().reorders);
    row.Set("retransmits", net.reliable_stats().retransmits);
    row.Set("retransmit_bytes", net.reliable_stats().retransmit_bytes);
    row.Set("ack_bytes", net.BytesOfKind(MessageKind::kAck));
    row.Set("dup_drops", net.reliable_stats().dup_drops);
    row.Set("flush_epochs", static_cast<int64_t>(
                                sys.reliability_flush_epochs()));
    row.Set("all_delivered", delivered);
    report.AddRow("sweep", std::move(row));
  }
  table.Print();
  std::printf(
      "expected shape: Error%% flat across the sweep (exactly-once delivery\n"
      "hides the loss from inference); Bytes/Retx/AckBytes grow with the\n"
      "drop rate -- the reliability tax. Delivered must read yes on every\n"
      "row.\n\n");

  // Crash scenario: one mid-window crash on the lossy fabric, with durable
  // sites. The victim is the busiest migration target up to the crash
  // epoch; its replacement restores its newest checkpoint, re-feeds the
  // frame-WAL tail, and replays its own trace up to the recovery epoch.
  // Rebuild wall-time and the durability counters land in the row below.
  const std::string scratch = bench::MakeScratchDir("rfid_bench_fault_");
  {
    const Epoch crash_at = 3 * horizon / 4;
    const Epoch recover_at = std::min<Epoch>(horizon, crash_at + 300);
    std::vector<int> inbound(sim.config().num_warehouses, 0);
    for (const ObjectTransfer& tr : sim.transfers()) {
      if (tr.to != kNoSite && tr.arrive < crash_at) ++inbound[tr.to];
    }
    SiteId victim = 0;
    for (SiteId s = 1; s < (SiteId)inbound.size(); ++s) {
      if (inbound[s] > inbound[victim]) victim = s;
    }
    DistributedOptions opts;
    opts.site.migration = MigrationMode::kCollapsed;
    opts.trace = false;
    opts.network.faults = FaultModel{};
    opts.network.faults.drop = 0.02;
    opts.network.faults.seed = 777;
    opts.durability.dir = scratch;
    opts.crashes.push_back(CrashEvent{victim, crash_at, recover_at});
    DistributedSystem sys(&sim, opts);
    sys.Run();

    const double err = sys.AverageContainmentErrorPercent(/*warmup=*/300);
    const Network& net = sys.network();
    const bool delivered = net.AllReliableDelivered();
    const DurabilityStats durable = sys.DurabilityTotals();
    const obs::MetricsRegistry& reg = sys.telemetry()->registry();
    const int64_t recovery_ns =
        sys.telemetry()->phase_histogram(obs::Phase::kCrashRecovery)
            .Snapshot()
            .sum;
    std::printf(
        "--- crash scenario (site %d down [%lld, %lld), drop 0.02) ---\n",
        victim, static_cast<long long>(crash_at),
        static_cast<long long>(recover_at));
    std::printf(
        "crashes=%lld recoveries=%lld error=%.2f%% replayed_frames=%lld\n"
        "checkpoints=%lld rebuild_ms=%.2f delivered=%s\n\n",
        static_cast<long long>(CounterValue(reg, "crash/crashes")),
        static_cast<long long>(CounterValue(reg, "crash/durable_recoveries")),
        err, static_cast<long long>(durable.replayed_frames),
        static_cast<long long>(durable.checkpoints),
        static_cast<double>(recovery_ns) / 1e6, delivered ? "yes" : "NO");

    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("drop", 0.02);
    row.Set("crashes", CounterValue(reg, "crash/crashes"));
    row.Set("recoveries", CounterValue(reg, "crash/durable_recoveries"));
    row.Set("containment_error_percent", err);
    row.Set("error_is_finite", !std::isnan(err));
    row.Set("replayed_frames", durable.replayed_frames);
    row.Set("checkpoints", durable.checkpoints);
    row.Set("rebuild_ms", static_cast<double>(recovery_ns) / 1e6);
    row.Set("retransmits", net.reliable_stats().retransmits);
    row.Set("all_delivered", delivered);
    report.AddRow("crash", std::move(row));
    report.AddMetrics(reg);
  }
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);

  bench::FinishReport(report, "fault");
  return 0;
}

}  // namespace
}  // namespace rfid

int main() { return rfid::Main(); }
