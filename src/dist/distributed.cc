#include "dist/distributed.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"

namespace rfid {

std::string ToString(ProcessingMode mode) {
  switch (mode) {
    case ProcessingMode::kDistributed:
      return "distributed";
    case ProcessingMode::kCentralized:
      return "centralized";
  }
  return "unknown";
}

std::vector<CrashEvent> SeededCrashSchedule(uint64_t seed, int num_sites,
                                            Epoch horizon, int count,
                                            Epoch outage) {
  std::vector<CrashEvent> out;
  if (num_sites <= 0 || horizon <= 2 || count <= 0) return out;
  Rng rng(seed);
  // Crashes land in the middle half of the horizon: early enough that
  // recovery traffic shows up in the run, late enough that there is
  // pre-crash state worth losing.
  const Epoch lo = std::max<Epoch>(1, horizon / 4);
  const Epoch span = std::max<Epoch>(1, horizon / 2);
  for (int i = 0; i < count; ++i) {
    CrashEvent c;
    c.site = static_cast<SiteId>(
        rng.NextBounded(static_cast<uint64_t>(num_sites)));
    c.at = lo + static_cast<Epoch>(
        rng.NextBounded(static_cast<uint64_t>(span)));
    c.recover_at =
        std::min<Epoch>(horizon, c.at + std::max<Epoch>(1, outage));
    if (c.recover_at > c.at) out.push_back(c);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const CrashEvent& a, const CrashEvent& b) {
                     return a.at < b.at;
                   });
  // Drop crashes that overlap (or abut) an earlier outage of the same
  // site; the survivors always form a valid schedule.
  std::vector<CrashEvent> valid;
  for (const CrashEvent& c : out) {
    bool overlap = false;
    for (const CrashEvent& v : valid) {
      if (v.site == c.site && c.at <= v.recover_at) overlap = true;
    }
    if (!overlap) valid.push_back(c);
  }
  return valid;
}

DistributedSystem::DistributedSystem(
    const SupplyChainSim* sim, DistributedOptions options,
    const ProductCatalog* catalog,
    const std::vector<SensorReading>* sensors)
    : sim_(sim),
      options_(std::move(options)),
      catalog_(catalog),
      sensors_(sensors) {
  const int num_processors =
      centralized() ? 1 : sim_->config().num_warehouses;
  // Telemetry before the transport, so the backend is instrumented from
  // the first frame. Disabled = null pointer everywhere downstream.
  if (options_.collect_metrics) {
    const std::string trace_path =
        !options_.trace ? std::string()
        : options_.trace_path.empty() ? obs::TracePathFromEnv()
                                      : options_.trace_path;
    telemetry_ = std::make_unique<obs::Telemetry>(trace_path);
  }
  network_.SetTelemetry(telemetry_.get());
  // Transport next: the backend must be in place before any frame is
  // sent. The socket backend binds one loopback listener per processor
  // (remote sites in centralized mode only ever send, so they need none).
  network_.ConfigureTransport(options_.transport, num_processors);
  network_.Configure(options_.network);
  // The centralized baseline has no directory to consult (everything lives
  // at the server), so only the distributed deployment pays ONS traffic.
  if (!centralized()) {
    OnsOptions ons_opts;
    ons_opts.num_shards = options_.directory_shards > 0
                              ? options_.directory_shards
                              : num_processors;
    ons_opts.num_sites = num_processors;
    ons_opts.resolver_cache = options_.directory_cache;
    ons_.Configure(ons_opts);
    ons_.AttachNetwork(&network_);
  }
  // Crash schedules only make sense against the distributed deployment
  // with durable sites: a crashed site recovers from its own checkpoint +
  // WAL on disk, so it may restart within the crash epoch
  // (recover_at == at) at any CrashPhase.
  const bool durable_storage = options_.durability.enabled();
  if (!options_.crashes.empty()) {
    RFID_CHECK_OK(centralized()
                      ? Status::InvalidArgument(
                            "crash schedule requires distributed mode")
                      : Status::OK());
    RFID_CHECK_OK(durable_storage
                      ? Status::OK()
                      : Status::InvalidArgument(
                            "crash schedule requires durability.dir"));
    Epoch prev_at = 0;
    for (const CrashEvent& c : options_.crashes) {
      const bool ok = c.site >= 0 && c.site < num_processors && c.at > 0 &&
                      c.recover_at >= c.at && c.at >= prev_at;
      RFID_CHECK_OK(ok ? Status::OK()
                       : Status::InvalidArgument("invalid crash schedule"));
      prev_at = c.at;
    }
    for (size_t i = 0; i < options_.crashes.size(); ++i) {
      for (size_t j = i + 1; j < options_.crashes.size(); ++j) {
        const CrashEvent& a = options_.crashes[i];
        const CrashEvent& b = options_.crashes[j];
        RFID_CHECK_OK(a.site == b.site && b.at <= a.recover_at
                          ? Status::InvalidArgument(
                                "overlapping crash windows for one site")
                          : Status::OK());
      }
    }
  }
  // Durable stores open before the sites so MakeSite can attach them; the
  // stores outlive any individual Site object (a crashed site's
  // replacement reopens the same on-disk state). The replay starts at
  // epoch 0, so a store holding a previous run's checkpoints or WAL
  // records would be resumed, and pruned, as if this run had written it.
  if (durable_storage) {
    durabilities_.reserve(static_cast<size_t>(num_processors));
    for (SiteId s = 0; s < num_processors; ++s) {
      auto d = std::make_unique<SiteDurability>(options_.durability, s);
      RFID_CHECK_OK(d->Open());
      RFID_CHECK_OK(d->HoldsState()
                        ? Status::InvalidArgument(
                              "durability.dir " + options_.durability.dir +
                              " holds a previous run's state; a replay "
                              "needs an unused directory")
                        : Status::OK());
      durabilities_.push_back(std::move(d));
    }
  }
  sites_.reserve(static_cast<size_t>(num_processors));
  for (SiteId s = 0; s < num_processors; ++s) {
    sites_.push_back(MakeSite(s));
  }
  cursors_.assign(static_cast<size_t>(sim_->config().num_warehouses), 0);
}

std::unique_ptr<Site> DistributedSystem::MakeSite(SiteId s) {
  auto site = std::make_unique<Site>(s, &sim_->model(), &sim_->schedule(),
                                     &network_, options_.site);
  Site* raw = site.get();
  raw->SetTelemetry(telemetry_.get());
  raw->set_pool(pool_);
  if (!durabilities_.empty()) {
    raw->AttachDurability(durabilities_[static_cast<size_t>(s)].get());
  }
  network_.RegisterHandler(
      s, [raw](SiteId from, MessageKind kind,
               const std::vector<uint8_t>& payload) {
        raw->HandleMessage(from, kind, payload);
      });
  if (options_.attach_queries && catalog_ != nullptr) {
    raw->AttachQueries(catalog_, options_.q1, options_.q2);
    if (sensors_ != nullptr) {
      for (const SensorReading& r : *sensors_) {
        if (centralized()) {
          if (s == 0) raw->AddSensor(r);
        } else if (sim_->layout().SiteOfLocation(r.loc) == s) {
          raw->AddSensor(r);
        }
      }
    }
  }
  return site;
}

DistributedSystem::~DistributedSystem() = default;

void DistributedSystem::Run() {
  if (ran_) return;
  ran_ = true;
  // Run's body IS the serial phase; workers it fans out only take shared
  // reads (BelievedContainer, IsSiteDown).
  phase_.AssertHeld();

  const Epoch horizon = sim_->config().horizon;
  const Epoch period = options_.site.streaming.inference_period;
  const GroundTruth& truth = sim_->truth();
  const int num_warehouses = sim_->config().num_warehouses;

  // Objects enter the directory when they enter the world (all pallets are
  // injected at the source warehouse, site 0).
  std::vector<std::pair<Epoch, TagId>> injections;
  auto add_tags = [&](const std::vector<TagId>& tags) {
    for (TagId tag : tags) {
      const auto& ivs = truth.IntervalsOf(tag);
      if (!ivs.empty()) injections.emplace_back(ivs.front().begin, tag);
    }
  };
  add_tags(sim_->all_pallets());
  add_tags(sim_->all_cases());
  add_tags(sim_->all_items());
  std::stable_sort(injections.begin(), injections.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });

  // Transfers indexed by arrival and by departure epoch.
  const std::vector<ObjectTransfer>& transfers = sim_->transfers();
  std::vector<size_t> by_arrive(transfers.size());
  std::vector<size_t> by_depart(transfers.size());
  std::iota(by_arrive.begin(), by_arrive.end(), size_t{0});
  std::iota(by_depart.begin(), by_depart.end(), size_t{0});
  std::stable_sort(by_arrive.begin(), by_arrive.end(),
                   [&](size_t a, size_t b) {
                     return transfers[a].arrive < transfers[b].arrive;
                   });
  std::stable_sort(by_depart.begin(), by_depart.end(),
                   [&](size_t a, size_t b) {
                     return transfers[a].depart < transfers[b].depart;
                   });

  // ---- Event schedule: the only epochs at which anything can happen ----
  // Injections, transfer departures/arrivals (ownership, exports,
  // deliveries), inference-period boundaries (runs and centralized
  // flushes), and the horizon itself. Epochs in between only carry raw
  // readings, which are ingested as whole batched windows at the next
  // event, so idle epochs -- and idle sites -- cost nothing.
  std::vector<Epoch> events;
  events.reserve(injections.size() + 2 * transfers.size() +
                 static_cast<size_t>(horizon / std::max<Epoch>(1, period)) +
                 2);
  for (const auto& [epoch, tag] : injections) {
    if (epoch <= horizon) events.push_back(epoch);
  }
  for (const ObjectTransfer& tr : transfers) {
    if (tr.depart <= horizon) events.push_back(tr.depart);
    if (tr.arrive <= horizon) events.push_back(tr.arrive);
  }
  for (Epoch b = period; b > 0 && b <= horizon; b += period) {
    events.push_back(b);
  }
  for (const CrashEvent& c : options_.crashes) {
    if (c.at <= horizon) events.push_back(c.at);
    if (c.recover_at <= horizon) events.push_back(c.recover_at);
  }
  events.push_back(horizon);
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());

  // Built here rather than in the constructor, so setup does not pay for
  // thread spawn. Threads beyond the site count still pay off: they split
  // the inference runs of the sites still computing (in centralized mode,
  // the one server's).
  SiteExecutor executor(options_.num_threads);
  pool_ = &executor;
  for (auto& site : sites_) site->set_pool(pool_);
  // Centralized mode: a remote site's un-flushed readings pend as the
  // range [flush_begin[s], cursors_[s]) of its immutable simulator trace
  // -- the boundary flush encodes straight from that span, so no reading
  // is ever staged through an intermediate copy.
  std::vector<size_t> flush_begin(static_cast<size_t>(num_warehouses), 0);
  std::vector<SiteId> ready;
  ready.reserve(sites_.size());
  std::vector<int> ran(sites_.size(), 0);

  size_t inj = 0;
  size_t arr = 0;
  size_t dep = 0;
  size_t crash_idx = 0;
  std::vector<CrashEvent> outstanding;  // crashed, not yet recovered
  std::vector<SiteId> recovered;        // recovered at this event
  std::vector<CrashEvent> deferred;     // this event's post-drain kills
  for (Epoch t : events) {
    // -- Serial: advance the wall clock (send epochs), then drain every
    // processor's delivery queue of frames whose arrival epoch has
    // passed. Messages sent at earlier events were in flight until now;
    // handlers (HandleMessage) run here, serially, so the parallel site
    // phase below only ever sees site-local inbound queues.
    network_.AdvanceClock(t);

    // -- Serial: scheduled failures. Recovering sites stay marked down
    // through the drain -- the replacement must restore its checkpoint and
    // WAL before any backlog applies, so RecoverSiteDurable drains the
    // fabric itself afterwards. Mid-window crashes strike before the drain
    // (the dead process never sees this epoch's frames); post-drain and
    // mid-flush kills defer until after the sweep and its WAL flush.
    recovered.clear();
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      if (it->recover_at <= t) {
        recovered.push_back(it->site);
        it = outstanding.erase(it);
      } else {
        ++it;
      }
    }
    deferred.clear();
    while (crash_idx < options_.crashes.size() &&
           options_.crashes[crash_idx].at <= t) {
      const CrashEvent& c = options_.crashes[crash_idx];
      if (c.phase == CrashPhase::kMidWindow) {
        CrashSite(c.site, c.at);
        if (c.recover_at <= t) {
          recovered.push_back(c.site);  // immediate restart
        } else {
          outstanding.push_back(c);
        }
      } else {
        deferred.push_back(c);
      }
      ++crash_idx;
    }
    network_.TickReliability(t);
    {
      obs::PhaseTimer span(telemetry_.get(), obs::Phase::kQueueDrain, t);
      for (SiteId s = 0; s < static_cast<SiteId>(sites_.size()); ++s) {
        // A mid-flush kill caps this site's drain at one frame: the WAL
        // flush below makes that prefix durable, the crash strikes, and
        // the unconsumed suffix waits in the fabric (append-before-apply:
        // no frame is both lost from disk and popped from the network).
        int max_frames = -1;
        for (const CrashEvent& c : deferred) {
          if (c.site == s && c.phase == CrashPhase::kMidFlush) max_frames = 1;
        }
        network_.DeliverDue(s, t, max_frames);
      }
    }
    // -- Serial: make this drain's WAL appends durable, one batched
    // fsync per site per event.
    if (durable()) {
      obs::PhaseTimer span(telemetry_.get(), obs::Phase::kWalAppend, t);
      for (SiteId s = 0; s < static_cast<SiteId>(sites_.size()); ++s) {
        if (network_.IsSiteDown(s)) continue;
        RFID_CHECK_OK(durabilities_[static_cast<size_t>(s)]->Flush());
      }
    }
    for (const CrashEvent& c : deferred) {
      CrashSite(c.site, c.at);
      if (c.recover_at <= t) {
        recovered.push_back(c.site);
      } else {
        outstanding.push_back(c);
      }
    }
    for (SiteId s : recovered) {
      network_.SetSiteDown(s, false);
      RecoverSiteDurable(s, t);
    }

    // -- Serial: directory bookkeeping due at t. The centralized
    // deployment keeps no directory: site 0 answers for every tag.
    {
      obs::PhaseTimer span(telemetry_.get(), obs::Phase::kDirectory, t);
      while (inj < injections.size() && injections[inj].first <= t) {
        if (!centralized()) ons_.Register(injections[inj].second, 0);
        ++inj;
      }

      while (arr < by_arrive.size() &&
             transfers[by_arrive[arr]].arrive <= t) {
        const ObjectTransfer& tr = transfers[by_arrive[arr]];
        ++arr;
        if (tr.to == kNoSite || centralized()) continue;
        // The destination locates the group's previous owner before taking
        // over (the handoff's "who do I pull stragglers from" resolution).
        // Nothing moved since the departure-time resolution, so with the
        // resolver cache enabled this repeat costs zero wire bytes.
        ons_.Resolve(tr.pallet, tr.to);
        auto reassign = [&](TagId tag) {
          phase_.AssertHeld();  // lambda body: re-establish for analysis
          ons_.Register(tag, tr.to);
        };
        reassign(tr.pallet);
        for (TagId c : tr.cases) reassign(c);
        for (TagId o : tr.items) reassign(o);
      }
    }

    const bool boundary = period > 0 && t > 0 && t % period == 0;

    // -- Serial, centralized mode: the remote sites' readings. Every
    // remote cursor advances here (a cheap scan over the trace); the
    // readings pend as trace ranges until a boundary flush ships them to
    // the server, where they are due at their send epoch t: the server
    // ingests them before this boundary's run (a reorder fault can still
    // defer a batch to a later drain).
    if (centralized()) {
      for (SiteId s = 1; s < num_warehouses; ++s) {
        const std::vector<RawReading>& rs = sim_->site_trace(s).readings();
        size_t& c = cursors_[static_cast<size_t>(s)];
        while (c < rs.size() && rs[c].time <= t) ++c;
      }
      if (boundary || t == horizon) {
        obs::PhaseTimer span(telemetry_.get(), obs::Phase::kFlushEncode, t);
        for (SiteId s = 1; s < num_warehouses; ++s) {
          const size_t si = static_cast<size_t>(s);
          if (flush_begin[si] == cursors_[si]) continue;
          const std::vector<RawReading>& rs = sim_->site_trace(s).readings();
          network_.Send(s, 0, MessageKind::kRawReadings,
                        EncodeReadingBatch(rs.data() + flush_begin[si],
                                           cursors_[si] - flush_begin[si]));
          flush_begin[si] = cursors_[si];
        }
        network_.DeliverDue(0, t);
      }
    }

    // -- Parallel site phase: every up site with a window due or a
    // boundary at t takes its step. Each work item touches exactly one
    // site, so the fan-out is race-free. A down site's process is gone:
    // its readings stay in the trace (cursor frozen) until the recovery
    // rebuild replays them.
    ready.clear();
    for (SiteId s = 0; s < static_cast<SiteId>(sites_.size()); ++s) {
      if (network_.IsSiteDown(s)) continue;
      if (boundary || HasWindow(s, t)) ready.push_back(s);
    }
    executor.Run(ready.size(), [&](size_t i, int) {
      ran[i] = StepSite(ready[i], t, boundary);
    });
    bool any_ran = false;
    for (size_t i = 0; i < ready.size(); ++i) any_ran = any_ran || ran[i] > 0;

    // -- Serial boundary phase: exports, directory updates, accounting.
    {
      obs::PhaseTimer span(telemetry_.get(), obs::Phase::kDirectory, t);
      while (dep < by_depart.size() &&
             transfers[by_depart[dep]].depart <= t) {
        const ObjectTransfer& tr = transfers[by_depart[dep]];
        ++dep;
        if (centralized()) {
          if (tr.to == kNoSite) sites_[0]->Retire(tr);
        } else {
          // Locate the exporting site through the directory, the way a
          // real deployment resolves an object's current owner; the
          // destination (or, for supply-chain exits, the departing site)
          // is the charged requester. The Resolve is wire traffic; the
          // export itself is driven by the transfer record, and with exact
          // cache invalidation the two always agree.
          ons_.Resolve(tr.pallet, tr.to != kNoSite ? tr.to : tr.from);
          const SiteId from = tr.from;
          // A transfer departing a down site is exported by that site's
          // catch-up replay when it recovers (RecoverSiteDurable).
          if (from >= 0 && from < static_cast<SiteId>(sites_.size()) &&
              !network_.IsSiteDown(from)) {
            sites_[static_cast<size_t>(from)]->ExportTransfer(tr);
          }
        }
        if (tr.to == kNoSite && !centralized()) {
          auto drop = [&](TagId tag) {
            phase_.AssertHeld();  // lambda body: re-establish for analysis
            ons_.Unregister(tag);
          };
          drop(tr.pallet);
          for (TagId c : tr.cases) drop(c);
          for (TagId o : tr.items) drop(o);
        }
      }
    }

    // Sample accuracy whenever inference ran, and always at the horizon:
    // when the horizon is not a multiple of the inference period the final
    // stretch of the run would otherwise never be measured.
    if (any_ran || t == horizon) {
      obs::PhaseTimer span(telemetry_.get(), obs::Phase::kSnapshotScan, t);
      RecordSnapshot(t, &executor);
    }

    // -- Durable checkpoints at the cadence boundaries, one pool item per
    // up site: each encodes only its own site and writes only its own
    // directory and WAL. The cut point matters: every arrival due at t has
    // installed, every export departing at t has been taken, so "state at
    // the end of boundary t" is exactly what the encoder captures -- and
    // WAL segments after this cut contain precisely the frames drained
    // after it.
    if (durable() && boundary && options_.site.checkpoint_every > 0 &&
        (t / period) % options_.site.checkpoint_every == 0) {
      obs::PhaseTimer span(telemetry_.get(), obs::Phase::kCheckpoint, t);
      ready.clear();
      for (SiteId s = 0; s < static_cast<SiteId>(sites_.size()); ++s) {
        if (!network_.IsSiteDown(s)) ready.push_back(s);
      }
      executor.Run(ready.size(), [&](size_t i, int) {
        const size_t si = static_cast<size_t>(ready[i]);
        RFID_CHECK_OK(durabilities_[si]->WriteCheckpoint(
            t, sites_[si]->EncodeCheckpoint(t)));
      });
    }
  }

  // -- Reliability flush: with faults on, the last window's frames (or
  // their retransmissions) can still be unacked at the horizon. Keep the
  // clock ticking in RTO steps until the protocol drains -- deliveries
  // after the horizon only top up inbound queues (no inference boundary
  // runs anymore), so results are unaffected, but the byte accounting ends
  // complete and AllReliableDelivered() can hold.
  if (network_.reliable()) {
    const Epoch step =
        std::max<Epoch>(1, options_.network.reliability.rto);
    Epoch t = horizon;
    int idle = 0;
    for (int guard = 0; idle < 3 && guard < 10000; ++guard) {
      t += step;
      network_.AdvanceClock(t);
      network_.TickReliability(t);
      int delivered = 0;
      for (SiteId s = 0; s < static_cast<SiteId>(sites_.size()); ++s) {
        delivered += network_.DeliverDue(s, t);
      }
      idle = delivered == 0 && !network_.HasReliabilityWork() ? idle + 1 : 0;
    }
    reliability_flush_epochs_ = t - horizon;
  }
  // The pool ends with Run; inference calls made afterwards run serially.
  for (auto& site : sites_) site->set_pool(nullptr);
  pool_ = nullptr;

  // Final durability flush: frames delivered after the last event's WAL
  // flush (the reliability flush, the centralized horizon flush) pend
  // until here. Then surface the counters with the run's other metrics.
  if (durable()) {
    for (auto& d : durabilities_) RFID_CHECK_OK(d->Flush());
    if (telemetry_ != nullptr) {
      const DurabilityStats totals = DurabilityTotals();
      auto& reg = telemetry_->registry();
      reg.GetCounter("durability/wal_appends")->Add(totals.wal_appends);
      reg.GetCounter("durability/wal_bytes")->Add(totals.wal_bytes);
      reg.GetCounter("durability/wal_fsyncs")->Add(totals.wal_fsyncs);
      reg.GetCounter("durability/checkpoints")->Add(totals.checkpoints);
      reg.GetCounter("durability/checkpoint_bytes")
          ->Add(totals.checkpoint_bytes);
      reg.GetCounter("durability/replayed_frames")
          ->Add(totals.replayed_frames);
    }
  }

  if (telemetry_ != nullptr && telemetry_->tracing()) {
    const Status st = telemetry_->sink()->WriteJson(
        telemetry_->trace_path(), num_processors());
    if (!st.ok()) {
      // A bad trace path should cost the diagnostics, not the replay.
      std::fprintf(stderr, "rfid: trace not written: %s\n",
                   st.ToString().c_str());
    }
  }
}

bool DistributedSystem::HasWindow(SiteId s, Epoch t) const {
  const std::vector<RawReading>& rs = sim_->site_trace(s).readings();
  const size_t c = cursors_[static_cast<size_t>(s)];
  return sites_[static_cast<size_t>(s)]->HasArrivalsDue(t) ||
         (c < rs.size() && rs[c].time <= t);
}

int DistributedSystem::StepSite(SiteId s, Epoch t, bool boundary) {
  Site& site = *sites_[static_cast<size_t>(s)];
  const int track = obs::kFirstSiteTrack + static_cast<int>(s);
  if (HasWindow(s, t)) {
    obs::PhaseTimer span(telemetry_.get(), obs::Phase::kWindowCompute, t,
                         track);
    site.DeliverArrivals(t);
    const std::vector<RawReading>& rs = sim_->site_trace(s).readings();
    size_t& c = cursors_[static_cast<size_t>(s)];
    const size_t begin = c;
    while (c < rs.size() && rs[c].time <= t) ++c;
    site.ObserveBatch(rs.data() + begin, c - begin);
  }
  if (!boundary) return 0;
  obs::PhaseTimer span(telemetry_.get(), obs::Phase::kInference, t, track);
  return site.AdvanceTo(t);
}

void DistributedSystem::CrashSite(SiteId s, Epoch at) {
  // Freeze the dead site's current containment answers for every tag the
  // directory maps to it: queries during the outage degrade to this
  // last-known view instead of failing.
  const Site& dead = *sites_[static_cast<size_t>(s)];
  for (const std::vector<TagId>* tags :
       {&sim_->all_pallets(), &sim_->all_cases(), &sim_->all_items()}) {
    for (TagId tag : *tags) {
      if (ons_.Lookup(tag) == s) {
        degraded_beliefs_[tag] = dead.BelievedContainer(tag);
      }
    }
  }
  crash_at_[s] = at;
  // Only the process died: in-flight frames wait out the outage and
  // deliver into the replacement after its restore -- and any WAL bytes
  // the dead process had buffered but not fsynced are honestly lost.
  network_.SetSiteDown(s, true);
  durabilities_[static_cast<size_t>(s)]->DropPending();
  if (telemetry_ != nullptr) {
    telemetry_->registry().GetCounter("crash/crashes")->Add(1);
  }
  // Swap in a pristine replacement process. It receives nothing while the
  // site is down; RecoverSiteDurable rebuilds its state at recover_at.
  sites_[static_cast<size_t>(s)] = MakeSite(s);
}

void DistributedSystem::RecoverSiteDurable(SiteId s, Epoch t) {
  obs::PhaseTimer span(telemetry_.get(), obs::Phase::kCrashRecovery, t);
  auto cit = crash_at_.find(s);
  const Epoch crashed_at = cit == crash_at_.end() ? t : cit->second;
  if (cit != crash_at_.end()) crash_at_.erase(cit);

  SiteDurability* d = durabilities_[static_cast<size_t>(s)].get();
  Site* site = sites_[static_cast<size_t>(s)].get();

  // 1. Restore the newest valid checkpoint cut C (C = 0, empty state,
  // when none exists) and re-feed the post-C WAL tail through the
  // handler in append order. Both are re-executions of already-durable
  // work, so WAL appends stay suppressed.
  d->set_replaying(true);
  Epoch cut = 0;
  std::vector<uint8_t> payload;
  RFID_CHECK_OK(d->LoadCheckpoint(&cut, &payload));
  if (!payload.empty()) {
    RFID_CHECK_OK(site->RestoreCheckpoint(cut, payload));
  }
  std::vector<Frame> wal;
  RFID_CHECK_OK(d->ReadWalSince(cut, &wal));
  for (const Frame& f : wal) {
    site->HandleMessage(f.from, f.kind, f.payload);
  }
  d->set_replaying(false);

  // 2. Drain the outage backlog the fabric retained (and, after a
  // mid-flush kill, the unconsumed suffix of the crash epoch's drain).
  // These frames are new to the WAL and log normally. Because a frame's
  // drain epoch is monotone in its arrival epoch, checkpoint-pending +
  // WAL tail + backlog lands in the inbound queue in exactly the order
  // the uncrashed site would have accumulated.
  network_.DeliverDue(s, t);

  // 3. Catch up from C to t - 1 with the live per-site step, taken at the
  // site's own event epochs in (C, t): its boundaries, its departures,
  // and t - 1. Each departure follows its epoch's step, as the live export
  // follows the site phase. Departures the dead process already exported
  // only drop their query state locally (Retire), never re-send. A
  // transfer that departed while the process was down was never exported
  // at all, so the catch-up exports it for real: the destination installs
  // from the envelope's arrival epoch, and with an all-zero FaultModel the
  // run stays bit-identical to the uncrashed one.
  d->set_replaying(true);
  const Epoch period = options_.site.streaming.inference_period;
  std::vector<const ObjectTransfer*> departs;
  std::vector<Epoch> epochs;
  for (const ObjectTransfer& tr : sim_->transfers()) {
    if (tr.from == s && tr.depart > cut && tr.depart < t) {
      departs.push_back(&tr);
      epochs.push_back(tr.depart);
    }
  }
  std::stable_sort(departs.begin(), departs.end(),
                   [](const ObjectTransfer* a, const ObjectTransfer* b) {
                     return a->depart < b->depart;
                   });
  for (Epoch b = cut + period; period > 0 && b < t; b += period) {
    epochs.push_back(b);
  }
  epochs.push_back(t - 1);
  std::sort(epochs.begin(), epochs.end());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
  const std::vector<RawReading>& rs = sim_->site_trace(s).readings();
  size_t& cur = cursors_[static_cast<size_t>(s)];
  cur = 0;
  while (cur < rs.size() && rs[cur].time <= cut) ++cur;
  size_t di = 0;
  for (Epoch e : epochs) {
    StepSite(s, e, period > 0 && e > cut && e % period == 0);
    for (; di < departs.size() && departs[di]->depart == e; ++di) {
      if (departs[di]->depart >= crashed_at) {
        site->ExportTransfer(*departs[di]);
      } else {
        site->Retire(*departs[di]);
      }
    }
  }
  d->set_replaying(false);
  // The backlog drain's WAL records become durable now rather than at the
  // next event's sweep: recovery ends with disk and state in agreement.
  RFID_CHECK_OK(d->Flush());
  if (telemetry_ != nullptr) {
    telemetry_->registry().GetCounter("crash/durable_recoveries")->Add(1);
  }

  // The site answers live again: drop every degraded entry whose owner is
  // back up (entries for tags owned by a still-down site stay).
  // lint:allow(unordered-iter): pure per-key filter; surviving set is
  // independent of visit order.
  for (auto it = degraded_beliefs_.begin(); it != degraded_beliefs_.end();) {
    const Site* owner = OwnerSite(it->first);
    const bool keep = owner != nullptr && network_.IsSiteDown(owner->id());
    it = keep ? std::next(it) : degraded_beliefs_.erase(it);
  }
}

DurabilityStats DistributedSystem::DurabilityTotals() const {
  DurabilityStats total;
  for (const auto& d : durabilities_) {
    const DurabilityStats& s = d->stats();
    total.wal_appends += s.wal_appends;
    total.wal_bytes += s.wal_bytes;
    total.wal_fsyncs += s.wal_fsyncs;
    total.checkpoints += s.checkpoints;
    total.checkpoint_bytes += s.checkpoint_bytes;
    total.replayed_frames += s.replayed_frames;
    total.torn_tail_records += s.torn_tail_records;
    total.checkpoint_fallbacks += s.checkpoint_fallbacks;
  }
  return total;
}

Site* DistributedSystem::OwnerSite(TagId object) const {
  phase_.AssertShared();
  if (centralized()) return sites_[0].get();
  const SiteId s = ons_.Lookup(object);
  if (s < 0 || s >= static_cast<SiteId>(sites_.size())) return nullptr;
  return sites_[static_cast<size_t>(s)].get();
}

TagId DistributedSystem::BelievedContainer(TagId object) const {
  phase_.AssertShared();
  const Site* site = OwnerSite(object);
  if (site == nullptr) return kNoTag;
  if (network_.IsSiteDown(site->id())) {
    // The owner is mid-outage: answer from its last-known view.
    auto d = degraded_beliefs_.find(object);
    return d == degraded_beliefs_.end() ? kNoTag : d->second;
  }
  return site->BelievedContainer(object);
}

TagId DistributedSystem::BelievedPallet(TagId object) const {
  phase_.AssertShared();
  if (!options_.site.hierarchical) return kNoTag;
  if (!object.is_item()) {
    if (OwnerSite(object) == nullptr) return kNoTag;
    // A pallet is its own pallet; a case's pallet is its believed
    // container (which already falls back to the degraded view when the
    // case's owner is down).
    return object.is_pallet() ? object : BelievedContainer(object);
  }
  // Resolve the item's case at the item's owner, then the case's pallet at
  // the *case's* owner: mid-handoff the two can momentarily differ.
  const TagId c = BelievedContainer(object);
  if (!c.valid() || !c.is_case() || OwnerSite(c) == nullptr) return kNoTag;
  return BelievedContainer(c);
}

ErrorRate DistributedSystem::ScanContainment(const std::vector<TagId>& tags,
                                             Epoch t, SiteExecutor* executor,
                                             bool contained_only) const {
  const GroundTruth& truth = sim_->truth();
  // Fan the per-tag scan across the executor pool: every evaluation is
  // read-only (ground-truth intervals, directory, site beliefs), and the
  // per-thread integer counts sum exactly, so the sampled percentage is
  // bit-identical to the serial scan for any thread or chunk count.
  std::vector<ErrorRate> partial(
      executor == nullptr ? 1 : static_cast<size_t>(executor->num_threads()));
  ForChunks(executor, tags.size(), [&](size_t begin, size_t end, int thread) {
    ErrorRate& out = partial[static_cast<size_t>(thread)];
    for (size_t i = begin; i < end; ++i) {
      const TagId tag = tags[i];
      if (!truth.PresentAt(tag, t)) continue;
      const TagId want = truth.ContainerAt(tag, t);
      if (contained_only && !want.valid()) continue;
      out.Add(BelievedContainer(tag) == want);
    }
  });
  ErrorRate err;
  for (const ErrorRate& p : partial) err.AddCounts(p.errors(), p.total());
  return err;
}

void DistributedSystem::RecordSnapshot(Epoch t, SiteExecutor* executor) {
  // A boundary with no items present records no sample: Percent() is NaN
  // when unmeasured, and NaN samples would poison the snapshot series
  // (NaN != NaN breaks the bit-identity comparisons; a mean over them is
  // meaningless).
  const ErrorRate item_err = ScanContainment(sim_->all_items(), t, executor,
                                             /*contained_only=*/false);
  if (item_err.total() > 0) {
    snapshots_.push_back(ErrorSnapshot{t, item_err.Percent()});
  }
  if (options_.site.hierarchical) {
    // The case level scores only truly contained cases (see
    // case_snapshots()); a boundary with none records no sample.
    const ErrorRate err = ScanContainment(sim_->all_cases(), t, executor,
                                          /*contained_only=*/true);
    if (err.total() > 0) {
      case_snapshots_.push_back(ErrorSnapshot{t, err.Percent()});
    }
  }
}

namespace {

/// Sample nearest to `at`; NaN when the series is empty. No samples means
/// "not measured", never "perfect": NaN keeps an empty run from
/// masquerading as a flawless one (benches print n/a).
double NearestSample(const std::vector<DistributedSystem::ErrorSnapshot>& xs,
                     Epoch at) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  const DistributedSystem::ErrorSnapshot* best = &xs.front();
  for (const DistributedSystem::ErrorSnapshot& s : xs) {
    if (std::abs(s.epoch - at) < std::abs(best->epoch - at)) best = &s;
  }
  return best->error_percent;
}

double MeanSince(const std::vector<DistributedSystem::ErrorSnapshot>& xs,
                 Epoch warmup) {
  OnlineStats stats;
  for (const DistributedSystem::ErrorSnapshot& s : xs) {
    if (s.epoch >= warmup) stats.Add(s.error_percent);
  }
  return stats.count() == 0 ? std::numeric_limits<double>::quiet_NaN()
                            : stats.Mean();
}

}  // namespace

double DistributedSystem::ContainmentErrorPercent(Epoch at) const {
  return NearestSample(snapshots_, at);
}

double DistributedSystem::AverageContainmentErrorPercent(Epoch warmup) const {
  return MeanSince(snapshots_, warmup);
}

double DistributedSystem::AverageCaseContainmentErrorPercent(
    Epoch warmup) const {
  return MeanSince(case_snapshots_, warmup);
}

std::vector<ExposureAlert> DistributedSystem::AllAlerts(
    int query_index) const {
  std::vector<ExposureAlert> merged;
  for (const auto& site : sites_) {
    const ExposureQuery* q = site->query(query_index);
    if (q == nullptr) continue;
    merged.insert(merged.end(), q->alerts().begin(), q->alerts().end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const ExposureAlert& a, const ExposureAlert& b) {
                     if (a.last_time != b.last_time) {
                       return a.last_time < b.last_time;
                     }
                     return a.tag < b.tag;
                   });
  return merged;
}

}  // namespace rfid
