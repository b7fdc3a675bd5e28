#include "sim/supply_chain.h"

#include <algorithm>
#include <cassert>

namespace rfid {

namespace {

std::vector<std::vector<SiteId>> BuildDag(int num_warehouses,
                                          const std::vector<int>& layers) {
  std::vector<std::vector<SiteId>> successors(
      static_cast<size_t>(num_warehouses));
  if (num_warehouses <= 1) return successors;
  std::vector<int> shape = layers;
  if (shape.empty()) {
    // Linear chain.
    for (SiteId s = 0; s + 1 < num_warehouses; ++s) {
      successors[static_cast<size_t>(s)].push_back(s + 1);
    }
    return successors;
  }
  // Layered DAG: every node in layer i feeds every node in layer i+1.
  std::vector<std::vector<SiteId>> layer_nodes;
  SiteId next = 0;
  for (int size : shape) {
    std::vector<SiteId> nodes;
    for (int i = 0; i < size && next < num_warehouses; ++i) {
      nodes.push_back(next++);
    }
    if (!nodes.empty()) layer_nodes.push_back(std::move(nodes));
  }
  for (size_t l = 0; l + 1 < layer_nodes.size(); ++l) {
    for (SiteId from : layer_nodes[l]) {
      successors[static_cast<size_t>(from)] = layer_nodes[l + 1];
    }
  }
  return successors;
}

}  // namespace

SupplyChainSim::SupplyChainSim(SupplyChainConfig config)
    : config_(std::move(config)),
      layout_(config_.num_warehouses, config_.shelves_per_warehouse),
      model_(ReadRateModel::Uniform(1, 0.5)),  // replaced below
      schedule_(1),                            // replaced below
      rng_(config_.seed) {
  model_ = layout_.BuildReadRateModel(config_.read_rate, rng_);
  schedule_ = layout_.BuildSchedule(config_.schedule, model_);
  reader_sim_ = std::make_unique<ReaderSim>(&model_, &schedule_, rng_.NextU64());
  successors_ = BuildDag(config_.num_warehouses, config_.dag_layers);
  dispatch_rr_.assign(static_cast<size_t>(config_.num_warehouses), 0);
  site_traces_.resize(static_cast<size_t>(config_.num_warehouses));
}

void SupplyChainSim::ScheduleInjection(Epoch t) {
  queue_.Schedule(t, [this] {
    for (int i = 0; i < config_.pallets_per_injection; ++i) {
      if (config_.max_pallets >= 0 &&
          pallets_created_ >= config_.max_pallets) {
        return;
      }
      ++pallets_created_;
      auto plan = std::make_shared<PalletPlan>();
      plan->pallet = world_.NewPallet();
      all_pallets_.push_back(plan->pallet);
      const Epoch now = queue_.now();
      for (int c = 0; c < config_.cases_per_pallet; ++c) {
        TagId case_tag = world_.NewCase();
        all_cases_.push_back(case_tag);
        world_.SetContainer(case_tag, plan->pallet, now);
        plan->cases.push_back(case_tag);
        for (int k = 0; k < config_.items_per_case; ++k) {
          TagId item = world_.NewItem();
          all_items_.push_back(item);
          world_.SetContainer(item, case_tag, now);
        }
      }
      ArriveAtWarehouse(plan, /*site=*/0);
    }
    ScheduleInjection(queue_.now() + config_.pallet_injection_interval);
  });
}

void SupplyChainSim::ArriveAtWarehouse(std::shared_ptr<PalletPlan> plan,
                                       SiteId site) {
  plan->site = site;
  plan->cases_done = 0;
  const Epoch now = queue_.now();
  world_.PlaceGroup(plan->pallet, layout_.site(site).entry, now);
  queue_.ScheduleAfter(config_.entry_dwell,
                       [this, plan] { Unpack(plan); });
}

void SupplyChainSim::Unpack(std::shared_ptr<PalletPlan> plan) {
  const SiteLayout& site = layout_.site(plan->site);
  const Epoch now = queue_.now();
  // The pallet tag stays near the belt while its cases circulate.
  // Detach cases first so moving the pallet does not drag them along.
  for (TagId case_tag : plan->cases) {
    world_.SetContainer(case_tag, kNoTag, now);
  }
  world_.Place(plan->pallet, site.belt, now);
  // Cases ride the belt one at a time, then go to a random shelf.
  for (size_t i = 0; i < plan->cases.size(); ++i) {
    TagId case_tag = plan->cases[i];
    const Epoch belt_at =
        now + static_cast<Epoch>(i) * config_.belt_time_per_case;
    queue_.Schedule(belt_at, [this, case_tag, site] {
      world_.PlaceGroup(case_tag, site.belt, queue_.now());
    });
    const Epoch shelf_at = belt_at + config_.belt_time_per_case;
    queue_.Schedule(shelf_at, [this, plan, case_tag, site] {
      const auto& shelves = site.shelves;
      LocationId shelf = shelves[static_cast<size_t>(
          rng_.NextBounded(shelves.size()))];
      world_.PlaceGroup(case_tag, shelf, queue_.now());
      queue_.ScheduleAfter(config_.shelf_stay, [this, plan, case_tag] {
        CaseDoneOnShelf(plan, case_tag);
      });
    });
  }
}

void SupplyChainSim::CaseDoneOnShelf(std::shared_ptr<PalletPlan> plan,
                                     TagId /*case_tag*/) {
  ++plan->cases_done;
  if (plan->cases_done == static_cast<int>(plan->cases.size())) {
    Repack(plan);
  }
}

void SupplyChainSim::Repack(std::shared_ptr<PalletPlan> plan) {
  const SiteLayout& site = layout_.site(plan->site);
  const Epoch now = queue_.now();
  // Reassemble: cases rejoin the pallet and everything moves to the exit.
  world_.Place(plan->pallet, site.exit, now);
  for (TagId case_tag : plan->cases) {
    world_.SetContainer(case_tag, plan->pallet, now);
    world_.PlaceGroup(case_tag, site.exit, now);
  }
  queue_.ScheduleAfter(config_.exit_dwell, [this, plan] { Dispatch(plan); });
}

void SupplyChainSim::Dispatch(std::shared_ptr<PalletPlan> plan) {
  const Epoch now = queue_.now();
  const auto& succ = successors_[static_cast<size_t>(plan->site)];
  ObjectTransfer transfer;
  transfer.depart = now;
  transfer.from = plan->site;
  transfer.pallet = plan->pallet;
  transfer.cases = plan->cases;
  for (TagId case_tag : plan->cases) {
    const auto& contents = world_.ContentsOf(case_tag);
    transfer.items.insert(transfer.items.end(), contents.begin(),
                          contents.end());
  }
  if (succ.empty()) {
    // Final destination: the group leaves the tracked supply chain.
    transfer.to = kNoSite;
    transfer.arrive = now;
    transfers_.push_back(std::move(transfer));
    world_.RemoveGroup(plan->pallet, now);
    return;
  }
  size_t& cursor = dispatch_rr_[static_cast<size_t>(plan->site)];
  SiteId next_site = succ[cursor % succ.size()];
  ++cursor;
  transfer.to = next_site;
  transfer.arrive = now + config_.transit_time;
  transfers_.push_back(std::move(transfer));
  // In transit: tags are out of range of every reader.
  world_.PlaceGroup(plan->pallet, kNoLocation, now);
  queue_.ScheduleAfter(config_.transit_time, [this, plan, next_site] {
    ArriveAtWarehouse(plan, next_site);
  });
}

void SupplyChainSim::ScheduleAnomaly(SiteId site, Epoch t) {
  queue_.Schedule(t, [this, site] {
    InjectAnomaly(site);
    ScheduleAnomaly(site, queue_.now() + config_.anomaly_interval);
  });
}

void SupplyChainSim::InjectAnomaly(SiteId site) {
  // Collect (item, case) pairs currently on shelves of this site, and the
  // set of candidate destination cases.
  const SiteLayout& sl = layout_.site(site);
  std::vector<TagId> shelf_cases;
  std::vector<TagId> shelf_items;
  for (LocationId shelf : sl.shelves) {
    for (TagId tag : world_.TagsAt(shelf)) {
      if (tag.is_case()) shelf_cases.push_back(tag);
      if (tag.is_item()) shelf_items.push_back(tag);
    }
  }
  if (shelf_items.empty() || shelf_cases.size() < 2) return;
  const Epoch now = queue_.now();
  for (int attempt = 0; attempt < 16; ++attempt) {
    TagId item =
        shelf_items[static_cast<size_t>(rng_.NextBounded(shelf_items.size()))];
    TagId from_case = world_.ContainerOf(item);
    TagId to_case =
        shelf_cases[static_cast<size_t>(rng_.NextBounded(shelf_cases.size()))];
    if (to_case == from_case) continue;
    world_.SetContainer(item, to_case, now);
    world_.Place(item, world_.LocationOf(to_case), now);
    anomalies_.push_back(AnomalyRecord{now, item, from_case, to_case});
    return;
  }
}

void SupplyChainSim::Run(ReadingSink* sink) {
  assert(!ran_);
  ran_ = true;
  // Default sink: materialize readings into per-site traces.
  CallbackSink materialize([this](const RawReading& r) {
    SiteId s = layout_.SiteOfLocation(r.reader);
    site_traces_[static_cast<size_t>(s)].Add(r);
  });
  ReadingSink* out = sink != nullptr ? sink : &materialize;

  ScheduleInjection(0);
  if (config_.anomaly_interval > 0) {
    for (SiteId s = 0; s < config_.num_warehouses; ++s) {
      ScheduleAnomaly(s, config_.anomaly_interval);
    }
  }
  for (Epoch t = 0; t <= config_.horizon; ++t) {
    queue_.RunUntil(t);
    total_readings_ += reader_sim_->ScanEpoch(world_, t, out);
  }
  world_.Finish(config_.horizon);
  for (Trace& trace : site_traces_) trace.Seal();
}

}  // namespace rfid
