#include "sim/layout.h"

namespace rfid {

std::vector<LocationId> SiteLayout::AllLocations() const {
  std::vector<LocationId> locs;
  locs.reserve(shelves.size() + 3);
  locs.push_back(entry);
  locs.push_back(belt);
  for (LocationId s : shelves) locs.push_back(s);
  locs.push_back(exit);
  return locs;
}

Layout::Layout(int num_sites, int shelves_per_site) {
  LocationId next = 0;
  sites_.reserve(static_cast<size_t>(num_sites));
  for (SiteId s = 0; s < num_sites; ++s) {
    SiteLayout sl;
    sl.site = s;
    sl.entry = next++;
    sl.belt = next++;
    for (int i = 0; i < shelves_per_site; ++i) sl.shelves.push_back(next++);
    sl.exit = next++;
    sites_.push_back(std::move(sl));
  }
  num_locations_ = next;
  site_of_.resize(static_cast<size_t>(num_locations_));
  role_of_.resize(static_cast<size_t>(num_locations_));
  for (const SiteLayout& sl : sites_) {
    for (LocationId loc : sl.AllLocations()) {
      site_of_[static_cast<size_t>(loc)] = sl.site;
    }
    role_of_[static_cast<size_t>(sl.entry)] = ReaderRole::kEntry;
    role_of_[static_cast<size_t>(sl.belt)] = ReaderRole::kBelt;
    role_of_[static_cast<size_t>(sl.exit)] = ReaderRole::kExit;
    for (LocationId sh : sl.shelves) {
      role_of_[static_cast<size_t>(sh)] = ReaderRole::kShelf;
    }
  }
}

ReadRateModel Layout::BuildReadRateModel(const ReadRateParams& p,
                                         Rng& rng) const {
  ReadRateModel model = ReadRateModel::Uniform(num_locations_, p.main);
  for (const SiteLayout& sl : sites_) {
    for (LocationId loc : sl.AllLocations()) {
      double main =
          p.sample_main ? rng.NextUniform(p.main_lo, p.main_hi) : p.main;
      model.SetRate(loc, loc, main);
    }
    // "There is significant overlap between adjacent shelf readers: a shelf
    // reader can read objects in a nearby location with probability OR"
    // (Appendix C.1). Overlap applies in both directions per adjacent pair.
    for (size_t i = 0; i + 1 < sl.shelves.size(); ++i) {
      double fwd = p.sample_overlap
                       ? rng.NextUniform(p.overlap_lo, p.overlap_hi)
                       : p.overlap;
      double bwd = p.sample_overlap
                       ? rng.NextUniform(p.overlap_lo, p.overlap_hi)
                       : p.overlap;
      model.SetRate(sl.shelves[i], sl.shelves[i + 1], fwd);
      model.SetRate(sl.shelves[i + 1], sl.shelves[i], bwd);
    }
  }
  model.FinalizeLogTables();
  return model;
}

InterrogationSchedule Layout::BuildSchedule(const ScheduleParams& p,
                                            const ReadRateModel& model) const {
  InterrogationSchedule sched(num_locations_);
  for (const SiteLayout& sl : sites_) {
    sched.SetPeriodic(sl.entry, p.nonshelf_period, 0);
    sched.SetPeriodic(sl.belt, p.nonshelf_period, 0);
    sched.SetPeriodic(sl.exit, p.nonshelf_period, 0);
    if (p.mobile_dwell > 0) {
      // One mobile reader sweeps the aisle: shelf i is scanned during
      // [i*dwell, (i+1)*dwell) of every sweep cycle. The mobile reader
      // "reads every second and spends 10 seconds scanning each shelf"
      // (Section 5.3).
      const Epoch cycle =
          p.mobile_dwell * static_cast<Epoch>(sl.shelves.size());
      for (size_t i = 0; i < sl.shelves.size(); ++i) {
        sched.SetWindowed(sl.shelves[i], cycle,
                          p.mobile_dwell * static_cast<Epoch>(i),
                          p.mobile_dwell);
      }
    } else {
      for (LocationId sh : sl.shelves) {
        sched.SetPeriodic(sh, p.shelf_period, 0);
      }
    }
  }
  sched.Finalize(model);
  return sched;
}

}  // namespace rfid
