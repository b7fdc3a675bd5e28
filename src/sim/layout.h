// Physical layout of a multi-site deployment: reader locations per site
// (entry door, conveyor belt, shelves, exit door) with a global numbering,
// and factory methods for the matching read-rate model and interrogation
// schedule (Table 2 parameters).
#ifndef RFID_SIM_LAYOUT_H_
#define RFID_SIM_LAYOUT_H_

#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "model/read_rate.h"
#include "model/schedule.h"

namespace rfid {

/// Reader roles within a site; belt/entry/exit are "non-shelf" readers.
enum class ReaderRole : uint8_t { kEntry, kBelt, kShelf, kExit };

/// One site's reader locations (global LocationIds).
struct SiteLayout {
  SiteId site = 0;
  LocationId entry = kNoLocation;
  LocationId belt = kNoLocation;
  LocationId exit = kNoLocation;
  std::vector<LocationId> shelves;

  /// All locations of the site in id order.
  std::vector<LocationId> AllLocations() const;
};

/// Read-rate parameters used when building a model from a layout.
struct ReadRateParams {
  /// Main read rate RR: probability a reader detects a tag at its own
  /// location. If `sample_main` is set, each reader's rate is drawn
  /// uniformly from [main_lo, main_hi] instead (paper default [0.6, 1]).
  double main = 0.8;
  bool sample_main = false;
  double main_lo = 0.6;
  double main_hi = 1.0;

  /// Overlap rate OR: probability a shelf reader detects a tag at an
  /// adjacent shelf. If `sample_overlap`, drawn from [overlap_lo,
  /// overlap_hi] per reader pair (paper default [0.2, 0.8]).
  double overlap = 0.5;
  bool sample_overlap = false;
  double overlap_lo = 0.2;
  double overlap_hi = 0.8;
};

/// Interrogation-frequency parameters (Table 2).
struct ScheduleParams {
  Epoch nonshelf_period = 1;  ///< entry/belt/exit read every second
  Epoch shelf_period = 10;    ///< shelf readers read every 10 seconds
  /// Mobile deployment (Section 5.3): one mobile reader per site sweeps the
  /// shelves, spending `mobile_dwell` epochs at each; static shelf readers
  /// are replaced. 0 disables.
  Epoch mobile_dwell = 0;
};

/// Global layout over `num_sites` sites, each with `shelves_per_site`
/// shelves. Locations are numbered contiguously site by site.
class Layout {
 public:
  Layout(int num_sites, int shelves_per_site);

  int num_sites() const { return static_cast<int>(sites_.size()); }
  int num_locations() const { return num_locations_; }
  const SiteLayout& site(SiteId s) const {
    return sites_[static_cast<size_t>(s)];
  }

  SiteId SiteOfLocation(LocationId loc) const {
    return site_of_[static_cast<size_t>(loc)];
  }
  ReaderRole RoleOfLocation(LocationId loc) const {
    return role_of_[static_cast<size_t>(loc)];
  }

  /// Builds the global read-rate table. Deterministic given `rng` state.
  ReadRateModel BuildReadRateModel(const ReadRateParams& p, Rng& rng) const;

  /// Builds the global interrogation schedule. Sites run on the global
  /// model and schedule: a site simply never sees readings outside its own
  /// locations.
  InterrogationSchedule BuildSchedule(const ScheduleParams& p,
                                      const ReadRateModel& model) const;

 private:
  std::vector<SiteLayout> sites_;
  std::vector<SiteId> site_of_;
  std::vector<ReaderRole> role_of_;
  int num_locations_ = 0;
};

}  // namespace rfid

#endif  // RFID_SIM_LAYOUT_H_
