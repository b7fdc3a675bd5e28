// The paper's example continuous queries, evaluated as one fixed plan.
//
// Q1 (Section 2): raise an alert when a frozen product is outside a freezer
// container (or uncontained) at an above-freezing location for 6 hours.
// The inner CQL block joins Products[Now] with Temperature[Partition By
// sensor Rows 1] on location, keeping frozen products whose container is
// NULL or not a freezer and whose location's temperature is above the
// threshold. Here that is a selection on each event followed by a lookup
// of the latest sample at the event's location: a newer sample replaces
// the older one (Rows 1), and an event at a location with no sample yet
// joins nothing. The outer block
//
//   [ Pattern SEQ(A+)
//     Where A[i].tag_id = A[1].tag_id and
//           A[A.len].time > A[1].time + 6 hrs ]
//
// runs one SASE-style automaton per tag (Gyllstrom et al.): Idle ->
// Accumulating on the first matching event, stays Accumulating while
// matching events keep arriving contiguously, and fires once when the
// run's span exceeds the duration bound. Contiguity on a sampled stream
// means "no gap larger than max_gap": an object that stops matching (back
// inside a freezer) stops producing events, and its run must lapse rather
// than bridge to a later exposure.
//
// Q2 (Section 5.4): report frozen food exposed to a temperature over 10
// degrees for 10 hours -- the location-only variant (no containment
// predicate), which the paper uses to isolate the effect of containment
// accuracy on query quality.
//
// The per-tag automaton state is exactly the query state of Appendix B:
// (i) the automaton phase, (ii) the minimum values needed for future
// evaluation (first/last event time), and (iii) the values the query
// returns (the logged temperatures). It serializes to a compact byte
// string -- the unit of query-state migration, of centroid-based sharing
// (Section 4.2), and of durable checkpoints.
#ifndef RFID_QUERY_QUERIES_H_
#define RFID_QUERY_QUERIES_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "trace/product_catalog.h"
#include "trace/reading.h"

namespace rfid {

struct ExposureQueryConfig {
  /// Alert when exposed above this temperature...
  double temp_threshold = 0.0;
  /// ...for longer than this span (Q1: 6 hrs; benches scale it down).
  Epoch duration = 6 * 3600;
  /// Contiguity bound of the SEQ(A+) run.
  Epoch max_gap = 120;
  /// Apply Q1's containment predicate (container not a freezer / NULL).
  bool check_container = true;
};

/// One fired alert.
struct ExposureAlert {
  TagId tag;
  Epoch first_time = 0;
  Epoch last_time = 0;
  int64_t n_events = 0;
};

/// Automaton phase of one tag's SEQ(A+) run.
enum class RunPhase : uint8_t { kIdle = 0, kAccumulating = 1, kAlerted = 2 };

/// Serializable per-tag query state.
struct PatternState {
  RunPhase phase = RunPhase::kIdle;
  Epoch first_time = 0;
  Epoch last_time = 0;
  /// Logged (time, temperature) pairs of the current run (A[].temp in Q1).
  std::vector<std::pair<Epoch, double>> value_log;

  std::vector<uint8_t> Encode() const;
  static Result<PatternState> Decode(const std::vector<uint8_t>& bytes);

  friend bool operator==(const PatternState&, const PatternState&) = default;
};

/// A continuous query instance over one site's event + sensor streams.
class ExposureQuery {
 public:
  /// `catalog` must outlive the query.
  ExposureQuery(const ProductCatalog* catalog, ExposureQueryConfig config);

  /// Q1 with the paper's predicates.
  static ExposureQueryConfig Q1Config(Epoch duration = 6 * 3600) {
    ExposureQueryConfig cfg;
    cfg.temp_threshold = 0.0;
    cfg.duration = duration;
    cfg.check_container = true;
    return cfg;
  }
  /// Q2: location-only, 10 degrees / 10 hours.
  static ExposureQueryConfig Q2Config(Epoch duration = 10 * 3600) {
    ExposureQueryConfig cfg;
    cfg.temp_threshold = 10.0;
    cfg.duration = duration;
    cfg.check_container = false;
    return cfg;
  }

  /// Feeds one inferred object event (the Products stream). Events of one
  /// tag must arrive in time order.
  void OnEvent(const ObjectEvent& event);

  /// Feeds one sensor sample (the Temperature stream).
  void OnSensor(const SensorReading& reading);

  const std::vector<ExposureAlert>& alerts() const { return alerts_; }

  /// Reinstates previously fired alerts (durable checkpoint restore,
  /// dist/durability.h). Output-only: the pattern automata are restored
  /// separately via ImportState.
  void RestoreAlerts(const std::vector<ExposureAlert>& alerts) {
    alerts_.insert(alerts_.end(), alerts.begin(), alerts.end());
  }

  // ---- Per-object query state (Section 4.2) ----

  /// Serialized pattern state of one object; the migration payload.
  std::vector<uint8_t> ExportState(TagId tag) const;

  /// Installs migrated state, replacing any existing.
  Status ImportState(TagId tag, const std::vector<uint8_t>& bytes);

  /// Removes and returns the state of a departing object.
  std::vector<uint8_t> TakeState(TagId tag);

  /// Objects with live pattern state, in tag order.
  std::vector<TagId> StatefulObjects() const;

 private:
  const ProductCatalog* catalog_;
  ExposureQueryConfig config_;
  /// Temperature[Partition By sensor Rows 1]: the latest sample per
  /// location.
  std::unordered_map<LocationId, double> latest_temp_;
  /// The SEQ(A+) automaton of every tag that has matched an event.
  std::unordered_map<TagId, PatternState> runs_;
  std::vector<ExposureAlert> alerts_;
};

}  // namespace rfid

#endif  // RFID_QUERY_QUERIES_H_
