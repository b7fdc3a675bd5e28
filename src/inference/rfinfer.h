// RFINFER: maximum-likelihood inference of containment relationships and
// object/container locations from noisy RFID readings (Section 3,
// Algorithm 1), with the Appendix A.3 optimizations:
//
//  * sparse histories     -- only (epoch, reader) pairs that produced a
//                            reading are stored or touched;
//  * candidate pruning    -- each object considers only the containers most
//                            frequently co-located with it during the first
//                            epochs of the window and during recent epochs;
//  * idle-epoch folding   -- epochs in which neither a container nor any of
//                            its assigned objects was read all share the
//                            same posterior (per interrogation-schedule
//                            class), so their contribution to weights and
//                            likelihood is a closed-form per-class constant;
//  * memoization          -- a container whose assigned object set did not
//                            change between EM iterations keeps its
//                            posterior and evidence untouched;
//  * M-step skipping      -- an object none of whose candidate containers
//                            was recomputed by the E-step keeps its weights
//                            and assignment without being re-weighed;
//  * epoch index          -- an E-step that recomputes a container also
//                            rewrites its slice of the engine's epoch
//                            index: the universe's epochs numbered back to
//                            back across its intervals, the rank of each
//                            among the active epochs, and an active
//                            bitset. An object's universe
//                            intervals each lie inside one interval of a
//                            candidate's universe, so the M-step and the
//                            evidence scan resolve one index base per
//                            (object interval, candidate) and then read
//                            posterior rows and O(1) interval sums of m_c
//                            directly, without walking the container's
//                            active epochs;
//  * single evidence scan -- change-point detection and the critical-region
//                            search share one evidence scan per object per
//                            run (ScanEvidence). Its events are the OR of
//                            the candidates' active bitsets over the
//                            object's universe plus the object's reads,
//                            walked once for all candidates; the gaps
//                            between events hold no active epoch, so each
//                            gap's class counts are computed once;
//  * one co-location scan  -- candidate counting records the span's
//                            container bursts once; each object then scores
//                            all three candidate ranges in one walk of its
//                            own sparse history;
//  * data-parallel EM     -- given a pool (set_pool), the candidate
//                            ranking, the M-step and the evidence scan (per
//                            object) and the E-step (per container) run as
//                            chunked jobs. Each item reads only the
//                            previous phase's outputs and writes only its
//                            own slot -- the E-step a container's
//                            posteriors and its word-aligned slice of the
//                            index, which the M-step and scan read after
//                            the E-step's join -- so results are
//                            bit-identical for any thread count.
//
// The same engine exposes the evidence quantities of Section 4.1 (point and
// cumulative evidence of co-location, Eq 7), the change-point statistic
// Delta_o(T) of Section 3.3 (Eq 6), and the critical-region search used for
// history truncation.
#ifndef RFID_INFERENCE_RFINFER_H_
#define RFID_INFERENCE_RFINFER_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/executor.h"
#include "common/status.h"
#include "common/types.h"
#include "inference/colocation.h"
#include "model/read_rate.h"
#include "model/schedule.h"
#include "trace/reading.h"
#include "trace/trace.h"

namespace rfid {

/// Tuning knobs for the EM engine.
struct InferenceOptions {
  /// Candidate pruning K: containers kept per object (Appendix A.3).
  int max_candidates = 5;
  /// Reuse posterior/evidence for containers whose object set is unchanged.
  bool memoize = true;
  /// Weight the co-location counts behind the EM's initial guess by
  /// exclusivity (1/k per k-container read burst). The paper's plain counts
  /// (false) let crowded-shelf co-occurrence rival the true container and
  /// occasionally lock whole groups into the wrong local optimum; weighting
  /// removes that failure mode (see EXPERIMENTS.md ablation).
  bool exclusivity_weighted_init = true;
};

/// One detected containment change (Section 3.3).
struct ChangePointResult {
  TagId object;
  Epoch time = 0;             ///< the maximizing split epoch t'
  TagId old_container;        ///< best container before the change
  TagId new_container;        ///< best container after the change
  double delta = 0.0;         ///< the statistic Delta_o(T)
};

/// One point of the co-location evidence series for a (object, candidate)
/// pair -- the quantities plotted in Figure 4.
struct EvidencePoint {
  Epoch time = 0;
  double point = 0.0;       ///< e_co(t), Eq (7)
  double cumulative = 0.0;  ///< E_co(t) = sum of e up to t
};

/// Result of the critical-region search for one object (Section 4.1).
struct CriticalRegion {
  EpochInterval window;
  double gap = 0.0;  ///< best-vs-second-best evidence gap in the window
};

/// Parameters of the critical-region search (Section 4.1).
struct CriticalRegionSearch {
  Epoch window = 0;            ///< sliding-window length w, in epochs
  double gap_threshold = 0.0;  ///< minimum best-vs-second-best gap
};

/// What one evidence pass over every object found, in object order.
struct EvidenceFindings {
  std::vector<ChangePointResult> changes;
  std::vector<std::pair<TagId, CriticalRegion>> critical_regions;
};

/// Per-object context carried across inference runs: a critical region kept
/// from truncated history, a barrier epoch after a detected change point
/// ("we disregard the data from 0..t' in all subsequent calls"), and
/// collapsed prior weights imported from a previous site (Section 4.1).
struct ObjectContext {
  std::optional<EpochInterval> critical_region;
  /// Evidence gap of the stored critical region (0 when unknown, e.g.
  /// after migration); used for cross-run replacement hysteresis.
  double critical_region_gap = 0.0;
  Epoch barrier = -1;
  std::vector<std::pair<TagId, double>> prior_weights;
};

/// The inference engine. One instance is configured with a read-rate model
/// and interrogation schedule, then Run() any number of times over trace
/// windows; results refer to the most recent run.
class RFInfer {
 public:
  /// `model` and `schedule` must outlive the engine and agree on the number
  /// of locations.
  RFInfer(const ReadRateModel* model, const InterrogationSchedule* schedule,
          InferenceOptions options = {});

  /// Sets the tag roles: each run's containers are the trace's tags of
  /// `container_kind` and its objects the tags of `object_kind`. The
  /// default is (kCase, kItem); (kPallet, kCase) runs the second level of
  /// hierarchical inference (cases within pallets, Appendix A.4).
  void SetUniverseKinds(TagKind container_kind, TagKind object_kind);

  /// Installs per-object contexts (critical regions, barriers, collapsed
  /// priors). Cleared by ClearObjectContexts, not by Run.
  void SetObjectContext(TagId object, ObjectContext context);
  void ClearObjectContexts();

  /// Runs the independent loops of later runs and evidence scans on `pool`
  /// (nullptr: serially on the caller). The pool must outlive its use;
  /// results do not depend on it.
  void set_pool(SiteExecutor* pool);

  /// Runs EM over readings of `trace` with epochs in [window_begin,
  /// window_end], plus each object's critical region if one is installed.
  /// The trace must be sealed.
  Status Run(const Trace& trace, Epoch window_begin, Epoch window_end);

  // ---- Containment results ----

  /// Inferred container of `object` (kNoTag when it has no candidates).
  TagId ContainerOf(TagId object) const;

  /// All objects currently assigned to `container`.
  std::vector<TagId> ObjectsOf(TagId container) const;

  /// Candidate containers of `object` after pruning.
  std::vector<TagId> CandidatesOf(TagId object) const;

  /// Co-location weight w_co (Eq 5) including any imported prior; returns
  /// -infinity when `container` is not a candidate of `object`.
  double WeightOf(TagId object, TagId container) const;

  /// Exports all candidate weights for one object -- the collapsed
  /// inference state migrated between sites (Section 4.1).
  std::vector<std::pair<TagId, double>> ExportWeights(TagId object) const;

  /// One object's containment result, as persisted by a durable checkpoint
  /// (dist/durability.h): the pruned candidate weights of the last run and
  /// the resulting assignment (kNoTag when unassigned).
  struct RestoredObjectResult {
    TagId tag;
    std::vector<std::pair<TagId, double>> weights;
    TagId assigned = kNoTag;
  };

  /// Reinstates the containment results of a previous run from a durable
  /// checkpoint. Only the containment accessors (ContainerOf / ObjectsOf /
  /// CandidatesOf / WeightOf / ExportWeights) and the tag universe reflect
  /// the restored state; location estimates, evidence series, and EM
  /// internals are rebuilt from scratch by the next Run, exactly as they
  /// are after a live run's results have aged past its window.
  void RestoreResults(std::vector<TagId> container_tags,
                      const std::vector<RestoredObjectResult>& objects);

  /// Tag universe of the last run.
  const std::vector<TagId>& object_tags() const { return object_tags_; }
  const std::vector<TagId>& container_tags() const { return container_tags_; }

  // ---- Location results ----

  /// MAP location estimate at epoch `t` with carry-forward across epochs
  /// without evidence: containers use their posterior argmax at the latest
  /// active epoch <= t; objects inherit their container's estimate, falling
  /// back to their own last reading when unassigned.
  LocationId LocationOf(TagId tag, Epoch t) const;

  /// Materializes the inferred event stream (time, tag, location,
  /// container) for query processing, one event per container-active epoch
  /// within the run window and after epoch `after`, for the container and
  /// each assigned object, sorted by (time, tag). `window().begin - 1`
  /// gives the whole window.
  std::vector<ObjectEvent> EmitEvents(Epoch after) const;

  // ---- Evidence, change points, truncation ----

  /// Point/cumulative evidence series for a candidate pair (Figure 4).
  /// Series points are emitted at the object's event epochs (epochs where
  /// the pair's group had any reading); idle gaps accumulate into the
  /// cumulative value of the next point.
  std::vector<EvidencePoint> EvidenceSeries(TagId object,
                                            TagId container) const;

  /// The per-run evidence pass: scans each object's evidence once and runs
  /// change-point detection on it when `change_threshold` is set and the
  /// critical-region search when `regions` is set. Equivalent to
  /// DetectChangePoints followed by FindCriticalRegions, at half the scans.
  EvidenceFindings ScanEvidence(
      std::optional<double> change_threshold,
      std::optional<CriticalRegionSearch> regions) const;

  /// ScanEvidence's change detection alone: computes Delta_o(T) for every
  /// object (Eq 6) and reports those at or above `threshold`. The
  /// maximizing split epoch, the best container before and after it, and
  /// the statistic value are filled in.
  std::vector<ChangePointResult> DetectChangePoints(double threshold) const;

  /// Delta statistic for one object (for calibration); 0 when the object
  /// has fewer than one candidate or no events.
  double ChangeStatistic(TagId object) const;

  /// ScanEvidence's critical-region search alone (Section 4.1): slides a
  /// window of `window` epochs over each object's evidence and keeps the
  /// window with the largest gap by which the best candidate out-scores
  /// the second best, among windows whose gap is at least `gap_threshold`
  /// (the earliest such window on ties). Objects with a single candidate
  /// use the window of their strongest point evidence.
  std::unordered_map<TagId, CriticalRegion> FindCriticalRegions(
      Epoch window, double gap_threshold) const;

  // ---- Diagnostics ----

  int iterations_used() const { return iterations_used_; }
  /// Log-likelihood L(C) of the final containment (Eq 3), up to the
  /// assignment-independent uniform-location-prior constant.
  double log_likelihood() const { return log_likelihood_; }
  /// L(C) after each E-step; non-decreasing by Theorem 1.
  const std::vector<double>& likelihood_history() const {
    return likelihood_history_;
  }
  EpochInterval window() const { return window_; }

 private:
  struct ContainerData {
    TagId tag;
    std::vector<int> objects;  ///< assigned object indices, sorted
    /// Epoch universe: run window plus candidate objects' critical regions.
    std::vector<EpochInterval> universe;
    /// (epoch, reader) reads of the container tag itself, within universe.
    std::vector<TagRead> own_reads;

    // E-step outputs.
    std::vector<Epoch> act_epochs;
    std::vector<double> q_act;        ///< |act| x R, row-major
    std::vector<LocationId> act_map;  ///< argmax location per active epoch
    std::vector<double> act_m;        ///< m_c(t) per active epoch
    /// Prefix sums of (act_m[i] - m_idle[class(act_epochs[i])]).
    std::vector<double> act_excess_prefix;
    std::vector<double> q_idle;  ///< n_classes x R
    std::vector<double> m_idle;  ///< n_classes
    std::vector<double> lz_idle; ///< n_classes; idle per-epoch log-likelihood
    /// Active epochs per schedule class.
    std::vector<int64_t> act_class_count;
    /// The container's slice [index_begin, index_end) of the engine's
    /// epoch index (act_rank_, act_bits_), laid out for a run: positions
    /// number the universe's epochs back to back, epoch t of universe
    /// interval u at position t + index_base[u], plus one position past
    /// the last epoch. index_begin is a multiple of 64.
    std::vector<Epoch> index_base;
    size_t index_begin = 0;
    size_t index_end = 0;
    double sum_act_lz = 0.0;
    uint64_t member_hash = 0;
    bool computed = false;
    /// The latest E-step recomputed (rather than memoized) this container.
    bool recomputed = false;

    /// Epochs of `universe` per schedule class; fixed for a run.
    std::vector<int64_t> universe_class_count;
  };

  struct ObjectData {
    TagId tag;
    std::vector<int> candidates;  ///< container indices
    std::vector<double> weights;  ///< w_co, aligned with candidates
    std::vector<double> priors;   ///< imported collapsed weights, aligned
    std::vector<TagRead> reads;   ///< object reads within its universe
    std::vector<EpochInterval> universe;
    int assigned = -1;
  };

  // Setup.
  void BuildUniverse(const Trace& trace);
  void BuildCandidates(const Trace& trace);
  void BuildReadCaches(const Trace& trace);
  /// Rebuilds every container's object list from the assignment.
  void RebuildMembership();

  /// Per-thread scratch of the E-step, reused across containers and runs.
  struct EStepScratch {
    std::vector<TagRead> group_reads;
    std::vector<TagRead> merge_tmp;
    std::vector<size_t> run_ends;
    std::vector<double> logw;
  };

  // EM steps.
  void EStep();
  void ComputeContainer(ContainerData& c, EStepScratch* scratch);
  bool MStep();  ///< returns true if any assignment changed
  double ComputeWeight(const ObjectData& o, int container_index) const;
  double ComputeLogLikelihood() const;

  // Shared kernels.
  /// Index base (position minus epoch) of the universe interval of c that
  /// holds epoch t. `u` is a forward cursor into c.universe, so ascending
  /// t walk c's intervals once.
  static Epoch IndexBase(const ContainerData& c, Epoch t, size_t* u);
  /// sum_a q(a) * LogReadAdjust(r, a).
  double DotAdjust(const double* q, LocationId r) const;

  /// Per-object detailed evidence scan; shared by EvidenceSeries,
  /// change-point detection, and the critical-region search. Scans reuse
  /// one ScanResult's buffers across objects.
  struct ScanResult {
    std::vector<Epoch> events;
    /// point[k*num_candidates + j]: e_co at events[k] for candidate j.
    std::vector<double> point;
    /// cum[k*num_candidates + j]: E_co including idle gaps up to events[k].
    std::vector<double> cum;
    /// total[j]: E_co over the full universe (== weight - prior).
    std::vector<double> total;
    // Scratch of the event build, the evidence walk and the sliding-window
    // search.
    std::vector<uint64_t> event_bits;
    /// base[i * num_candidates + j]: index base of candidate j over the
    /// object's universe interval i.
    std::vector<Epoch> base;
    /// (class, epoch count) of the current idle gap, in class order.
    std::vector<std::pair<int, int64_t>> gap_classes;
    std::vector<double> win_sum;
  };
  void ScanObject(const ObjectData& o, ScanResult* scan) const;

  std::optional<ChangePointResult> ChangePointFor(const ObjectData& o,
                                                  const ScanResult& scan,
                                                  double threshold) const;
  std::optional<CriticalRegion> CriticalRegionFor(
      const ObjectData& o, const CriticalRegionSearch& search,
      ScanResult* scan) const;

  int ObjectIndexOf(TagId tag) const;
  int ContainerIndexOf(TagId tag) const;

  const ReadRateModel* model_;
  const InterrogationSchedule* schedule_;
  InferenceOptions options_;

  TagKind container_kind_ = TagKind::kCase;
  TagKind object_kind_ = TagKind::kItem;
  std::vector<TagId> container_tags_;
  std::vector<TagId> object_tags_;
  std::unordered_map<TagId, ObjectContext> contexts_;

  const Trace* trace_ = nullptr;
  EpochInterval window_;
  std::vector<ContainerData> containers_;
  std::vector<ObjectData> objects_;
  std::unordered_map<TagId, int> container_index_;
  std::unordered_map<TagId, int> object_index_;
  int iterations_used_ = 0;
  double log_likelihood_ = 0.0;
  std::vector<double> likelihood_history_;

  SiteExecutor* pool_ = nullptr;
  /// One per pool thread.
  std::vector<EStepScratch> scratch_;
  std::vector<CoLocationCounter::Scratch> colocation_scratch_;
  /// The latest run's container bursts.
  CoLocationCounter colocation_;
  /// Co-located candidates of each object in a fixed-stride slot (the
  /// object's count in colocated_count_), ranked per object in parallel and
  /// read serially.
  std::vector<int> colocated_;
  std::vector<uint32_t> colocated_count_;
  /// Per-object "assignment changed" flags of the latest M-step.
  std::vector<uint8_t> moved_;
  /// The epoch index of every container, one slice each, rebuilt with the
  /// container's posteriors: act_rank_[p] counts the container's active
  /// epochs before position p, so an active epoch's posterior row is
  /// q_act[act_rank_[p]], and bit p of act_bits_ is set iff position p is
  /// an active epoch. Slices start on word boundaries, so E-step jobs
  /// never share a word; a final zero word lets any 64 positions be read
  /// as one word.
  std::vector<uint32_t> act_rank_;
  std::vector<uint64_t> act_bits_;
};

}  // namespace rfid

#endif  // RFID_INFERENCE_RFINFER_H_
