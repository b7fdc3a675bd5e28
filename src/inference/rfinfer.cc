#include "inference/rfinfer.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/log_space.h"
#include "common/merge_runs.h"
#include "inference/colocation.h"

namespace rfid {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// EM iteration cap; the algorithm usually converges in a few iterations
/// (Appendix A.1).
constexpr int kMaxIterations = 25;
/// Length of the initial-epochs span used for candidate counting.
constexpr Epoch kCandidateInitWindow = 200;
/// Length of the recent-epochs span used for candidate counting (change
/// detection needs candidates that appeared only recently).
constexpr Epoch kCandidateRecentWindow = 300;

/// Sorts by begin and merges overlapping or adjacent intervals.
std::vector<EpochInterval> NormalizeIntervals(
    std::vector<EpochInterval> intervals) {
  std::vector<EpochInterval> kept;
  for (const EpochInterval& iv : intervals) {
    if (!iv.empty()) kept.push_back(iv);
  }
  std::sort(kept.begin(), kept.end(),
            [](const EpochInterval& a, const EpochInterval& b) {
              return a.begin < b.begin;
            });
  std::vector<EpochInterval> out;
  for (const EpochInterval& iv : kept) {
    if (!out.empty() && iv.begin <= out.back().end + 1) {
      out.back().end = std::max(out.back().end, iv.end);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

bool InIntervals(const std::vector<EpochInterval>& ivs, Epoch t) {
  for (const EpochInterval& iv : ivs) {
    if (t < iv.begin) return false;
    if (t <= iv.end) return true;
  }
  return false;
}

/// Intersects interval set with [from, +inf).
std::vector<EpochInterval> ClipFrom(std::vector<EpochInterval> ivs,
                                    Epoch from) {
  std::vector<EpochInterval> out;
  for (EpochInterval iv : ivs) {
    if (iv.end < from) continue;
    iv.begin = std::max(iv.begin, from);
    out.push_back(iv);
  }
  return out;
}

/// Bit p of a bitset stored in 64-bit words.
bool BitAt(const std::vector<uint64_t>& bits, size_t p) {
  return ((bits[p / 64] >> (p % 64)) & 1) != 0;
}

void SetBit(std::vector<uint64_t>* bits, size_t p) {
  (*bits)[p / 64] |= uint64_t{1} << (p % 64);
}

/// Schedule class of epoch t >= from, given the class `cls` of epoch
/// `from` (cls < 0: none yet). Walks over ascending epochs advance it
/// without ClassOf's divisions while steps are shorter than the cycle.
int AdvanceClass(const InterrogationSchedule& schedule, int cls, Epoch from,
                 Epoch t) {
  if (cls < 0) return schedule.ClassOf(t);
  assert(t >= from);
  const Epoch cycle = schedule.cycle();
  if (t - from >= cycle) return schedule.ClassOf(t);
  const Epoch next = cls + (t - from);
  return static_cast<int>(next >= cycle ? next - cycle : next);
}

}  // namespace

RFInfer::RFInfer(const ReadRateModel* model,
                 const InterrogationSchedule* schedule,
                 InferenceOptions options)
    : model_(model),
      schedule_(schedule),
      options_(options),
      scratch_(1),
      colocation_scratch_(1) {
  assert(model_->num_locations() == schedule_->num_locations());
}

void RFInfer::SetUniverseKinds(TagKind container_kind, TagKind object_kind) {
  container_kind_ = container_kind;
  object_kind_ = object_kind;
}

void RFInfer::SetObjectContext(TagId object, ObjectContext context) {
  contexts_[object] = std::move(context);
}

void RFInfer::ClearObjectContexts() { contexts_.clear(); }

void RFInfer::set_pool(SiteExecutor* pool) {
  pool_ = pool;
  const size_t threads =
      pool == nullptr ? 1 : static_cast<size_t>(pool->num_threads());
  scratch_.resize(threads);
  colocation_scratch_.resize(threads);
}

int RFInfer::ObjectIndexOf(TagId tag) const {
  auto it = object_index_.find(tag);
  return it == object_index_.end() ? -1 : it->second;
}

int RFInfer::ContainerIndexOf(TagId tag) const {
  auto it = container_index_.find(tag);
  return it == container_index_.end() ? -1 : it->second;
}

void RFInfer::BuildUniverse(const Trace& trace) {
  container_tags_.clear();
  object_tags_.clear();
  for (TagId tag : trace.Tags()) {
    if (tag.kind() == container_kind_) container_tags_.push_back(tag);
    if (tag.kind() == object_kind_) object_tags_.push_back(tag);
  }
  containers_.clear();
  objects_.clear();
  container_index_.clear();
  object_index_.clear();
  containers_.resize(container_tags_.size());
  objects_.resize(object_tags_.size());
  for (size_t i = 0; i < container_tags_.size(); ++i) {
    containers_[i].tag = container_tags_[i];
    container_index_[container_tags_[i]] = static_cast<int>(i);
  }
  for (size_t i = 0; i < object_tags_.size(); ++i) {
    objects_[i].tag = object_tags_[i];
    object_index_[object_tags_[i]] = static_cast<int>(i);
  }

  // Per-object universe: the run window (clipped at the object's barrier)
  // plus the object's critical region.
  for (ObjectData& o : objects_) {
    Epoch barrier = -1;
    std::optional<EpochInterval> cr;
    auto it = contexts_.find(o.tag);
    if (it != contexts_.end()) {
      barrier = it->second.barrier;
      cr = it->second.critical_region;
    }
    std::vector<EpochInterval> ivs;
    ivs.push_back(window_);
    if (cr.has_value()) ivs.push_back(*cr);
    o.universe = ClipFrom(NormalizeIntervals(std::move(ivs)),
                          std::max<Epoch>(barrier, 0));
    // Epochs before the object's first reading carry no information about
    // its containment -- the tag did not exist in the reader field yet, and
    // counting "missed" interrogations from that era would bias weights
    // toward whichever candidate's idle posterior happens to be flatter.
    const auto& history = trace.HistoryOf(o.tag);
    if (history.empty()) {
      o.universe.clear();
    } else {
      o.universe = ClipFrom(std::move(o.universe), history.front().time);
    }
  }
}

void RFInfer::BuildCandidates(const Trace& trace) {
  // Candidate pruning (Appendix A.3): most co-located containers during the
  // first epochs, during recent epochs, and overall.
  const Epoch init_end =
      std::min(window_.end, window_.begin + kCandidateInitWindow);
  const Epoch recent_begin =
      std::max(window_.begin, window_.end - kCandidateRecentWindow);

  // Span count over everything available (window plus any critical region):
  // readings outside the caller-retained history are not in the trace.
  Epoch span_begin = window_.begin;
  for (const ObjectData& o : objects_) {
    for (const EpochInterval& iv : o.universe) {
      span_begin = std::min(span_begin, iv.begin);
    }
  }

  // The span is scanned once; each object then ranks the overall, first
  // and recent ranges in one walk of its own history, into its own slot.
  // Its candidates are the three top-k lists in that order, without
  // repeats.
  const EpochInterval ranges[3] = {{span_begin, window_.end},
                                   {window_.begin, init_end},
                                   {recent_begin, window_.end}};
  colocation_.Scan(trace, ranges[0], container_tags_,
                   options_.exclusivity_weighted_init);
  const int k = options_.max_candidates;
  const size_t stride =
      k > 0 ? std::min(3 * static_cast<size_t>(k), containers_.size())
            : containers_.size();
  colocated_.resize(objects_.size() * stride);
  colocated_count_.resize(objects_.size());
  // lint:hot-loop-begin(candidate-rank)
  ForChunks(pool_, objects_.size(), [&](size_t begin, size_t end, int thread) {
    CoLocationCounter::Scratch* scratch =
        &colocation_scratch_[static_cast<size_t>(thread)];
    for (size_t oi = begin; oi < end; ++oi) {
      colocation_.Rank(trace.HistoryOf(objects_[oi].tag), ranges, k,
                       scratch);
      int* slot = colocated_.data() + oi * stride;
      uint32_t n = 0;
      for (size_t r = 0; r < 3; ++r) {
        for (const ScoredContainer& sc : scratch->ranked[r]) {
          const int ci = static_cast<int>(sc.container);
          if (std::find(slot, slot + n, ci) == slot + n) slot[n++] = ci;
        }
      }
      colocated_count_[oi] = n;
    }
  });
  // lint:hot-loop-end

  for (size_t oi = 0; oi < objects_.size(); ++oi) {
    ObjectData& o = objects_[oi];
    const int* slot = colocated_.data() + oi * stride;
    o.candidates.assign(slot, slot + colocated_count_[oi]);
    // Imported collapsed priors name containers that must stay candidates.
    auto ctx = contexts_.find(o.tag);
    if (ctx != contexts_.end()) {
      for (const auto& [ctag, unused] : ctx->second.prior_weights) {
        const int ci = ContainerIndexOf(ctag);
        if (ci >= 0 && std::find(o.candidates.begin(), o.candidates.end(),
                                 ci) == o.candidates.end()) {
          o.candidates.push_back(ci);
        }
      }
    }
    o.priors.clear();
    bool has_prior = false;
    for (int ci : o.candidates) {
      const TagId ctag = containers_[static_cast<size_t>(ci)].tag;
      double prior = 0.0;
      if (ctx != contexts_.end()) {
        for (const auto& [ptag, w] : ctx->second.prior_weights) {
          if (ptag == ctag) {
            prior = w;
            has_prior = true;
          }
        }
      }
      o.priors.push_back(prior);
    }
    if (has_prior) {
      // Transferred weights are relative log-evidence; a candidate absent
      // from the transferred list was *less* co-located over the old
      // period than every retained candidate, not neutrally so. Give the
      // absent ones a below-minimum prior, otherwise their implicit zero
      // out-bids the genuinely endorsed (large-negative) candidates.
      double min_prior = 0.0;
      bool first = true;
      for (size_t j = 0; j < o.priors.size(); ++j) {
        if (o.priors[j] == 0.0) continue;
        if (first || o.priors[j] < min_prior) min_prior = o.priors[j];
        first = false;
      }
      constexpr double kAbsentMargin = 20.0;
      for (size_t j = 0; j < o.priors.size(); ++j) {
        if (o.priors[j] == 0.0) o.priors[j] = min_prior - kAbsentMargin;
      }
    }
    o.weights.assign(o.candidates.size(), kNegInf);
    // Initial guess: the imported prior winner if present, else the most
    // co-located candidate (candidates are ordered by overall count first).
    o.assigned = o.candidates.empty() ? -1 : 0;
    if (ctx != contexts_.end() && !ctx->second.prior_weights.empty()) {
      double best = kNegInf;
      for (size_t j = 0; j < o.candidates.size(); ++j) {
        if (o.priors[j] != 0.0 && o.priors[j] > best) {
          best = o.priors[j];
          o.assigned = static_cast<int>(j);
        }
      }
    }
  }

  // Container universes: the window plus the critical regions of every
  // object that lists the container as a candidate.
  for (ContainerData& c : containers_) {
    c.universe.assign(1, window_);
  }
  for (const ObjectData& o : objects_) {
    for (const EpochInterval& iv : o.universe) {
      for (int ci : o.candidates) {
        containers_[static_cast<size_t>(ci)].universe.push_back(iv);
      }
    }
  }
  const size_t n_cls = static_cast<size_t>(schedule_->num_classes());
  size_t n_pos = 0;  // epoch index positions laid out so far
  for (ContainerData& c : containers_) {
    c.universe = NormalizeIntervals(std::move(c.universe));
    c.universe_class_count.assign(n_cls, 0);
    c.index_base.resize(c.universe.size());
    c.index_begin = n_pos;
    for (size_t u = 0; u < c.universe.size(); ++u) {
      const EpochInterval& iv = c.universe[u];
      schedule_->ForEachClassCount(iv.begin, iv.end, [&](int cls, int64_t n) {
        c.universe_class_count[static_cast<size_t>(cls)] += n;
      });
      c.index_base[u] = static_cast<Epoch>(n_pos) - iv.begin;
      n_pos += static_cast<size_t>(iv.end - iv.begin + 1);
    }
    c.index_end = n_pos + 1;
    n_pos = (c.index_end + 63) / 64 * 64;
    c.computed = false;
  }
  act_rank_.resize(n_pos);
  act_bits_.resize(n_pos / 64 + 1);
  RebuildMembership();
}

void RFInfer::RebuildMembership() {
  for (ContainerData& c : containers_) c.objects.clear();
  for (size_t oi = 0; oi < objects_.size(); ++oi) {
    const ObjectData& o = objects_[oi];
    if (o.assigned >= 0) {
      containers_[static_cast<size_t>(o.candidates[static_cast<size_t>(
                      o.assigned)])]
          .objects.push_back(static_cast<int>(oi));
    }
  }
}

void RFInfer::BuildReadCaches(const Trace& trace) {
  for (ObjectData& o : objects_) {
    o.reads.clear();
    for (const TagRead& tr : trace.HistoryOf(o.tag)) {
      if (InIntervals(o.universe, tr.time)) o.reads.push_back(tr);
    }
  }
  for (ContainerData& c : containers_) {
    c.own_reads.clear();
    for (const TagRead& tr : trace.HistoryOf(c.tag)) {
      if (InIntervals(c.universe, tr.time)) c.own_reads.push_back(tr);
    }
  }
}

// lint:hot-loop-begin(e-step)
void RFInfer::ComputeContainer(ContainerData& c, EStepScratch* scratch) {
  c.recomputed =
      !(options_.memoize && c.computed && c.objects == c.computed_objects);
  if (!c.recomputed) return;
  c.computed_objects = c.objects;
  c.group_size = 1 + c.objects.size();
  const IdleRows& idle = idle_rows_[c.group_size];

  const int R = model_->num_locations();
  const int n_cls = schedule_->num_classes();
  const double group_size = static_cast<double>(c.group_size);

  // Gather all reads of the container and its assigned objects, grouped by
  // epoch. Object reads are pre-filtered to the object universe, which is a
  // subset of the container universe for candidates; containment applies
  // only when the object lists c as candidate, which assignment guarantees.
  // Every list is already time-sorted, so they are merged, not sorted.
  size_t n_reads = c.own_reads.size();
  for (int oi : c.objects) {
    n_reads += objects_[static_cast<size_t>(oi)].reads.size();
  }
  std::vector<TagRead>& reads = scratch->group_reads;
  std::vector<size_t>& run_ends = scratch->run_ends;
  reads.resize(n_reads);
  run_ends.clear();
  run_ends.reserve(c.objects.size() + 1);
  auto out = std::copy(c.own_reads.begin(), c.own_reads.end(), reads.begin());
  run_ends.push_back(c.own_reads.size());
  for (int oi : c.objects) {
    const auto& ors = objects_[static_cast<size_t>(oi)].reads;
    out = std::copy(ors.begin(), ors.end(), out);
    run_ends.push_back(static_cast<size_t>(out - reads.begin()));
  }
  MergeRuns(&reads, &run_ends, &scratch->merge_tmp);

  size_t n_act = 0;
  for (size_t k = 0; k < reads.size(); ++k) {
    if (k == 0 || reads[k].time != reads[k - 1].time) ++n_act;
  }
  c.act_epochs.clear();
  c.q_act.clear();
  c.act_map.clear();
  c.act_m.clear();
  c.act_dot.clear();
  c.act_epochs.reserve(n_act);
  c.q_act.reserve(n_act * static_cast<size_t>(R));
  c.act_map.reserve(n_act);
  c.act_m.reserve(n_act);
  c.act_dot.reserve(n_act);
  c.sum_act_lz = 0.0;
  // Prefix sums of active-epoch excess over the idle constant, the kernel
  // behind O(1) interval sums of m_c, and the per-class active counts the
  // likelihood's idle term subtracts.
  c.act_excess_prefix.assign(n_act + 1, 0.0);
  c.act_class_count.assign(static_cast<size_t>(n_cls), 0);

  std::vector<double>& logw = scratch->logw;
  logw.resize(static_cast<size_t>(R));
  size_t i = 0;
  int cls = -1;
  Epoch prev_t = 0;
  while (i < reads.size()) {
    const Epoch t = reads[i].time;
    cls = AdvanceClass(*schedule_, cls, prev_t, t);
    prev_t = t;
    for (LocationId a = 0; a < R; ++a) {
      logw[static_cast<size_t>(a)] =
          group_size * schedule_->LogMissAllClass(a, cls);
    }
    // An epoch's group reads are sorted by reader: the longest run is the
    // reader whose dot is cached (the first, smallest, on ties).
    LocationId top = reads[i].reader;
    size_t top_run = 0;
    size_t run = 0;
    size_t j = i;
    while (j < reads.size() && reads[j].time == t) {
      const LocationId r = reads[j].reader;
      run = j > i && r == reads[j - 1].reader ? run + 1 : 1;
      if (run > top_run) {
        top_run = run;
        top = r;
      }
      for (LocationId a = 0; a < R; ++a) {
        logw[static_cast<size_t>(a)] += model_->LogReadAdjust(r, a);
      }
      ++j;
    }
    const double lz = NormalizeLogWeights(logw);
    c.sum_act_lz += lz;
    c.act_epochs.push_back(t);
    LocationId best = 0;
    double best_q = -1.0;
    double m = 0.0;
    for (LocationId a = 0; a < R; ++a) {
      const double q = logw[static_cast<size_t>(a)];
      c.q_act.push_back(q);
      m += q * schedule_->LogMissAllClass(a, cls);
      if (q > best_q) {
        best_q = q;
        best = a;
      }
    }
    const size_t k = c.act_m.size();
    c.act_m.push_back(m);
    c.act_map.push_back(best);
    c.act_dot.push_back(ActDot{DotAdjust(logw.data(), top), top});
    c.act_excess_prefix[k + 1] =
        c.act_excess_prefix[k] + m - idle.m[static_cast<size_t>(cls)];
    ++c.act_class_count[static_cast<size_t>(cls)];
    i = j;
  }

  // The container's slice of the epoch index: every active epoch lies in
  // the universe (own reads and members' reads are filtered to it), so a
  // position's rank counts the active epochs before its epoch.
  const size_t word_end = (c.index_end + 63) / 64;
  std::fill(act_bits_.begin() + static_cast<ptrdiff_t>(c.index_begin / 64),
            act_bits_.begin() + static_cast<ptrdiff_t>(word_end), uint64_t{0});
  size_t next = c.index_begin;  // first position whose rank is not written
  size_t u = 0;
  for (size_t k = 0; k < c.act_epochs.size(); ++k) {
    const Epoch t = c.act_epochs[k];
    const size_t p = static_cast<size_t>(t + IndexBase(c, t, &u));
    std::fill(act_rank_.begin() + static_cast<ptrdiff_t>(next),
              act_rank_.begin() + static_cast<ptrdiff_t>(p + 1),
              static_cast<uint32_t>(k));
    SetBit(&act_bits_, p);
    next = p + 1;
  }
  std::fill(act_rank_.begin() + static_cast<ptrdiff_t>(next),
            act_rank_.begin() + static_cast<ptrdiff_t>(c.index_end),
            static_cast<uint32_t>(c.act_epochs.size()));
  c.computed = true;
}

void RFInfer::FillIdleRows(size_t group_size) {
  // Idle classes: the posterior of any epoch in which no group member was
  // read depends only on the group size and the schedule class.
  const int R = model_->num_locations();
  const int n_cls = schedule_->num_classes();
  const double g = static_cast<double>(group_size);
  IdleRows& idle = idle_rows_[group_size];
  idle.m.resize(static_cast<size_t>(n_cls));
  idle.lz.resize(static_cast<size_t>(n_cls));
  idle.dot.resize(static_cast<size_t>(n_cls) * static_cast<size_t>(R));
  std::vector<double>& logw = scratch_[0].logw;
  logw.resize(static_cast<size_t>(R));
  for (int cls = 0; cls < n_cls; ++cls) {
    for (LocationId a = 0; a < R; ++a) {
      logw[static_cast<size_t>(a)] = g * schedule_->LogMissAllClass(a, cls);
    }
    idle.lz[static_cast<size_t>(cls)] = NormalizeLogWeights(logw);
    double m = 0.0;
    for (LocationId a = 0; a < R; ++a) {
      m += logw[static_cast<size_t>(a)] * schedule_->LogMissAllClass(a, cls);
    }
    idle.m[static_cast<size_t>(cls)] = m;
    for (LocationId r = 0; r < R; ++r) {
      idle.dot[static_cast<size_t>(cls) * static_cast<size_t>(R) +
               static_cast<size_t>(r)] = DotAdjust(logw.data(), r);
    }
  }
}

void RFInfer::EStep() {
  // The idle rows every recompute may read are filled first, serially.
  for (const ContainerData& c : containers_) {
    const size_t g = 1 + c.objects.size();
    if (g >= idle_rows_.size()) idle_rows_.resize(g + 1);
    if (idle_rows_[g].m.empty()) FillIdleRows(g);
  }
  // A container's posterior reads only its own reads and its members'
  // (fixed by the previous M-step), so containers are independent.
  ForChunks(pool_, containers_.size(), [&](size_t begin, size_t end, int thread) {
    EStepScratch* scratch = &scratch_[static_cast<size_t>(thread)];
    for (size_t ci = begin; ci < end; ++ci) {
      ComputeContainer(containers_[ci], scratch);
    }
  });
}
// lint:hot-loop-end

// lint:hot-loop-begin(m-step)
Epoch RFInfer::IndexBase(const ContainerData& c, Epoch t, size_t* u) {
  while (c.universe[*u].end < t) ++*u;
  assert(c.universe[*u].begin <= t);
  return c.index_base[*u];
}

double RFInfer::DotAdjust(const double* q, LocationId r) const {
  const int R = model_->num_locations();
  double dot = 0.0;
  for (LocationId a = 0; a < R; ++a) {
    dot += q[static_cast<size_t>(a)] * model_->LogReadAdjust(r, a);
  }
  return dot;
}

double RFInfer::ComputeWeight(const ObjectData& o, int container_index) const {
  // Every interval of the object's universe lies inside one interval of
  // the container's, so one index base serves the whole interval.
  const ContainerData& c = containers_[static_cast<size_t>(container_index)];
  const IdleRows& idle = idle_rows_[c.group_size];
  const size_t R = static_cast<size_t>(model_->num_locations());
  double w = 0.0;
  size_t u = 0;
  for (const EpochInterval& iv : o.universe) {
    const Epoch base = IndexBase(c, iv.begin, &u);
    double total = 0.0;
    schedule_->ForEachClassCount(
        iv.begin, iv.end, [&](int cls, int64_t count) {
          total += static_cast<double>(count) *
                   idle.m[static_cast<size_t>(cls)];
        });
    total += c.act_excess_prefix[act_rank_[static_cast<size_t>(
                 iv.end + 1 + base)]] -
             c.act_excess_prefix[act_rank_[static_cast<size_t>(
                 iv.begin + base)]];
    w += total;
  }
  u = 0;
  size_t r = 0;
  int cls = -1;  // class of the latest idle read, at epoch cls_t
  Epoch cls_t = 0;
  for (const EpochInterval& iv : o.universe) {
    const Epoch base = IndexBase(c, iv.begin, &u);
    for (; r < o.reads.size() && o.reads[r].time <= iv.end; ++r) {
      const Epoch t = o.reads[r].time;
      const LocationId reader = o.reads[r].reader;
      const size_t p = static_cast<size_t>(t + base);
      if (BitAt(act_bits_, p)) {
        const size_t k = act_rank_[p];
        w += c.act_dot[k].reader == reader ? c.act_dot[k].dot
                                           : DotAdjust(&c.q_act[k * R], reader);
      } else {
        cls = AdvanceClass(*schedule_, cls, cls_t, t);
        cls_t = t;
        w += idle.dot[static_cast<size_t>(cls) * R +
                      static_cast<size_t>(reader)];
      }
    }
  }
  return w;
}

bool RFInfer::MStep() {
  // Objects are independent: each writes only its own weights, assignment
  // and moved flag.
  ForChunks(pool_, objects_.size(), [&](size_t begin, size_t end, int) {
    for (size_t oi = begin; oi < end; ++oi) {
      ObjectData& o = objects_[oi];
      moved_[oi] = 0;
      // ComputeWeight reads only the candidate's E-step outputs, so a pair
      // whose container was not recomputed keeps its weight, and an object
      // none of whose candidates was recomputed keeps its argmax.
      bool stale = false;
      for (size_t j = 0; j < o.candidates.size(); ++j) {
        const int ci = o.candidates[j];
        if (!containers_[static_cast<size_t>(ci)].recomputed) continue;
        o.weights[j] = o.priors[j] + ComputeWeight(o, ci);
        stale = true;
      }
      if (!stale) continue;
      double best = kNegInf;
      int best_j = -1;
      for (size_t j = 0; j < o.candidates.size(); ++j) {
        if (o.weights[j] > best) {
          best = o.weights[j];
          best_j = static_cast<int>(j);
        }
      }
      if (best_j != o.assigned) {
        o.assigned = best_j;
        moved_[oi] = 1;
      }
    }
  });
  // lint:hot-loop-end
  bool changed = false;
  for (uint8_t m : moved_) changed = changed || m != 0;
  if (changed) RebuildMembership();
  return changed;
}

double RFInfer::ComputeLogLikelihood() const {
  double total = 0.0;
  const size_t n_cls = static_cast<size_t>(schedule_->num_classes());
  // lint:hot-loop-begin(likelihood)
  for (const ContainerData& c : containers_) {
    const std::vector<double>& lz_idle = idle_rows_[c.group_size].lz;
    total += c.sum_act_lz;
    // Idle epochs: per-class count over the container universe minus the
    // active epochs of that class.
    for (size_t cls = 0; cls < n_cls; ++cls) {
      const int64_t count =
          c.universe_class_count[cls] - c.act_class_count[cls];
      if (count > 0) {
        total += static_cast<double>(count) * lz_idle[cls];
      }
    }
  }
  // lint:hot-loop-end
  return total;
}

Status RFInfer::Run(const Trace& trace, Epoch window_begin, Epoch window_end) {
  if (!trace.sealed()) {
    return Status::InvalidArgument("trace must be sealed before inference");
  }
  if (window_end < window_begin) {
    return Status::InvalidArgument("inference window is empty");
  }
  window_ = EpochInterval{window_begin, window_end};
  iterations_used_ = 0;
  likelihood_history_.clear();

  BuildUniverse(trace);
  BuildCandidates(trace);
  BuildReadCaches(trace);
  moved_.assign(objects_.size(), 0);

  bool changed = true;
  for (int iter = 0; iter < kMaxIterations && changed; ++iter) {
    EStep();
    likelihood_history_.push_back(ComputeLogLikelihood());
    changed = MStep();
    ++iterations_used_;
  }
  if (changed) {
    // Hit the iteration cap with a fresh assignment: recompute posteriors
    // once so location estimates and evidence match the final containment.
    EStep();
    likelihood_history_.push_back(ComputeLogLikelihood());
  }
  log_likelihood_ = likelihood_history_.back();
  return Status::OK();
}

TagId RFInfer::ContainerOf(TagId object) const {
  const int oi = ObjectIndexOf(object);
  if (oi < 0) return kNoTag;
  const ObjectData& o = objects_[static_cast<size_t>(oi)];
  if (o.assigned < 0) return kNoTag;
  return containers_[static_cast<size_t>(
                         o.candidates[static_cast<size_t>(o.assigned)])]
      .tag;
}

std::vector<TagId> RFInfer::ObjectsOf(TagId container) const {
  std::vector<TagId> out;
  const int ci = ContainerIndexOf(container);
  if (ci < 0) return out;
  for (int oi : containers_[static_cast<size_t>(ci)].objects) {
    out.push_back(objects_[static_cast<size_t>(oi)].tag);
  }
  return out;
}

std::vector<TagId> RFInfer::CandidatesOf(TagId object) const {
  std::vector<TagId> out;
  const int oi = ObjectIndexOf(object);
  if (oi < 0) return out;
  for (int ci : objects_[static_cast<size_t>(oi)].candidates) {
    out.push_back(containers_[static_cast<size_t>(ci)].tag);
  }
  return out;
}

double RFInfer::WeightOf(TagId object, TagId container) const {
  const int oi = ObjectIndexOf(object);
  const int ci = ContainerIndexOf(container);
  if (oi < 0 || ci < 0) return kNegInf;
  const ObjectData& o = objects_[static_cast<size_t>(oi)];
  for (size_t j = 0; j < o.candidates.size(); ++j) {
    if (o.candidates[j] == ci) return o.weights[j];
  }
  return kNegInf;
}

std::vector<std::pair<TagId, double>> RFInfer::ExportWeights(
    TagId object) const {
  std::vector<std::pair<TagId, double>> out;
  const int oi = ObjectIndexOf(object);
  if (oi < 0) return out;
  const ObjectData& o = objects_[static_cast<size_t>(oi)];
  for (size_t j = 0; j < o.candidates.size(); ++j) {
    out.emplace_back(containers_[static_cast<size_t>(o.candidates[j])].tag,
                     o.weights[j]);
  }
  return out;
}

void RFInfer::RestoreResults(
    std::vector<TagId> container_tags,
    const std::vector<RestoredObjectResult>& objects) {
  window_ = EpochInterval{};
  iterations_used_ = 0;
  log_likelihood_ = 0.0;
  likelihood_history_.clear();
  container_tags_ = std::move(container_tags);
  containers_.clear();
  containers_.resize(container_tags_.size());
  container_index_.clear();
  for (size_t i = 0; i < container_tags_.size(); ++i) {
    containers_[i].tag = container_tags_[i];
    container_index_[container_tags_[i]] = static_cast<int>(i);
  }
  object_tags_.clear();
  object_tags_.reserve(objects.size());
  objects_.clear();
  objects_.reserve(objects.size());
  object_index_.clear();
  for (const RestoredObjectResult& ro : objects) {
    ObjectData o;
    o.tag = ro.tag;
    o.candidates.reserve(ro.weights.size());
    o.weights.reserve(ro.weights.size());
    for (const auto& [ctag, w] : ro.weights) {
      const int ci = ContainerIndexOf(ctag);
      if (ci < 0) continue;  // checkpoint invariant; tolerated, not trusted
      o.candidates.push_back(ci);
      o.weights.push_back(w);
    }
    if (ro.assigned.valid()) {
      const int ci = ContainerIndexOf(ro.assigned);
      for (size_t j = 0; j < o.candidates.size(); ++j) {
        if (o.candidates[j] == ci) {
          o.assigned = static_cast<int>(j);
          break;
        }
      }
    }
    const int oi = static_cast<int>(objects_.size());
    object_index_[o.tag] = oi;
    object_tags_.push_back(o.tag);
    if (o.assigned >= 0) {
      containers_[static_cast<size_t>(o.candidates[static_cast<size_t>(
                      o.assigned)])]
          .objects.push_back(oi);
    }
    objects_.push_back(std::move(o));
  }
}

LocationId RFInfer::LocationOf(TagId tag, Epoch t) const {
  const int ci = ContainerIndexOf(tag);
  if (ci >= 0) {
    const ContainerData& c = containers_[static_cast<size_t>(ci)];
    auto it = std::upper_bound(c.act_epochs.begin(), c.act_epochs.end(), t);
    if (it == c.act_epochs.begin()) return kNoLocation;
    const size_t idx = static_cast<size_t>(it - c.act_epochs.begin()) - 1;
    return c.act_map[idx];
  }
  const int oi = ObjectIndexOf(tag);
  if (oi < 0) return kNoLocation;
  const ObjectData& o = objects_[static_cast<size_t>(oi)];
  if (o.assigned >= 0) {
    return LocationOf(
        containers_[static_cast<size_t>(
                        o.candidates[static_cast<size_t>(o.assigned)])]
            .tag,
        t);
  }
  // Unassigned object: fall back to its own most recent reading.
  LocationId last = kNoLocation;
  for (const TagRead& tr : o.reads) {
    if (tr.time > t) break;
    last = tr.reader;
  }
  return last;
}

std::vector<ObjectEvent> RFInfer::EmitEvents(Epoch after) const {
  std::vector<ObjectEvent> events;
  const Epoch from = std::max(window_.begin, after + 1);
  for (const ContainerData& c : containers_) {
    const auto first =
        std::lower_bound(c.act_epochs.begin(), c.act_epochs.end(), from);
    for (size_t k = static_cast<size_t>(first - c.act_epochs.begin());
         k < c.act_epochs.size() && c.act_epochs[k] <= window_.end; ++k) {
      const Epoch t = c.act_epochs[k];
      const LocationId loc = c.act_map[k];
      events.push_back(ObjectEvent{t, c.tag, loc, kNoTag});
      for (int oi : c.objects) {
        events.push_back(
            ObjectEvent{t, objects_[static_cast<size_t>(oi)].tag, loc, c.tag});
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const ObjectEvent& a, const ObjectEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.tag < b.tag;
            });
  return events;
}

// lint:hot-loop-begin(evidence-scan)
void RFInfer::ScanObject(const ObjectData& o, ScanResult* scan) const {
  std::vector<Epoch>& events = scan->events;
  events.clear();
  scan->point.clear();
  scan->cum.clear();
  scan->total.clear();
  const size_t n_cand = o.candidates.size();
  if (n_cand == 0) return;
  const size_t R = static_cast<size_t>(model_->num_locations());

  // Event epochs: any epoch in the object universe where the object or any
  // candidate container group had a reading -- per universe interval, the
  // OR of the candidates' active bits over it plus the object's reads.
  size_t n_epochs = 0;
  for (const EpochInterval& iv : o.universe) {
    n_epochs += static_cast<size_t>(iv.end - iv.begin + 1);
  }
  events.reserve(n_epochs);
  std::vector<Epoch>& base = scan->base;
  base.resize(o.universe.size() * n_cand);
  std::vector<uint64_t>& bits = scan->event_bits;
  size_t read_i = 0;
  for (size_t i = 0; i < o.universe.size(); ++i) {
    const EpochInterval& iv = o.universe[i];
    const size_t len = static_cast<size_t>(iv.end - iv.begin + 1);
    const size_t words = (len + 63) / 64;
    bits.assign(words, 0);
    for (size_t j = 0; j < n_cand; ++j) {
      const ContainerData& c =
          containers_[static_cast<size_t>(o.candidates[j])];
      size_t u = 0;
      base[i * n_cand + j] = IndexBase(c, iv.begin, &u);
      const size_t p0 = static_cast<size_t>(iv.begin + base[i * n_cand + j]);
      const size_t shift = p0 % 64;
      const uint64_t* src = act_bits_.data() + p0 / 64;
      for (size_t w = 0; w < words; ++w) {
        bits[w] |= shift == 0
                       ? src[w]
                       : (src[w] >> shift) | (src[w + 1] << (64 - shift));
      }
    }
    if (len % 64 != 0) bits[words - 1] &= (uint64_t{1} << (len % 64)) - 1;
    for (; read_i < o.reads.size() && o.reads[read_i].time <= iv.end;
         ++read_i) {
      SetBit(&bits, static_cast<size_t>(o.reads[read_i].time - iv.begin));
    }
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
        events.push_back(iv.begin + static_cast<Epoch>(64 * w) +
                         std::countr_zero(word));
      }
    }
  }
  scan->point.assign(events.size() * n_cand, 0.0);
  scan->cum.assign(events.size() * n_cand, 0.0);
  std::vector<double>& cum = scan->total;
  cum.assign(n_cand, 0.0);

  // One walk of the events for all candidates. No candidate is active
  // between two events, so a gap's sum is its idle classes' alone, counted
  // once and summed per candidate in class order; each candidate still
  // accumulates gaps and points in event order.
  std::vector<std::pair<int, int64_t>>& gap = scan->gap_classes;
  gap.reserve(static_cast<size_t>(schedule_->num_classes()));
  const auto add_gap = [&](Epoch begin, Epoch end) {
    gap.clear();
    schedule_->ForEachClassCount(begin, end, [&](int cls, int64_t count) {
      gap.push_back({cls, count});
    });
    for (size_t j = 0; j < n_cand; ++j) {
      const ContainerData& c =
          containers_[static_cast<size_t>(o.candidates[j])];
      const std::vector<double>& m_idle = idle_rows_[c.group_size].m;
      double total = 0.0;
      for (const auto& [cls, count] : gap) {
        total += static_cast<double>(count) * m_idle[static_cast<size_t>(cls)];
      }
      cum[j] += total;
    }
  };
  size_t ev = 0;
  read_i = 0;
  int ev_cls = -1;
  for (size_t i = 0; i < o.universe.size(); ++i) {
    const EpochInterval& iv = o.universe[i];
    const Epoch* iv_base = base.data() + i * n_cand;
    Epoch prev = iv.begin - 1;
    for (; ev < events.size() && events[ev] <= iv.end; ++ev) {
      const Epoch t = events[ev];
      if (t > prev + 1) add_gap(prev + 1, t - 1);
      // Point evidence at t: the miss term plus corrections for the
      // object's actual reads at t (Eq 7).
      ev_cls = AdvanceClass(*schedule_, ev_cls,
                            ev == 0 ? t : events[ev - 1], t);
      const size_t cls = static_cast<size_t>(ev_cls);
      while (read_i < o.reads.size() && o.reads[read_i].time < t) ++read_i;
      size_t read_end = read_i;
      while (read_end < o.reads.size() && o.reads[read_end].time == t) {
        ++read_end;
      }
      for (size_t j = 0; j < n_cand; ++j) {
        const ContainerData& c =
            containers_[static_cast<size_t>(o.candidates[j])];
        const size_t p = static_cast<size_t>(t + iv_base[j]);
        double point;
        if (BitAt(act_bits_, p)) {
          const size_t k = act_rank_[p];
          const ActDot& cached = c.act_dot[k];
          point = c.act_m[k];
          for (size_t ri = read_i; ri < read_end; ++ri) {
            const LocationId reader = o.reads[ri].reader;
            point += reader == cached.reader
                         ? cached.dot
                         : DotAdjust(&c.q_act[k * R], reader);
          }
        } else {
          const IdleRows& idle = idle_rows_[c.group_size];
          point = idle.m[cls];
          for (size_t ri = read_i; ri < read_end; ++ri) {
            point += idle.dot[cls * R +
                              static_cast<size_t>(o.reads[ri].reader)];
          }
        }
        cum[j] += point;
        scan->point[ev * n_cand + j] = point;
        scan->cum[ev * n_cand + j] = cum[j];
      }
      read_i = read_end;
      prev = t;
    }
    if (iv.end > prev) add_gap(prev + 1, iv.end);
  }
}

// lint:hot-loop-end

std::vector<EvidencePoint> RFInfer::EvidenceSeries(TagId object,
                                                   TagId container) const {
  std::vector<EvidencePoint> series;
  const int oi = ObjectIndexOf(object);
  const int ci = ContainerIndexOf(container);
  if (oi < 0 || ci < 0) return series;
  const ObjectData& o = objects_[static_cast<size_t>(oi)];
  size_t j = o.candidates.size();
  for (size_t k = 0; k < o.candidates.size(); ++k) {
    if (o.candidates[k] == ci) j = k;
  }
  if (j == o.candidates.size()) return series;
  ScanResult scan;
  ScanObject(o, &scan);
  const size_t n_cand = o.candidates.size();
  series.reserve(scan.events.size());
  for (size_t k = 0; k < scan.events.size(); ++k) {
    series.push_back(EvidencePoint{scan.events[k], scan.point[k * n_cand + j],
                                   scan.cum[k * n_cand + j]});
  }
  return series;
}

// lint:hot-loop-begin(evidence-search)
std::optional<ChangePointResult> RFInfer::ChangePointFor(
    const ObjectData& o, const ScanResult& scan, double threshold) const {
  const size_t n_cand = o.candidates.size();
  if (n_cand == 0 || scan.events.empty()) return std::nullopt;

  // Null hypothesis: one containment over the whole history.
  double null_ll = kNegInf;
  for (size_t j = 0; j < n_cand; ++j) {
    null_ll = std::max(null_ll, scan.total[j]);
  }
  // Alternative: the best prefix/suffix split at any event epoch. The
  // statistic is the likelihood-ratio improvement of the two-segment fit
  // (Eq 6, written as alternative minus null so Delta >= 0 and a change is
  // flagged when Delta >= delta).
  double best_alt = kNegInf;
  size_t best_k = 0;
  size_t best_pre = 0;
  size_t best_suf = 0;
  for (size_t k = 0; k + 1 < scan.events.size(); ++k) {
    double pre = kNegInf, suf = kNegInf;
    size_t pre_j = 0, suf_j = 0;
    for (size_t j = 0; j < n_cand; ++j) {
      const double p = scan.cum[k * n_cand + j];
      const double s = scan.total[j] - p;
      if (p > pre) {
        pre = p;
        pre_j = j;
      }
      if (s > suf) {
        suf = s;
        suf_j = j;
      }
    }
    if (pre + suf > best_alt) {
      best_alt = pre + suf;
      best_k = k;
      best_pre = pre_j;
      best_suf = suf_j;
    }
  }
  if (!std::isfinite(best_alt)) return std::nullopt;
  const double delta = best_alt - null_ll;
  if (delta < threshold) return std::nullopt;
  ChangePointResult result;
  result.object = o.tag;
  result.time = scan.events[best_k];
  result.old_container =
      containers_[static_cast<size_t>(o.candidates[best_pre])].tag;
  result.new_container =
      containers_[static_cast<size_t>(o.candidates[best_suf])].tag;
  result.delta = delta;
  return result;
}

std::optional<CriticalRegion> RFInfer::CriticalRegionFor(
    const ObjectData& o, const CriticalRegionSearch& search,
    ScanResult* scan) const {
  const size_t n_cand = o.candidates.size();
  const size_t n_ev = scan->events.size();
  if (n_cand == 0 || n_ev == 0) return std::nullopt;

  std::optional<CriticalRegion> cr;
  std::vector<double>& win_sum = scan->win_sum;
  win_sum.assign(n_cand, 0.0);
  size_t lo = 0;  // first event inside the sliding window
  for (size_t k = 0; k < n_ev; ++k) {
    for (size_t j = 0; j < n_cand; ++j) {
      win_sum[j] += scan->point[k * n_cand + j];
    }
    const Epoch w_begin = scan->events[k] - search.window + 1;
    while (scan->events[lo] < w_begin) {
      for (size_t j = 0; j < n_cand; ++j) {
        win_sum[j] -= scan->point[lo * n_cand + j];
      }
      ++lo;
    }
    double best = kNegInf, second = kNegInf;
    for (size_t j = 0; j < n_cand; ++j) {
      if (win_sum[j] > best) {
        second = best;
        best = win_sum[j];
      } else if (win_sum[j] > second) {
        second = win_sum[j];
      }
    }
    // Single-candidate objects: keep the window with the strongest
    // evidence (gap is undefined; use the raw evidence as the score).
    // Multi-candidate objects: keep the maximum-gap window at or above
    // the threshold. Preferring the max over the most recent qualifying
    // window keeps belt-style discriminative spans from being displaced
    // by windows whose gap is co-location noise; recency is handled by
    // the change-point barrier, which invalidates pre-change regions.
    const double gap = n_cand == 1 ? best : best - second;
    const bool qualifies =
        (n_cand == 1 || gap >= search.gap_threshold) &&
        (!cr.has_value() || gap > cr->gap);
    if (qualifies) {
      cr = CriticalRegion{EpochInterval{w_begin, scan->events[k]}, gap};
    }
  }
  return cr;
}
// lint:hot-loop-end

EvidenceFindings RFInfer::ScanEvidence(
    std::optional<double> change_threshold,
    std::optional<CriticalRegionSearch> regions) const {
  EvidenceFindings out;
  if (!change_threshold.has_value() && !regions.has_value()) return out;
  // Objects scan independently into their own result slots (one scan
  // buffer per thread); the slots are concatenated in object order.
  std::vector<ScanResult> scans(scratch_.size());
  std::vector<std::optional<ChangePointResult>> changes(objects_.size());
  std::vector<std::optional<CriticalRegion>> crs(objects_.size());
  ForChunks(pool_, objects_.size(), [&](size_t begin, size_t end, int thread) {
    ScanResult* scan = &scans[static_cast<size_t>(thread)];
    for (size_t oi = begin; oi < end; ++oi) {
      const ObjectData& o = objects_[oi];
      ScanObject(o, scan);
      if (change_threshold.has_value()) {
        changes[oi] = ChangePointFor(o, *scan, *change_threshold);
      }
      if (regions.has_value()) crs[oi] = CriticalRegionFor(o, *regions, scan);
    }
  });
  for (size_t oi = 0; oi < objects_.size(); ++oi) {
    if (changes[oi].has_value()) out.changes.push_back(*changes[oi]);
    if (crs[oi].has_value()) {
      out.critical_regions.emplace_back(objects_[oi].tag, *crs[oi]);
    }
  }
  return out;
}

double RFInfer::ChangeStatistic(TagId object) const {
  const int oi = ObjectIndexOf(object);
  if (oi < 0) return 0.0;
  const ObjectData& o = objects_[static_cast<size_t>(oi)];
  ScanResult scan;
  ScanObject(o, &scan);
  auto cp = ChangePointFor(o, scan, kNegInf);
  return cp.has_value() ? cp->delta : 0.0;
}

}  // namespace rfid
