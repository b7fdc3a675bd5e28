// Tests for per-site durability (dist/durability.h) and the durable
// crash/recovery path of the distributed replay (dist/distributed.h):
//
//   - the crash-point sweep: a site killed at every inference boundary, at
//     every kill phase (mid-window / post-drain / mid-flush), under every
//     checkpoint cadence (every boundary / sparse / WAL-only), restarted
//     from its own disk -- final alerts, accuracy series, beliefs, and
//     per-kind byte totals bit-identical to the uncrashed run;
//   - a transfer departing DURING the outage (the dead process never sent
//     it) exported exactly by the catch-up replay;
//   - an outage spanning inference boundaries, whose samples score the
//     down site's tags from the view frozen at the crash: pinned bit for
//     bit, serial and pooled;
//   - corruption handling: every single-byte flip of a checkpoint falls
//     back to the previous cut, WAL truncation at every offset yields the
//     longest complete-record prefix (torn tail counted) or fails loudly
//     when the hole is mid-stream;
//   - the tamper-evident audit log: golden hash chain, and a tamper
//     matrix (edit every byte, swap adjacent records, drop an interior
//     record) that pinpoints the first broken link.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/serde.h"
#include "common/sha256.h"
#include "dist/distributed.h"
#include "dist/durability.h"
#include "dist/frame.h"
#include "sim/sensors.h"
#include "sim/supply_chain.h"
#include "tests/fnv_digest.h"
#include "tests/scratch_dir.h"

namespace rfid {
namespace {

namespace fs = std::filesystem;

DurabilityOptions QuietDurability(const std::string& dir) {
  DurabilityOptions o;
  o.dir = dir;
  o.fsync = DurabilityOptions::FsyncPolicy::kOff;  // tests don't need disk
                                                   // barriers, just layout
  return o;
}

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> xs) {
  return std::vector<uint8_t>(xs);
}

Status ReadFile(const std::string& path, std::vector<uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("open " + path);
  out->clear();
  uint8_t buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->insert(out->end(), buf, buf + n);
  }
  std::fclose(f);
  return Status::OK();
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// The single file under `dir` whose name starts with `prefix`.
std::string FindFile(const std::string& dir, const std::string& prefix) {
  std::string found;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind(prefix, 0) == 0) {
      EXPECT_TRUE(found.empty()) << "multiple " << prefix << "* files";
      found = e.path().string();
    }
  }
  EXPECT_FALSE(found.empty()) << "no " << prefix << "* file in " << dir;
  return found;
}

// ---- Options / env knobs ----

TEST(DurabilityOptionsTest, EnvKnobsSelectDirectoryAndFsyncPolicy) {
  unsetenv("RFID_DURABILITY_DIR");
  unsetenv("RFID_DURABILITY_FSYNC");
  EXPECT_FALSE(DurabilityOptions().enabled());

  setenv("RFID_DURABILITY_DIR", "/tmp/rfid_dur_env_test", 1);
  setenv("RFID_DURABILITY_FSYNC", "off", 1);
  const DurabilityOptions o;
  EXPECT_TRUE(o.enabled());
  EXPECT_EQ(o.dir, "/tmp/rfid_dur_env_test");
  EXPECT_EQ(o.fsync, DurabilityOptions::FsyncPolicy::kOff);
  unsetenv("RFID_DURABILITY_DIR");
  unsetenv("RFID_DURABILITY_FSYNC");
  EXPECT_EQ(DurabilityOptions().fsync, DurabilityOptions::FsyncPolicy::kData);
}

// ---- Frame WAL: truncation sweep ----

TEST(WalTest, TruncationAtEveryOffsetRecoversLongestPrefix) {
  ScratchDir dir;
  std::vector<Frame> expected;
  {
    SiteDurability d(QuietDurability(dir.str()), /*site=*/3);
    ASSERT_TRUE(d.Open().ok());
    for (int i = 0; i < 5; ++i) {
      std::vector<uint8_t> payload;
      for (int b = 0; b <= i * 7; ++b) {
        payload.push_back(static_cast<uint8_t>(b * 13 + i));
      }
      ASSERT_TRUE(d.AppendFrame(static_cast<SiteId>(i),
                                MessageKind::kInferenceState, payload,
                                /*delivery_epoch=*/100 + i)
                      .ok());
    }
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(d.ReadWalSince(0, &expected).ok());
    ASSERT_EQ(expected.size(), 5u);
  }

  const std::string wal = FindFile(dir.str() + "/site_3", "wal_");
  std::vector<uint8_t> full;
  ASSERT_TRUE(ReadFile(wal, &full).ok());

  // Record end offsets, from a clean sequential decode.
  std::vector<size_t> ends;
  size_t off = 0;
  while (off < full.size()) {
    Frame f;
    size_t consumed = 0;
    ASSERT_TRUE(
        DecodeFrame(full.data() + off, full.size() - off, &f, &consumed)
            .ok());
    off += consumed;
    ends.push_back(off);
  }
  ASSERT_EQ(ends.size(), 5u);

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    WriteFile(wal, std::vector<uint8_t>(full.begin(),
                                        full.begin() +
                                            static_cast<ptrdiff_t>(cut)));
    SiteDurability r(QuietDurability(dir.str()), /*site=*/3);
    ASSERT_TRUE(r.Open().ok()) << "cut " << cut;
    std::vector<Frame> got;
    ASSERT_TRUE(r.ReadWalSince(0, &got).ok()) << "cut " << cut;
    size_t complete = 0;
    while (complete < ends.size() && ends[complete] <= cut) ++complete;
    ASSERT_EQ(got.size(), complete) << "cut " << cut;
    for (size_t i = 0; i < complete; ++i) {
      EXPECT_EQ(got[i], expected[i]) << "cut " << cut << " record " << i;
    }
    // A cut strictly inside a record leaves a torn tail; a cut on a record
    // boundary leaves a clean log.
    const bool torn = complete < ends.size() &&
                      cut > (complete == 0 ? 0 : ends[complete - 1]);
    EXPECT_EQ(r.stats().torn_tail_records, torn ? 1 : 0) << "cut " << cut;
  }
  WriteFile(wal, full);
}

TEST(WalTest, MidStreamHoleInAnOldSegmentFailsLoudly) {
  ScratchDir dir;
  SiteDurability d(QuietDurability(dir.str()), /*site=*/0);
  ASSERT_TRUE(d.Open().ok());
  // Two checkpoints keep WAL coverage back to the OLDER cut, so the
  // segment rotated in at 300 is retained but is no longer the final one:
  // a hole in it cannot be a legal torn tail.
  ASSERT_TRUE(d.WriteCheckpoint(300, Bytes({9, 9, 9})).ok());
  ASSERT_TRUE(d.AppendFrame(1, MessageKind::kQueryState,
                            Bytes({1, 2, 3, 4}), 310)
                  .ok());
  ASSERT_TRUE(d.Flush().ok());
  ASSERT_TRUE(d.WriteCheckpoint(600, Bytes({8, 8, 8})).ok());
  ASSERT_TRUE(d.AppendFrame(1, MessageKind::kQueryState,
                            Bytes({5, 6, 7, 8}), 610)
                  .ok());
  ASSERT_TRUE(d.Flush().ok());

  const std::string old_seg = dir.str() + "/site_0/wal_" +
                              std::string(17, '0') + "300.log";
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFile(old_seg, &bytes).ok());
  ASSERT_GT(bytes.size(), 4u);
  bytes.resize(bytes.size() - 3);  // tear the non-final segment
  WriteFile(old_seg, bytes);

  std::vector<Frame> got;
  const Status st = d.ReadWalSince(300, &got);
  EXPECT_FALSE(st.ok());
  // Reading only from the clean newest segment still works: recovery from
  // the checkpoint at 600 does not touch the damaged history.
  got.clear();
  EXPECT_TRUE(d.ReadWalSince(600, &got).ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, Bytes({5, 6, 7, 8}));
}

// ---- Checkpoints: corruption fallback ----

TEST(CheckpointTest, EveryByteFlipFallsBackToThePreviousCut) {
  ScratchDir dir;
  SiteDurability d(QuietDurability(dir.str()), /*site=*/2);
  ASSERT_TRUE(d.Open().ok());
  const std::vector<uint8_t> older = Bytes({10, 20, 30, 40, 50});
  const std::vector<uint8_t> newer = Bytes({11, 22, 33, 44, 55, 66});
  ASSERT_TRUE(d.WriteCheckpoint(300, older).ok());
  ASSERT_TRUE(d.WriteCheckpoint(600, newer).ok());

  Epoch epoch = 0;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(d.LoadCheckpoint(&epoch, &payload).ok());
  EXPECT_EQ(epoch, 600);
  EXPECT_EQ(payload, newer);

  const std::string newest =
      dir.str() + "/site_2/checkpoint_" + std::string(17, '0') + "600.ckpt";
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFile(newest, &bytes).ok());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> flipped = bytes;
    flipped[i] ^= 0x5a;
    WriteFile(newest, flipped);
    epoch = -1;
    payload.clear();
    ASSERT_TRUE(d.LoadCheckpoint(&epoch, &payload).ok()) << "byte " << i;
    EXPECT_EQ(epoch, 300) << "byte " << i;
    EXPECT_EQ(payload, older) << "byte " << i;
  }
  EXPECT_GE(d.stats().checkpoint_fallbacks,
            static_cast<int64_t>(bytes.size()));
  WriteFile(newest, bytes);

  // Both cuts corrupt: recovery starts from scratch (epoch 0, empty).
  const std::string oldest =
      dir.str() + "/site_2/checkpoint_" + std::string(17, '0') + "300.ckpt";
  std::vector<uint8_t> old_bytes;
  ASSERT_TRUE(ReadFile(oldest, &old_bytes).ok());
  old_bytes[old_bytes.size() / 2] ^= 0xff;
  WriteFile(oldest, old_bytes);
  std::vector<uint8_t> new_bytes = bytes;
  new_bytes[1] ^= 0xff;
  WriteFile(newest, new_bytes);
  ASSERT_TRUE(d.LoadCheckpoint(&epoch, &payload).ok());
  EXPECT_EQ(epoch, 0);
  EXPECT_TRUE(payload.empty());
}

TEST(CheckpointTest, RotationKeepsWalCoverageBackToTheOlderCut) {
  ScratchDir dir;
  SiteDurability d(QuietDurability(dir.str()), /*site=*/1);
  ASSERT_TRUE(d.Open().ok());
  for (Epoch c = 300; c <= 1500; c += 300) {
    ASSERT_TRUE(d.AppendFrame(0, MessageKind::kInferenceState,
                              Bytes({static_cast<uint8_t>(c / 300)}), c - 1)
                    .ok());
    ASSERT_TRUE(
        d.WriteCheckpoint(c, Bytes({static_cast<uint8_t>(c / 100)})).ok());
  }
  // Only the newest two checkpoints survive...
  int checkpoints = 0;
  for (const fs::directory_entry& e :
       fs::directory_iterator(dir.str() + "/site_1")) {
    const std::string name = e.path().filename().string();
    if (name.rfind("checkpoint_", 0) == 0) ++checkpoints;
  }
  EXPECT_EQ(checkpoints, 2);
  // ...and the WAL still covers everything after the OLDER one, so a
  // corrupt newest checkpoint can fall back and replay through.
  std::vector<Frame> frames;
  ASSERT_TRUE(d.ReadWalSince(1200, &frames).ok());
  frames.clear();
  ASSERT_TRUE(d.ReadWalSince(1500, &frames).ok());
  EXPECT_TRUE(frames.empty());  // nothing drained after the final cut
}

// ---- Audit log: golden chain + tamper matrix ----

/// Deterministic six-record log for site 4.
void WriteGoldenAuditLog(const std::string& dir) {
  SiteDurability d(QuietDurability(dir), /*site=*/4);
  ASSERT_TRUE(d.Open().ok());
  for (int i = 0; i < 6; ++i) {
    std::vector<uint8_t> payload;
    for (int b = 0; b < 4 + i; ++b) {
      payload.push_back(static_cast<uint8_t>(i * 16 + b));
    }
    ASSERT_TRUE(d.AppendAudit(i % 2 == 0 ? AuditRecord::Kind::kAlert
                                         : AuditRecord::Kind::kMovement,
                              /*epoch=*/500 + i, payload)
                    .ok());
  }
  ASSERT_TRUE(d.Flush().ok());
}

/// Byte extent [begin, end) of each record in an audit log.
std::vector<std::pair<size_t, size_t>> AuditExtents(
    const std::vector<uint8_t>& bytes) {
  std::vector<std::pair<size_t, size_t>> extents;
  size_t off = 0;
  while (off < bytes.size()) {
    BufferReader r(bytes.data() + off, bytes.size() - off);
    uint64_t body_len = 0;
    EXPECT_TRUE(r.GetVarint(&body_len).ok());
    const size_t end = off + r.position() + body_len + 64;
    EXPECT_LE(end, bytes.size());
    extents.emplace_back(off, end);
    off = end;
  }
  return extents;
}

TEST(AuditLogTest, GoldenChainVerifiesAndSurvivesReopen) {
  ScratchDir dir;
  WriteGoldenAuditLog(dir.str());
  const std::string path = dir.str() + "/site_4/audit.log";

  const AuditVerifyResult result =
      VerifyAuditLog(path, SiteDurability::SiteKey(4));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 6);
  EXPECT_EQ(result.first_bad_record, -1);
  // Golden: the chain value pins the record encoding, the genesis value,
  // and SHA-256 itself -- any accidental format change breaks this.
  EXPECT_EQ(
      ToHex(result.final_chain),
      "654a9550f8303b96789fded3ee53ee8531ff9edc8a592e1cc39c2e4d2b057a5a");

  std::vector<AuditRecord> records;
  ASSERT_TRUE(ReadAuditLog(path, &records).ok());
  ASSERT_EQ(records.size(), 6u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
    EXPECT_EQ(records[i].site, 4);
    EXPECT_EQ(records[i].epoch, 500 + static_cast<Epoch>(i));
  }

  // A new incarnation continues the chain instead of restarting it.
  {
    SiteDurability d(QuietDurability(dir.str()), /*site=*/4);
    ASSERT_TRUE(d.Open().ok());
    ASSERT_TRUE(
        d.AppendAudit(AuditRecord::Kind::kAlert, 900, Bytes({1})).ok());
    ASSERT_TRUE(d.Flush().ok());
  }
  const AuditVerifyResult extended =
      VerifyAuditLog(path, SiteDurability::SiteKey(4));
  ASSERT_TRUE(extended.ok) << extended.error;
  EXPECT_EQ(extended.records, 7);

  // The wrong site's key rejects at the first record.
  const AuditVerifyResult wrong_key =
      VerifyAuditLog(path, SiteDurability::SiteKey(5));
  EXPECT_FALSE(wrong_key.ok);
  EXPECT_EQ(wrong_key.first_bad_record, 0);
}

TEST(AuditLogTest, TamperMatrixPinpointsTheFirstBrokenLink) {
  ScratchDir dir;
  WriteGoldenAuditLog(dir.str());
  const std::string path = dir.str() + "/site_4/audit.log";
  const std::vector<uint8_t> key = SiteDurability::SiteKey(4);
  std::vector<uint8_t> clean;
  ASSERT_TRUE(ReadFile(path, &clean).ok());
  const auto extents = AuditExtents(clean);
  ASSERT_EQ(extents.size(), 6u);
  const std::string tampered = dir.str() + "/tampered.log";

  // Edit: every single-byte flip is detected, at the record it lives in.
  for (size_t i = 0; i < clean.size(); ++i) {
    std::vector<uint8_t> bytes = clean;
    bytes[i] ^= 0x01;
    WriteFile(tampered, bytes);
    const AuditVerifyResult r = VerifyAuditLog(tampered, key);
    ASSERT_FALSE(r.ok) << "flipped byte " << i;
    int64_t record = -1;
    for (size_t e = 0; e < extents.size(); ++e) {
      if (i >= extents[e].first && i < extents[e].second) {
        record = static_cast<int64_t>(e);
      }
    }
    EXPECT_EQ(r.first_bad_record, record) << "flipped byte " << i;
  }

  // Reorder: swapping adjacent records breaks the chain at the first.
  for (size_t e = 0; e + 1 < extents.size(); ++e) {
    std::vector<uint8_t> bytes(clean.begin(),
                               clean.begin() +
                                   static_cast<ptrdiff_t>(extents[e].first));
    bytes.insert(bytes.end(),
                 clean.begin() + static_cast<ptrdiff_t>(extents[e + 1].first),
                 clean.begin() + static_cast<ptrdiff_t>(extents[e + 1].second));
    bytes.insert(bytes.end(),
                 clean.begin() + static_cast<ptrdiff_t>(extents[e].first),
                 clean.begin() + static_cast<ptrdiff_t>(extents[e].second));
    bytes.insert(bytes.end(),
                 clean.begin() + static_cast<ptrdiff_t>(extents[e + 1].second),
                 clean.end());
    WriteFile(tampered, bytes);
    const AuditVerifyResult r = VerifyAuditLog(tampered, key);
    ASSERT_FALSE(r.ok) << "swapped records " << e << "," << e + 1;
    EXPECT_EQ(r.first_bad_record, static_cast<int64_t>(e));
  }

  // Drop: removing any interior record breaks the chain where it stood.
  for (size_t e = 0; e + 1 < extents.size(); ++e) {
    std::vector<uint8_t> bytes(clean.begin(),
                               clean.begin() +
                                   static_cast<ptrdiff_t>(extents[e].first));
    bytes.insert(bytes.end(),
                 clean.begin() + static_cast<ptrdiff_t>(extents[e].second),
                 clean.end());
    WriteFile(tampered, bytes);
    const AuditVerifyResult r = VerifyAuditLog(tampered, key);
    ASSERT_FALSE(r.ok) << "dropped record " << e;
    EXPECT_EQ(r.first_bad_record, static_cast<int64_t>(e));
  }

  // Truncating the FINAL record is the chain's documented blind spot: the
  // remaining prefix still verifies. External anchoring of the latest
  // chain value (which log_verify prints) is what closes it.
  std::vector<uint8_t> bytes(clean.begin(),
                             clean.begin() +
                                 static_cast<ptrdiff_t>(extents[5].first));
  WriteFile(tampered, bytes);
  const AuditVerifyResult r = VerifyAuditLog(tampered, key);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.records, 5);
}

// ---- Durable replay: crash-point sweep + departed-transfer exactness ----

SupplyChainConfig SweepConfig() {
  SupplyChainConfig cfg;
  cfg.num_warehouses = 3;
  cfg.shelves_per_warehouse = 3;
  cfg.cases_per_pallet = 2;
  cfg.items_per_case = 4;
  cfg.shelf_stay = 300;
  cfg.transit_time = 30;
  cfg.horizon = 1500;
  cfg.seed = 77;
  return cfg;
}

DistributedOptions SweepOptions() {
  DistributedOptions opts;
  opts.site.migration = MigrationMode::kFullReadings;
  opts.site.streaming.inference_period = 300;
  opts.site.streaming.recent_history = 400;
  opts.attach_queries = true;
  opts.q1 = ExposureQuery::Q1Config(/*duration=*/300);
  opts.q1.max_gap = 400;
  opts.q2 = ExposureQuery::Q2Config(/*duration=*/300);
  opts.q2.max_gap = 400;
  opts.num_threads = 0;
  opts.network.faults = FaultModel{};  // explicit; never ambient env
  opts.trace = false;
  return opts;
}

struct SweepFixture {
  SweepFixture() : sim(SweepConfig()) {
    sim.Run();
    for (TagId item : sim.all_items()) {
      catalog.RegisterProduct(item,
                              ProductInfo{"frozen_food", true, false, false});
    }
    for (TagId c : sim.all_cases()) {
      catalog.RegisterContainer(c, ContainerInfo{ContainerClass::kPlain});
    }
    SensorConfig scfg;
    Rng rng(5);
    sensors = GenerateSensorStream(scfg, sim.layout().num_locations(),
                                   sim.config().horizon, rng);
  }
  SupplyChainSim sim;
  ProductCatalog catalog;
  std::vector<SensorReading> sensors;
};

void ExpectSameAlerts(const std::vector<ExposureAlert>& a,
                      const std::vector<ExposureAlert>& b,
                      const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tag, b[i].tag) << label << " alert " << i;
    EXPECT_EQ(a[i].first_time, b[i].first_time) << label << " alert " << i;
    EXPECT_EQ(a[i].last_time, b[i].last_time) << label << " alert " << i;
    EXPECT_EQ(a[i].n_events, b[i].n_events) << label << " alert " << i;
  }
}

/// The headline contract: results AND byte accounting bit-identical --
/// equal per-kind and total bytes also prove recovery sent nothing extra.
void ExpectDurableBitIdentity(const DistributedSystem& reference,
                              const DistributedSystem& durable,
                              const SupplyChainSim& sim,
                              const std::string& label) {
  EXPECT_EQ(reference.snapshots(), durable.snapshots()) << label;
  EXPECT_EQ(reference.case_snapshots(), durable.case_snapshots()) << label;
  ExpectSameAlerts(reference.AllAlerts(0), durable.AllAlerts(0), label);
  ExpectSameAlerts(reference.AllAlerts(1), durable.AllAlerts(1), label);
  EXPECT_EQ(reference.network().total_bytes(),
            durable.network().total_bytes())
      << label;
  EXPECT_EQ(reference.network().total_messages(),
            durable.network().total_messages())
      << label;
  for (int k = 0; k < kNumMessageKinds; ++k) {
    const MessageKind kind = static_cast<MessageKind>(k);
    EXPECT_EQ(reference.network().BytesOfKind(kind),
              durable.network().BytesOfKind(kind))
        << label << " " << ToString(kind);
  }
  for (TagId item : sim.all_items()) {
    EXPECT_EQ(reference.BelievedContainer(item),
              durable.BelievedContainer(item))
        << label;
  }
  for (TagId c : sim.all_cases()) {
    EXPECT_EQ(reference.BelievedContainer(c), durable.BelievedContainer(c))
        << label;
  }
}

TEST(DurableReplayTest, CrashPointSweepIsBitIdenticalWithZeroPeerTraffic) {
  SweepFixture fx;
  ASSERT_FALSE(fx.sim.transfers().empty());

  DistributedOptions base = SweepOptions();
  DistributedSystem reference(&fx.sim, base, &fx.catalog, &fx.sensors);
  reference.Run();
  ASSERT_GT(reference.network().BytesOfKind(MessageKind::kInferenceState), 0);

  const struct {
    CrashPhase phase;
    const char* name;
  } kPhases[] = {{CrashPhase::kMidWindow, "mid-window"},
                 {CrashPhase::kPostDrain, "post-drain"},
                 {CrashPhase::kMidFlush, "mid-flush"}};
  for (const int cadence : {1, 5, 0}) {
    for (Epoch at = 300; at <= 1200; at += 300) {
      for (const auto& [phase, name] : kPhases) {
        const std::string label = "cadence=" + std::to_string(cadence) +
                                  " at=" + std::to_string(at) + " " + name;
        ScratchDir dir;
        DistributedOptions opts = SweepOptions();
        opts.durability = QuietDurability(dir.str());
        opts.site.checkpoint_every = cadence;
        // The sweep's sharpest cell: the process dies and restarts within
        // the same epoch, entirely from its own disk.
        opts.crashes.push_back(CrashEvent{1, at, at, phase});
        DistributedSystem durable(&fx.sim, opts, &fx.catalog, &fx.sensors);
        durable.Run();
        ExpectDurableBitIdentity(reference, durable, fx.sim, label);
        const DurabilityStats totals = durable.DurabilityTotals();
        EXPECT_GT(totals.wal_appends, 0) << label;
        if (cadence != 0) {
          EXPECT_GT(totals.checkpoints, 0) << label;
        } else {
          EXPECT_EQ(totals.checkpoints, 0) << label;
        }
      }
    }
  }
}

TEST(DurableReplayTest, CrashScheduleWithoutDurabilityIsRejected) {
  // Recovery rebuilds a crashed site from its own checkpoint + WAL, so a
  // crash schedule with nowhere to keep them is a configuration error.
  SweepFixture fx;
  DistributedOptions opts = SweepOptions();
  opts.durability.dir.clear();
  opts.crashes.push_back(CrashEvent{1, 600, 660});
  EXPECT_DEATH(
      { DistributedSystem sys(&fx.sim, opts, &fx.catalog, &fx.sensors); },
      "crash schedule requires durability");
}

TEST(DurableReplayTest, WindowedOutageRecoversFromDiskBitIdentically) {
  SweepFixture fx;
  // A real outage window (crash strictly before recovery) with no
  // departure inside it: the durable site restores checkpoint + WAL with
  // zero peer traffic and converges exactly, byte totals included.
  Epoch at = 0;
  Epoch recover_at = 0;
  for (Epoch start = 610; start + 60 < 1400 && at == 0; start += 5) {
    bool quiet = true;
    for (const ObjectTransfer& tr : fx.sim.transfers()) {
      if (tr.from == 1 && tr.depart >= start && tr.depart < start + 60) {
        quiet = false;
        break;
      }
    }
    if (quiet) {
      at = start;
      recover_at = start + 60;
    }
  }
  ASSERT_GT(at, 0);

  DistributedOptions base = SweepOptions();
  DistributedSystem reference(&fx.sim, base, &fx.catalog, &fx.sensors);
  reference.Run();

  ScratchDir dir;
  DistributedOptions opts = SweepOptions();
  opts.durability = QuietDurability(dir.str());
  opts.site.checkpoint_every = 0;  // WAL-only: restart refeeds the full log
  opts.crashes.push_back(CrashEvent{1, at, recover_at});
  DistributedSystem durable(&fx.sim, opts, &fx.catalog, &fx.sensors);
  durable.Run();
  ExpectDurableBitIdentity(reference, durable, fx.sim, "windowed outage");
  EXPECT_GT(durable.DurabilityTotals().replayed_frames, 0);
}

TEST(DurableReplayTest, OutageAcrossBoundariesIsBitIdenticalToPinnedDigest) {
  SweepFixture fx;
  // Site 1 is down across the boundaries at 600 and 900: the samples taken
  // there score its tags from the last-known view frozen at the crash, so
  // the series departs from the uncrashed run's. It is pinned bit for bit,
  // serial and pooled.
  const CrashEvent crash{1, 550, 950};
  DistributedSystem reference(&fx.sim, SweepOptions(), &fx.catalog,
                              &fx.sensors);
  reference.Run();
  for (const int threads : {0, 4}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    ScratchDir dir;
    DistributedOptions opts = SweepOptions();
    opts.num_threads = threads;
    opts.durability = QuietDurability(dir.str());
    opts.crashes.push_back(crash);
    DistributedSystem durable(&fx.sim, opts, &fx.catalog, &fx.sensors);
    durable.Run();
    ASSERT_EQ(durable.snapshots().size(), reference.snapshots().size());
    EXPECT_NE(durable.snapshots(), reference.snapshots());
    Fnv d;
    d.Snapshots(durable.snapshots());
    EXPECT_EQ(d.h, 0x32d0614d99e9a8efULL) << std::hex << "digest 0x" << d.h;
  }
}

TEST(DurableReplayTest, DepartureDuringOutageIsExportedByCatchUpReplay) {
  SweepFixture fx;
  // Pick a transfer and wrap the crash window around its departure: the
  // dead process never sent the envelope, so only the catch-up replay
  // can. recover_at stays strictly before the arrival epoch, so the
  // destination still installs the state at its original boundary.
  const ObjectTransfer* victim = nullptr;
  for (const ObjectTransfer& tr : fx.sim.transfers()) {
    if (tr.from > 0 && tr.to != kNoSite && tr.depart >= 400 &&
        tr.arrive > tr.depart + 20 && tr.arrive <= 1400) {
      victim = &tr;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  const Epoch at = victim->depart > 5 ? victim->depart - 5 : 1;
  const Epoch recover_at = victim->depart + 15;
  ASSERT_LT(recover_at, victim->arrive);

  DistributedOptions base = SweepOptions();
  DistributedSystem reference(&fx.sim, base, &fx.catalog, &fx.sensors);
  reference.Run();

  ScratchDir dir;
  DistributedOptions opts = SweepOptions();
  opts.durability = QuietDurability(dir.str());
  opts.crashes.push_back(CrashEvent{victim->from, at, recover_at});
  DistributedSystem durable(&fx.sim, opts, &fx.catalog, &fx.sensors);
  durable.Run();
  ExpectDurableBitIdentity(reference, durable, fx.sim,
                           "departed during outage");
}

TEST(DurableReplayTest, AuditLogsVerifyAndCountTheRunsAlertsAndMovements) {
  SweepFixture fx;
  ScratchDir dir;
  DistributedOptions opts = SweepOptions();
  opts.durability = QuietDurability(dir.str());
  DistributedSystem sys(&fx.sim, opts, &fx.catalog, &fx.sensors);
  sys.Run();

  int64_t alerts = 0;
  int64_t movements = 0;
  for (SiteId s = 0; s < sys.num_processors(); ++s) {
    const std::string path =
        dir.str() + "/site_" + std::to_string(s) + "/audit.log";
    const AuditVerifyResult r =
        VerifyAuditLog(path, SiteDurability::SiteKey(s));
    ASSERT_TRUE(r.ok) << "site " << s << ": " << r.error;
    std::vector<AuditRecord> records;
    ASSERT_TRUE(ReadAuditLog(path, &records).ok());
    for (const AuditRecord& rec : records) {
      EXPECT_EQ(rec.site, s);
      (rec.kind == AuditRecord::Kind::kAlert ? alerts : movements) += 1;
    }
  }
  EXPECT_EQ(alerts, static_cast<int64_t>(sys.AllAlerts(0).size() +
                                         sys.AllAlerts(1).size()));
  int64_t exported = 0;
  for (const ObjectTransfer& tr : fx.sim.transfers()) {
    if (tr.to != kNoSite && tr.depart <= fx.sim.config().horizon) ++exported;
  }
  EXPECT_EQ(movements, exported);
  EXPECT_EQ(sys.DurabilityTotals().audit_records, alerts + movements);
}

TEST(DurableReplayTest, AuditChainStaysContinuousAcrossCrashRecovery) {
  SweepFixture fx;
  ScratchDir dir;
  DistributedOptions opts = SweepOptions();
  opts.durability = QuietDurability(dir.str());
  opts.crashes.push_back(CrashEvent{1, 500, 650});
  DistributedSystem sys(&fx.sim, opts, &fx.catalog, &fx.sensors);
  sys.Run();

  for (SiteId s = 0; s < sys.num_processors(); ++s) {
    const std::string path =
        dir.str() + "/site_" + std::to_string(s) + "/audit.log";
    const AuditVerifyResult r =
        VerifyAuditLog(path, SiteDurability::SiteKey(s));
    ASSERT_TRUE(r.ok) << "site " << s << ": " << r.error;
  }
}

}  // namespace
}  // namespace rfid
