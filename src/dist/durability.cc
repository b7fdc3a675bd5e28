#include "dist/durability.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

namespace rfid {
namespace {

namespace fs = std::filesystem;

constexpr char kCheckpointPrefix[] = "checkpoint_";
constexpr char kCheckpointSuffix[] = ".ckpt";
constexpr char kWalPrefix[] = "wal_";
constexpr char kWalSuffix[] = ".log";

/// Checkpoints kept on disk: the newest, plus one fallback the WAL
/// retention lags behind.
constexpr int kCheckpointsRetained = 2;

std::string EpochName(const char* prefix, Epoch epoch, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%020" PRId64 "%s", prefix,
                static_cast<int64_t>(epoch), suffix);
  return std::string(buf);
}

/// Parses `name` as `<prefix><epoch><suffix>`; false when it is not one.
bool ParseEpoch(const std::string& name, const char* prefix,
                const char* suffix, Epoch* epoch) {
  const size_t np = std::strlen(prefix);
  const size_t ns = std::strlen(suffix);
  if (name.size() <= np + ns || name.compare(0, np, prefix) != 0 ||
      name.compare(name.size() - ns, ns, suffix) != 0) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long v =
      std::strtoll(name.c_str() + np, &end, 10);
  if (errno != 0 || end != name.c_str() + (name.size() - ns)) return false;
  *epoch = static_cast<Epoch>(v);
  return true;
}

/// Epochs of every `<prefix><epoch><suffix>` file in `dir`, ascending.
std::vector<Epoch> ListEpochs(const std::string& dir, const char* prefix,
                              const char* suffix) {
  std::vector<Epoch> epochs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    Epoch e = 0;
    if (ParseEpoch(entry.path().filename().string(), prefix, suffix, &e)) {
      epochs.push_back(e);
    }
  }
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  out->clear();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return Status::IOError("read " + path + ": " + std::strerror(err));
    }
    if (n == 0) break;
    out->insert(out->end(), buf, buf + n);
  }
  ::close(fd);
  return Status::OK();
}

// lint:durable-io-begin(durability-writers)
// The audited write path: every byte that reaches a WAL segment or a
// checkpoint file goes through these helpers, which the durability-fsync
// lint rule pairs with the fsync policy.

Status WriteAll(int fd, const uint8_t* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("write: ") + std::strerror(errno));
    }
    data += static_cast<size_t>(w);
    n -= static_cast<size_t>(w);
  }
  return Status::OK();
}

Status SyncFd(int fd, DurabilityOptions::FsyncPolicy policy) {
  if (policy == DurabilityOptions::FsyncPolicy::kOff) return Status::OK();
#if defined(__APPLE__)
  if (::fsync(fd) != 0) {
    return Status::IOError(std::string("fsync: ") + std::strerror(errno));
  }
#else
  if (::fdatasync(fd) != 0) {
    return Status::IOError(std::string("fdatasync: ") + std::strerror(errno));
  }
#endif
  return Status::OK();
}

/// Writes `bytes` to `path` via a temp file + fsync + atomic rename; a
/// crash never leaves a partially written file under the final name.
Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& bytes,
                       DurabilityOptions::FsyncPolicy policy) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("open " + tmp + ": " + std::strerror(errno));
  }
  Status st = WriteAll(fd, bytes.data(), bytes.size());
  if (st.ok()) st = SyncFd(fd, policy);
  ::close(fd);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return Status::IOError("rename " + path + ": " + std::strerror(err));
  }
  return Status::OK();
}
// lint:durable-io-end

}  // namespace

DurabilityOptions::DurabilityOptions() {
  if (const char* env = std::getenv("RFID_DURABILITY_DIR")) {
    dir = env;
  }
  if (const char* env = std::getenv("RFID_DURABILITY_FSYNC")) {
    const std::string v = env;
    if (v == "off" || v == "none" || v == "0") fsync = FsyncPolicy::kOff;
  }
}

SiteDurability::SiteDurability(const DurabilityOptions& options, SiteId site)
    : options_(options), site_(site) {
  site_dir_ = options_.dir + "/site_" + std::to_string(site);
}

SiteDurability::~SiteDurability() {
  if (wal_fd_ >= 0) ::close(wal_fd_);
}

Status SiteDurability::Open() {
  if (opened_) return Status::OK();
  std::error_code ec;
  fs::create_directories(site_dir_, ec);
  if (ec) {
    return Status::IOError("mkdir " + site_dir_ + ": " + ec.message());
  }

  // One listing finds the newest WAL segment, which a restarted
  // incarnation continues (segment 0 when there is none), and whether a
  // previous run left state here: a checkpoint or a non-empty segment.
  Epoch newest = 0;
  for (const auto& entry : fs::directory_iterator(site_dir_, ec)) {
    const std::string name = entry.path().filename().string();
    Epoch e = 0;
    if (name.rfind(kCheckpointPrefix, 0) == 0) {
      holds_state_ = true;
    } else if (ParseEpoch(name, kWalPrefix, kWalSuffix, &e)) {
      newest = std::max(newest, e);
      holds_state_ = holds_state_ || entry.file_size(ec) != 0;
    }
  }
  RFID_RETURN_NOT_OK(OpenSegment(newest));
  opened_ = true;
  return Status::OK();
}

Status SiteDurability::OpenSegment(Epoch epoch) {
  if (wal_fd_ >= 0) {
    ::close(wal_fd_);
    wal_fd_ = -1;
  }
  const std::string path =
      site_dir_ + "/" + EpochName(kWalPrefix, epoch, kWalSuffix);
  // lint:durable-io-begin(wal-open)
  // Append-mode entry point of the audited WAL path; bytes reach it only
  // via Flush's synced writer.
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  // lint:durable-io-end
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  wal_fd_ = fd;
  return Status::OK();
}

Status SiteDurability::AppendFrame(SiteId from, MessageKind kind,
                                   const std::vector<uint8_t>& payload,
                                   Epoch delivery_epoch) {
  if (replaying_) return Status::OK();
  Frame f;
  f.from = from;
  f.to = site_;
  f.kind = kind;
  f.send_epoch = delivery_epoch;
  f.seq = ++wal_seq_;
  f.payload = payload;
  const size_t before = wal_pending_.size();
  EncodeFrame(f, &wal_pending_);
  ++stats_.wal_appends;
  stats_.wal_bytes += static_cast<int64_t>(wal_pending_.size() - before);
  return Status::OK();
}

Status SiteDurability::Flush() {
  if (wal_pending_.empty()) return Status::OK();
  // lint:durable-io-begin(wal-flush)
  RFID_RETURN_NOT_OK(
      WriteAll(wal_fd_, wal_pending_.data(), wal_pending_.size()));
  wal_pending_.clear();
  RFID_RETURN_NOT_OK(SyncFd(wal_fd_, options_.fsync));
  ++stats_.wal_fsyncs;
  // lint:durable-io-end
  return Status::OK();
}

void SiteDurability::DropPending() { wal_pending_.clear(); }

Status SiteDurability::WriteCheckpoint(Epoch epoch,
                                       const std::vector<uint8_t>& payload) {
  RFID_RETURN_NOT_OK(Flush());

  Frame f;
  f.from = site_;
  f.to = site_;
  f.kind = MessageKind::kCheckpoint;
  f.send_epoch = epoch;
  f.payload = payload;
  std::vector<uint8_t> bytes;
  EncodeFrame(f, &bytes);

  const std::string path =
      site_dir_ + "/" + EpochName(kCheckpointPrefix, epoch, kCheckpointSuffix);
  RFID_RETURN_NOT_OK(WriteFileAtomic(path, bytes, options_.fsync));
  ++stats_.checkpoints;
  stats_.checkpoint_bytes += static_cast<int64_t>(bytes.size());

  // Rotate the WAL: records logged from here on belong to this cut.
  RFID_RETURN_NOT_OK(OpenSegment(epoch));

  // Prune: keep the newest kCheckpointsRetained checkpoints, and every
  // WAL segment the oldest survivor still needs for its replay tail.
  std::vector<Epoch> ckpts =
      ListEpochs(site_dir_, kCheckpointPrefix, kCheckpointSuffix);
  const Epoch oldest_kept =
      ckpts.size() > static_cast<size_t>(kCheckpointsRetained)
          ? ckpts[ckpts.size() - kCheckpointsRetained]
          : (ckpts.empty() ? 0 : ckpts.front());
  for (Epoch e : ckpts) {
    if (e < oldest_kept) {
      const std::string stale =
          site_dir_ + "/" + EpochName(kCheckpointPrefix, e, kCheckpointSuffix);
      ::unlink(stale.c_str());
    }
  }
  const std::vector<Epoch> segments =
      ListEpochs(site_dir_, kWalPrefix, kWalSuffix);
  // Segment s covers records in (s, next cut]; the oldest kept checkpoint
  // replays from the newest segment at or before its cut.
  Epoch needed_from = 0;
  for (Epoch s : segments) {
    if (s <= oldest_kept) needed_from = s;
  }
  for (Epoch s : segments) {
    if (s < needed_from) {
      const std::string stale =
          site_dir_ + "/" + EpochName(kWalPrefix, s, kWalSuffix);
      ::unlink(stale.c_str());
    }
  }
  return Status::OK();
}

Status SiteDurability::LoadCheckpoint(Epoch* epoch,
                                      std::vector<uint8_t>* out) {
  *epoch = 0;
  out->clear();
  std::vector<Epoch> ckpts =
      ListEpochs(site_dir_, kCheckpointPrefix, kCheckpointSuffix);
  for (auto it = ckpts.rbegin(); it != ckpts.rend(); ++it) {
    const std::string path =
        site_dir_ + "/" + EpochName(kCheckpointPrefix, *it, kCheckpointSuffix);
    std::vector<uint8_t> bytes;
    Status st = ReadFileBytes(path, &bytes);
    Frame f;
    size_t consumed = 0;
    if (st.ok()) st = DecodeFrame(bytes.data(), bytes.size(), &f, &consumed);
    if (st.ok() && (f.kind != MessageKind::kCheckpoint ||
                    f.send_epoch != *it || consumed != bytes.size())) {
      st = Status::Corruption("checkpoint frame does not match its name");
    }
    if (!st.ok()) {
      // Newest-valid-wins: a corrupt checkpoint falls back one cut. The
      // WAL retains segments back to the fallback's cut, so recovery
      // stays exact -- just with a longer replay tail.
      ++stats_.checkpoint_fallbacks;
      continue;
    }
    *epoch = f.send_epoch;
    *out = std::move(f.payload);
    return Status::OK();
  }
  return Status::OK();
}

Status SiteDurability::ReadWalSince(Epoch since,
                                    std::vector<Frame>* frames) {
  frames->clear();
  const std::vector<Epoch> segments =
      ListEpochs(site_dir_, kWalPrefix, kWalSuffix);
  // The newest segment cut at or before `since` holds the first records
  // after that checkpoint; all newer segments follow.
  Epoch first = 0;
  for (Epoch s : segments) {
    if (s <= since) first = s;
  }
  for (size_t i = 0; i < segments.size(); ++i) {
    const Epoch seg = segments[i];
    if (seg < first) continue;
    const std::string path =
        site_dir_ + "/" + EpochName(kWalPrefix, seg, kWalSuffix);
    std::vector<uint8_t> bytes;
    RFID_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
    size_t off = 0;
    while (off < bytes.size()) {
      Frame f;
      size_t consumed = 0;
      const Status st =
          DecodeFrame(bytes.data() + off, bytes.size() - off, &f, &consumed);
      if (FrameIncomplete(st)) {
        // Torn tail: the record's fsync never completed, so by
        // append-before-apply its frame was never consumed from the
        // fabric. Only legal in the final segment -- anywhere else the
        // log has a hole and replay cannot be trusted.
        if (i + 1 != segments.size()) {
          return Status::Corruption(
              "WAL segment " + path + " truncated mid-stream");
        }
        ++stats_.torn_tail_records;
        stats_.replayed_frames += static_cast<int64_t>(frames->size());
        return Status::OK();
      }
      if (!st.ok()) {
        return Status::Corruption("WAL record corrupt in " + path + ": " +
                                  st.ToString());
      }
      off += consumed;
      frames->push_back(std::move(f));
    }
  }
  stats_.replayed_frames += static_cast<int64_t>(frames->size());
  return Status::OK();
}

}  // namespace rfid
