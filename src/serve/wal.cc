#include "src/serve/wal.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/util/failpoint.h"
#include "src/util/file_sync.h"
#include "src/util/serialize.h"

// The writer needs fd-level fsync control, so this file is POSIX-only
// (matching src/util/file_sync.cc, which degrades to no-ops elsewhere).
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace pitex {

namespace {

constexpr char kSegmentMagic[9] = "PITEXWAL";  // 8 bytes on disk
constexpr uint32_t kFormatVersion = 1;
constexpr uint32_t kFrameMagic = 0x52575850u;  // "PXWR" little-endian
constexpr size_t kSegmentHeaderBytes = 8 + 4 + 8;
// A record is one ApplyUpdates batch; anything near this bound is a
// corrupt length field, not a real batch.
constexpr uint32_t kMaxRecordBytes = 256u << 20;

void AppendLe(std::string* out, uint64_t value, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    out->push_back(static_cast<char>(value >> (8 * i)));
  }
}

uint64_t DecodeLe(const unsigned char* buf, size_t width) {
  uint64_t value = 0;
  for (size_t i = 0; i < width; ++i) {
    value |= static_cast<uint64_t>(buf[i]) << (8 * i);
  }
  return value;
}

// write(2) the whole buffer, resuming partial writes and EINTR.
bool WriteFully(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    written += static_cast<size_t>(n);
  }
  return true;
}

struct SegmentFile {
  uint64_t start_lsn = 0;
  std::string path;
};

// Segments in `dir`, sorted by the start LSN encoded in the filename
// (the header restates it; ReadWalAfter cross-checks the two). A
// failing listing must not read as an empty log — an I/O error during
// recovery would silently discard acknowledged history — so iteration
// errors are surfaced through `io_error` (callers that only delete,
// like TruncateThrough, may pass nullptr and skip the pass instead).
std::vector<SegmentFile> ListSegments(const std::string& dir,
                                      std::error_code* io_error) {
  std::vector<SegmentFile> segments;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  for (; !ec && it != std::filesystem::directory_iterator();
       it.increment(ec)) {
    const auto& entry = *it;
    const std::string name = entry.path().filename().string();
    if (name.size() != 4 + 16 + 4 || name.rfind("wal-", 0) != 0 ||
        name.compare(name.size() - 4, 4, ".log") != 0) {
      continue;
    }
    uint64_t lsn = 0;
    bool valid = true;
    for (size_t i = 4; i < 4 + 16; ++i) {
      const char c = name[i];
      uint64_t digit;
      if (c >= '0' && c <= '9') digit = static_cast<uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') digit = static_cast<uint64_t>(c - 'a') + 10;
      else { valid = false; break; }
      lsn = (lsn << 4) | digit;
    }
    if (!valid) continue;
    segments.push_back(SegmentFile{lsn, entry.path().string()});
  }
  if (ec && io_error != nullptr) *io_error = ec;
  std::sort(segments.begin(), segments.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.start_lsn < b.start_lsn;
            });
  return segments;
}

WalReadResult MakeResult(WalReadStatus status, std::string message) {
  WalReadResult result;
  result.status = status;
  result.message = std::move(message);
  return result;
}

}  // namespace

void WriteUpdateBatch(BinaryWriter* writer, uint64_t lsn,
                      std::span<const EdgeInfluenceUpdate> updates) {
  writer->WriteU64(lsn);
  writer->WriteU64(updates.size());
  for (const EdgeInfluenceUpdate& update : updates) {
    writer->WriteU32(update.edge);
    writer->WriteU64(update.entries.size());
    for (const EdgeTopicEntry& entry : update.entries) {
      writer->WriteU32(entry.topic);
      writer->WriteF64(entry.prob);
    }
  }
}

bool ReadUpdateBatch(BinaryReader* reader, size_t encoded_bytes,
                     uint64_t* lsn, std::vector<EdgeInfluenceUpdate>* updates) {
  constexpr size_t kMinUpdateBytes = 12;
  const uint64_t max_items = encoded_bytes / kMinUpdateBytes;
  uint64_t count = 0;
  if (!reader->ReadU64(lsn) || !reader->ReadU64(&count) || count > max_items) {
    return false;
  }
  updates->clear();
  updates->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    EdgeInfluenceUpdate& update = updates->emplace_back();
    uint64_t entries = 0;
    if (!reader->ReadU32(&update.edge) || !reader->ReadU64(&entries) ||
        entries > max_items) {
      return false;
    }
    update.entries.reserve(entries);
    for (uint64_t j = 0; j < entries; ++j) {
      EdgeTopicEntry entry;
      if (!reader->ReadU32(&entry.topic) || !reader->ReadF64(&entry.prob)) {
        return false;
      }
      update.entries.push_back(entry);
    }
  }
  return true;
}

std::string WalSegmentName(uint64_t start_lsn) {
  char buf[4 + 16 + 4 + 1];
  std::snprintf(buf, sizeof(buf), "wal-%016llx.log",
                static_cast<unsigned long long>(start_lsn));
  return std::string(buf);
}

std::unique_ptr<WriteAheadLog> WriteAheadLog::Open(const std::string& dir,
                                                   uint64_t next_lsn,
                                                   const WalOptions& options,
                                                   std::string* error) {
  if (next_lsn == 0) next_lsn = 1;  // LSNs are dense from 1
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create WAL directory: " + ec.message();
    }
    return nullptr;
  }
  auto wal = std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(dir, next_lsn, options));
  std::string open_error;
  if (!wal->OpenSegment(next_lsn, &open_error)) {
    if (error != nullptr) *error = open_error;
    return nullptr;
  }
  return wal;
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) {
    if (options_.fsync == WalFsyncPolicy::kAlways && ::fsync(fd_) == 0) {
      ++fsyncs_;
    }
    // pitex-check: allow(io-checked): best-effort close on teardown
    ::close(fd_);
  }
}

bool WriteAheadLog::OpenSegment(uint64_t start_lsn, std::string* error) {
  segment_path_ = dir_ + "/" + WalSegmentName(start_lsn);
  // O_TRUNC is safe: a pre-existing segment named start_lsn can only
  // hold a torn (never-acknowledged) tail — recovery computed start_lsn
  // as one past the last *committed* record.
  fd_ = ::open(segment_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    if (error != nullptr) {
      *error = "cannot open WAL segment " + segment_path_ + ": " +
               std::strerror(errno);
    }
    return false;
  }
  std::string header;
  header.append(kSegmentMagic, 8);
  AppendLe(&header, kFormatVersion, 4);
  AppendLe(&header, start_lsn, 8);
  bool ok = WriteFully(fd_, header.data(), header.size());
  if (ok && options_.fsync == WalFsyncPolicy::kAlways) {
    ok = ::fsync(fd_) == 0;
    if (ok) {
      ++fsyncs_;
      // The segment's existence must survive a crash too.
      ok = SyncParentDir(segment_path_);
    }
  }
  if (!ok) {
    if (error != nullptr) {
      *error = "cannot initialize WAL segment " + segment_path_;
    }
    // pitex-check: allow(io-checked): error path, fd abandoned anyway
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  segment_start_lsn_ = start_lsn;
  offset_ = header.size();
  committed_offset_ = offset_;
  return true;
}

void WriteAheadLog::RollBackTo(uint64_t offset) {
  // If the truncate (or the seek back to the new end) fails, the file
  // still holds the rolled-back bytes while the writer's accounting
  // says they are gone: the next append would land after the stale
  // frames, and the reader would see either never-acknowledged records
  // replayed or a duplicate-LSN sequence it rightly refuses as corrupt.
  // Poison the writer instead — every later Append/Sync fails, the
  // committed prefix on disk stays exactly as acknowledged, and the
  // service degrades to rejecting updates rather than corrupting its
  // own log.
  if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(offset), SEEK_SET) < 0) {
    // pitex-check: allow(io-checked): poisoning; the fd is abandoned
    ::close(fd_);
    fd_ = -1;
    return;  // offset_ is stale but unreachable: fd_ < 0 gates all writes
  }
  offset_ = offset;
}

bool WriteAheadLog::RotateIfNeeded() {
  if (offset_ < options_.segment_bytes) return true;
  // Rotate only at a commit boundary so rollback never has to cross a
  // segment; mid-group-commit appends stay in the active segment.
  if (offset_ != committed_offset_) return true;
  if (options_.fsync == WalFsyncPolicy::kAlways) {
    if (::fsync(fd_) != 0) return false;
    ++fsyncs_;
  }
  if (::close(fd_) != 0) {
    fd_ = -1;
    return false;
  }
  fd_ = -1;
  std::string error;
  return OpenSegment(next_lsn_, &error);
}

uint64_t WriteAheadLog::Append(std::span<const EdgeInfluenceUpdate> updates) {
  if (fd_ < 0) return 0;
  if (PITEX_FAILPOINT("wal/append")) return 0;
  if (!RotateIfNeeded()) return 0;

  const uint64_t lsn = next_lsn_;
  std::ostringstream blob_stream;
  BinaryWriter writer(&blob_stream);
  WriteUpdateBatch(&writer, lsn, updates);
  writer.WriteChecksum();
  if (!writer.ok()) return 0;
  const std::string blob = blob_stream.str();
  if (blob.size() > kMaxRecordBytes) return 0;

  std::string frame;
  frame.reserve(8 + blob.size());
  AppendLe(&frame, kFrameMagic, 4);
  AppendLe(&frame, blob.size(), 4);
  frame += blob;
  if (!WriteFully(fd_, frame.data(), frame.size())) {
    RollBackTo(offset_);
    return 0;
  }
  offset_ += frame.size();
  ++next_lsn_;
  ++appends_;
  return lsn;
}

bool WriteAheadLog::Sync() {
  if (fd_ < 0) return false;
  bool failed = PITEX_FAILPOINT("wal/fsync");
  if (!failed && options_.fsync == WalFsyncPolicy::kAlways &&
      offset_ != committed_offset_) {
    failed = ::fsync(fd_) != 0;
    if (!failed) ++fsyncs_;
  }
  if (failed) {
    // Roll the whole uncommitted group back out of the file and rewind
    // the LSN cursor: the log must never hold records whose append the
    // caller was told failed (they were never applied to the master).
    RollBackTo(committed_offset_);
    next_lsn_ = committed_lsn_;
    return false;
  }
  committed_offset_ = offset_;
  committed_lsn_ = next_lsn_;
  return true;
}

uint64_t WalRetentionHolds::Register(uint64_t first_needed_lsn) {
  MutexLock lock(mutex_);
  const uint64_t id = next_id_++;
  holds_.emplace_back(id, first_needed_lsn);
  return id;
}

void WalRetentionHolds::Update(uint64_t id, uint64_t first_needed_lsn) {
  MutexLock lock(mutex_);
  for (auto& hold : holds_) {
    if (hold.first == id) {
      hold.second = first_needed_lsn;
      return;
    }
  }
}

void WalRetentionHolds::Release(uint64_t id) {
  MutexLock lock(mutex_);
  for (size_t i = 0; i < holds_.size(); ++i) {
    if (holds_[i].first == id) {
      holds_[i] = holds_.back();
      holds_.pop_back();
      return;
    }
  }
}

uint64_t WalRetentionHolds::Floor() const {
  MutexLock lock(mutex_);
  uint64_t floor = UINT64_MAX;
  for (const auto& hold : holds_) {
    floor = std::min(floor, hold.second);
  }
  return floor;
}

void WriteAheadLog::TruncateThrough(uint64_t lsn) {
  // A registered hold names the first LSN its consumer still needs;
  // nothing at or above the minimum across holds may be deleted, even
  // when the checkpoint has advanced past it (the shipping/truncation
  // race of docs/robustness.md, "Replication & failover").
  const uint64_t floor = retention_.Floor();
  if (floor != UINT64_MAX) {
    if (floor == 0) return;  // a hold at 0 retains the whole log
    lsn = std::min(lsn, floor - 1);
  }
  // Deletion is best effort (a skipped pass only delays reclamation),
  // so a listing error is ignored rather than surfaced.
  const std::vector<SegmentFile> segments = ListSegments(dir_, nullptr);
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    // Segment i's records all precede segment i+1's start; the active
    // segment (always last) is never deleted.
    if (segments[i + 1].start_lsn > lsn + 1) break;
    if (segments[i].path == segment_path_) break;
    std::error_code ec;
    std::filesystem::remove(segments[i].path, ec);
  }
}

WalReadResult ReadWalAfter(const std::string& dir, uint64_t after_lsn,
                           std::vector<WalRecord>* records) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) {
    return MakeResult(WalReadStatus::kOk, "");  // absent dir == empty log
  }
  std::error_code list_error;
  const std::vector<SegmentFile> segments = ListSegments(dir, &list_error);
  if (list_error) {
    // A failed listing is indistinguishable from "some segments
    // invisible" — reporting kOk with whatever subset survived would
    // present an I/O error as a shorter history.
    return MakeResult(WalReadStatus::kIoError,
                      "cannot list WAL directory " + dir + ": " +
                          list_error.message());
  }
  uint64_t expected = 0;  // next LSN demanded by continuity; 0 = unanchored
  for (size_t s = 0; s < segments.size(); ++s) {
    const bool last_segment = s + 1 == segments.size();
    std::ifstream in(segments[s].path, std::ios::binary);
    if (!in) {
      return MakeResult(WalReadStatus::kIoError,
                        "cannot open WAL segment " + segments[s].path);
    }
    unsigned char header[kSegmentHeaderBytes];
    in.read(reinterpret_cast<char*>(header), sizeof(header));
    if (static_cast<size_t>(in.gcount()) != sizeof(header)) {
      if (last_segment) {
        // Crash during rotation: the fresh segment's header never made
        // it out. Nothing was committed past the previous segment.
        return MakeResult(WalReadStatus::kTornTail,
                          "torn segment header at end of log");
      }
      return MakeResult(WalReadStatus::kCorrupt,
                        "short segment header mid-log: " + segments[s].path);
    }
    if (std::memcmp(header, kSegmentMagic, 8) != 0 ||
        DecodeLe(header + 8, 4) != kFormatVersion ||
        DecodeLe(header + 12, 8) != segments[s].start_lsn) {
      return MakeResult(WalReadStatus::kCorrupt,
                        "bad segment header: " + segments[s].path);
    }
    if (expected != 0 && segments[s].start_lsn != expected) {
      return MakeResult(WalReadStatus::kCorrupt,
                        "LSN gap between segments: " + segments[s].path);
    }
    if (expected == 0) {
      // The oldest surviving segment must reach back to the reader's
      // resume point: records (after_lsn, start_lsn) missing means the
      // log was truncated past its checkpoint.
      if (segments[s].start_lsn > after_lsn + 1) {
        return MakeResult(WalReadStatus::kCorrupt,
                          "log starts past the checkpoint LSN");
      }
      expected = segments[s].start_lsn;
    }

    // A torn record at the *physical end* of an older segment is legal
    // in exactly one shape: the writer crashed mid-append, restarted,
    // and recovery reopened a fresh segment at the first uncommitted
    // LSN — which is precisely the LSN the torn record would have
    // carried. The successor segment anchoring there proves the damage
    // was superseded, never acknowledged; anything else is corruption.
    const auto superseded_torn_tail = [&]() {
      return !last_segment && segments[s + 1].start_lsn == expected;
    };
    for (;;) {
      unsigned char frame[8];
      in.read(reinterpret_cast<char*>(frame), sizeof(frame));
      const auto frame_got = static_cast<size_t>(in.gcount());
      if (frame_got == 0) break;  // clean end of segment
      if (frame_got < sizeof(frame)) {
        if (last_segment) {
          return MakeResult(WalReadStatus::kTornTail,
                            "torn record frame at end of log");
        }
        if (superseded_torn_tail()) break;
        return MakeResult(WalReadStatus::kCorrupt,
                          "short record frame mid-log");
      }
      if (DecodeLe(frame, 4) != kFrameMagic) {
        return MakeResult(WalReadStatus::kCorrupt, "bad record frame magic");
      }
      const auto blob_len = static_cast<uint32_t>(DecodeLe(frame + 4, 4));
      if (blob_len > kMaxRecordBytes) {
        return MakeResult(WalReadStatus::kCorrupt,
                          "implausible record length");
      }
      std::string blob(blob_len, '\0');
      in.read(blob.data(), static_cast<std::streamsize>(blob_len));
      if (static_cast<size_t>(in.gcount()) != blob_len) {
        if (last_segment) {
          return MakeResult(WalReadStatus::kTornTail,
                            "torn record payload at end of log");
        }
        if (superseded_torn_tail()) break;
        return MakeResult(WalReadStatus::kCorrupt,
                          "short record payload mid-log");
      }
      const bool at_eof = in.peek() == std::char_traits<char>::eof();

      std::istringstream blob_stream(blob);
      BinaryReader reader(&blob_stream);
      WalRecord record;
      const bool parsed =
          ReadUpdateBatch(&reader, blob_len, &record.lsn, &record.updates) &&
          reader.VerifyChecksum();
      if (!parsed) {
        if (last_segment && at_eof) {
          // Full-length but checksum-failing final record: block-level
          // write reordering can persist a record's tail before its
          // head. Still the crash artifact, not bit rot.
          return MakeResult(WalReadStatus::kTornTail,
                            "unverifiable record at end of log");
        }
        if (at_eof && superseded_torn_tail()) break;
        return MakeResult(WalReadStatus::kCorrupt,
                          "record checksum/framing failure mid-log");
      }
      if (record.lsn != expected) {
        return MakeResult(WalReadStatus::kCorrupt,
                          "record LSN out of sequence");
      }
      ++expected;
      if (record.lsn > after_lsn) records->push_back(std::move(record));
    }
  }
  return MakeResult(WalReadStatus::kOk, "");
}

}  // namespace pitex
