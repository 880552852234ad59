//===- persist/Wal.cpp - Edit-script write-ahead log -----------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/Wal.h"

#include "persist/Crc32c.h"
#include "persist/Varint.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

using namespace truediff;
using namespace truediff::persist;

namespace {

constexpr char SegmentHeader[8] = {'T', 'D', 'W', 'A', 'L', '1', '\n', 0};
constexpr uint32_t RecordMagic = 0x54445752u; // "TDWR" read little-endian

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>(V >> (8 * I)));
}

uint32_t getU32(const char *P) {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(static_cast<uint8_t>(P[I])) << (8 * I);
  return V;
}

[[noreturn]] void throwErrno(const std::string &What) {
  throw std::runtime_error(What + ": " + std::strerror(errno));
}

void writeAll(IoEnv &Env, int Fd, const char *Data, size_t Size,
              const std::string &What) {
  while (Size != 0) {
    ssize_t N = Env.writeSome(Fd, Data, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      throwErrno(What);
    }
    Data += N;
    Size -= static_cast<size_t>(N);
  }
}

/// Fsync of the directory itself, so a freshly created file's directory
/// entry survives a power failure.
void syncDir(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return; // best effort: some filesystems refuse directory fds
  ::fsync(Fd);
  ::close(Fd);
}

std::string segmentPath(const std::string &Dir, uint64_t Index) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "wal-%08llu.log",
                static_cast<unsigned long long>(Index));
  return Dir + "/" + Buf;
}

std::string encodeRecordPayload(const WalRecord &Rec) {
  std::string Payload;
  Payload.push_back(static_cast<char>(Rec.Kind));
  putVarint(Payload, Rec.Doc);
  putVarint(Payload, Rec.Seq);
  putVarint(Payload, Rec.Version);
  putVarint(Payload, Rec.Script.size());
  Payload += Rec.Script;
  putVarint(Payload, Rec.Author.size());
  Payload += Rec.Author;
  return Payload;
}

bool decodeRecordPayload(std::string_view Payload, WalRecord &Out) {
  size_t Pos = 0;
  if (Payload.empty())
    return false;
  uint8_t Kind = static_cast<uint8_t>(Payload[Pos++]);
  if (Kind > static_cast<uint8_t>(WalKind::Erase))
    return false;
  Out.Kind = static_cast<WalKind>(Kind);
  auto Doc = getVarint(Payload, Pos);
  auto Seq = getVarint(Payload, Pos);
  auto Version = getVarint(Payload, Pos);
  auto ScriptLen = getVarint(Payload, Pos);
  if (!Doc || !Seq || !Version || !ScriptLen)
    return false;
  if (*ScriptLen > Payload.size() - Pos)
    return false;
  Out.Doc = *Doc;
  Out.Seq = *Seq;
  Out.Version = *Version;
  Out.Script = std::string(Payload.substr(Pos, *ScriptLen));
  Pos += *ScriptLen;
  // Optional trailing author (pre-blame records omit it).
  Out.Author.clear();
  if (Pos != Payload.size()) {
    auto AuthorLen = getVarint(Payload, Pos);
    if (!AuthorLen || *AuthorLen != Payload.size() - Pos)
      return false;
    Out.Author = std::string(Payload.substr(Pos));
  }
  return true;
}

} // namespace

WalWriter::WalWriter(std::string Dir, Config C, IoEnv *E)
    : Dir(std::move(Dir)), Cfg(C), Env(E != nullptr ? *E : realIoEnv()) {
  if (Env.makeDir(this->Dir.c_str(), 0777) != 0 && errno != EEXIST)
    throwErrno("mkdir " + this->Dir);
  uint64_t Next = 1;
  for (const auto &[Index, Path] : listWalSegments(this->Dir))
    Next = std::max(Next, Index + 1);
  openSegment(Next);
}

WalWriter::~WalWriter() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Fd >= 0) {
    if (PendingRecords != 0) {
      try {
        syncLocked();
      } catch (const std::exception &) {
        // Destructor must not throw; the unsynced tail was never
        // acknowledged as durable, so losing it keeps the contract.
      }
    }
    Env.closeFd(Fd);
    Fd = -1;
  }
}

void WalWriter::openSegment(uint64_t Index) {
  std::string Path = segmentPath(Dir, Index);
  int NewFd = Env.openFile(Path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (NewFd < 0)
    throwErrno("create WAL segment " + Path);
  try {
    writeAll(Env, NewFd, SegmentHeader, sizeof(SegmentHeader),
             "write " + Path);
    if (Env.syncFd(NewFd) != 0)
      throwErrno("fsync " + Path);
  } catch (...) {
    Env.closeFd(NewFd);
    Env.unlinkFile(Path.c_str());
    throw;
  }
  syncDir(Dir);
  if (Fd >= 0) {
    // Best-effort sync of the outgoing segment: complete frames in it
    // stay recoverable even if the writer is abandoning a torn tail.
    if (PendingRecords != 0 && Env.syncFd(Fd) == 0) {
      PendingRecords = 0;
      ++Counters.Fsyncs;
    }
    Env.closeFd(Fd);
  }
  Fd = NewFd;
  SegmentIndex = Index;
  SegmentSize = sizeof(SegmentHeader);
}

void WalWriter::syncLocked() {
  if (Env.syncFd(Fd) != 0)
    throwErrno("fsync WAL segment");
  PendingRecords = 0;
  ++Counters.Fsyncs;
}

bool WalWriter::append(const WalRecord &Rec) {
  std::string Payload = encodeRecordPayload(Rec);
  std::string Frame;
  Frame.reserve(12 + Payload.size());
  putU32(Frame, RecordMagic);
  putU32(Frame, static_cast<uint32_t>(Payload.size()));
  putU32(Frame, crc32c(Payload));
  Frame += Payload;

  std::lock_guard<std::mutex> Lock(Mu);
  if (Fd < 0)
    throw std::runtime_error("WAL writer is closed");
  if (Poisoned)
    throw std::runtime_error(
        "WAL segment poisoned by an earlier write failure; reopen required");
  try {
    // Rotate before the write so a record never spans segments.
    if (SegmentSize + Frame.size() > Cfg.SegmentBytes &&
        SegmentSize > sizeof(SegmentHeader)) {
      if (PendingRecords != 0)
        syncLocked();
      openSegment(SegmentIndex + 1);
      ++Counters.Rotations;
    }
    writeAll(Env, Fd, Frame.data(), Frame.size(), "append WAL record");
    SegmentSize += Frame.size();
    ++Counters.Records;
    Counters.Bytes += Frame.size();
    if (++PendingRecords >= std::max<size_t>(1, Cfg.FsyncEvery)) {
      syncLocked();
      return true;
    }
    return false;
  } catch (...) {
    // The segment tail may now hold a torn frame (or, after an fsync
    // failure, pages in unknown state); anything appended behind it
    // would be discarded by the reader. Fail fast until reopenFresh().
    Poisoned = true;
    throw;
  }
}

void WalWriter::flush() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Fd >= 0 && PendingRecords != 0)
    syncLocked();
}

void WalWriter::reopenFresh() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Fd < 0)
    throw std::runtime_error("WAL writer is closed");
  openSegment(SegmentIndex + 1);
  ++Counters.Reopens;
  Poisoned = false;
}

bool WalWriter::poisoned() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Poisoned;
}

WalWriter::Stats WalWriter::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counters;
}

uint64_t WalWriter::currentSegment() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return SegmentIndex;
}

std::vector<std::pair<uint64_t, std::string>> persist::listWalSegments(
    const std::string &Dir) {
  std::vector<std::pair<uint64_t, std::string>> Out;
  DIR *D = ::opendir(Dir.c_str());
  if (D == nullptr)
    return Out;
  while (struct dirent *Ent = ::readdir(D)) {
    // Exactly wal-<digits>.log, nothing trailing.
    std::string_view Name(Ent->d_name);
    if (Name.size() <= 8 || Name.substr(0, 4) != "wal-" ||
        Name.substr(Name.size() - 4) != ".log")
      continue;
    std::string_view Digits = Name.substr(4, Name.size() - 8);
    uint64_t Index = 0;
    bool Numeric = !Digits.empty();
    for (char C : Digits) {
      if (C < '0' || C > '9') {
        Numeric = false;
        break;
      }
      Index = Index * 10 + static_cast<uint64_t>(C - '0');
    }
    if (Numeric)
      Out.emplace_back(Index, Dir + "/" + Ent->d_name);
  }
  ::closedir(D);
  std::sort(Out.begin(), Out.end());
  return Out;
}

WalSegment persist::readWalSegment(uint64_t Index, const std::string &Path,
                                   IoEnv *Env) {
  WalSegment Seg;
  Seg.Index = Index;
  Seg.Path = Path;

  std::string Bytes;
  IoEnv &E = Env != nullptr ? *Env : realIoEnv();
  if (E.readFile(Path.c_str(), Bytes) != 0)
    return Seg;

  if (Bytes.size() < sizeof(SegmentHeader) ||
      std::memcmp(Bytes.data(), SegmentHeader, sizeof(SegmentHeader)) != 0) {
    Seg.TornBytes = Bytes.size();
    return Seg;
  }
  Seg.HeaderOk = true;

  size_t Pos = sizeof(SegmentHeader);
  while (Pos != Bytes.size()) {
    if (Bytes.size() - Pos < 12)
      break; // torn frame header
    if (getU32(Bytes.data() + Pos) != RecordMagic)
      break; // tail garbage
    uint32_t Len = getU32(Bytes.data() + Pos + 4);
    uint32_t Crc = getU32(Bytes.data() + Pos + 8);
    if (Bytes.size() - Pos - 12 < Len)
      break; // torn payload
    std::string_view Payload(Bytes.data() + Pos + 12, Len);
    if (crc32c(Payload) != Crc)
      break; // corrupt payload
    WalRecord Rec;
    if (!decodeRecordPayload(Payload, Rec))
      break; // CRC-valid but structurally bogus: treat like corruption
    Seg.Records.push_back(std::move(Rec));
    Pos += 12 + Len;
  }
  Seg.TornBytes = Bytes.size() - Pos;
  return Seg;
}
