//===- persist/Snapshot.cpp - Per-document snapshot files ------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/Snapshot.h"

#include "persist/Crc32c.h"
#include "persist/Varint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace truediff;
using namespace truediff::persist;

namespace {

constexpr char FileMagic[8] = {'T', 'D', 'S', 'N', 'A', 'P', '1', '\n'};

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

std::string snapshotPath(const std::string &Dir, uint64_t Doc,
                         uint64_t Seq) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "snap-%llu-%llu.snap",
                static_cast<unsigned long long>(Doc),
                static_cast<unsigned long long>(Seq));
  return Dir + "/" + Buf;
}

void syncDir(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return;
  ::fsync(Fd);
  ::close(Fd);
}

} // namespace

std::string persist::writeSnapshotFile(const std::string &Dir,
                                       const SnapshotData &Snap, IoEnv *E) {
  IoEnv &Env = E != nullptr ? *E : realIoEnv();
  std::string Payload;
  putVarint(Payload, Snap.Doc);
  putVarint(Payload, Snap.Seq);
  putVarint(Payload, Snap.Version);
  putVarint(Payload, Snap.Tombstone ? 1 : 0);
  putVarint(Payload, Snap.TreeBlob.size());
  Payload += Snap.TreeBlob;
  putVarint(Payload, Snap.History.size());
  for (const auto &[Version, Blob] : Snap.History) {
    putVarint(Payload, Version);
    putVarint(Payload, Blob.size());
    Payload += Blob;
  }
  putVarint(Payload, Snap.ProvBlob.size());
  Payload += Snap.ProvBlob;
  putVarint(Payload, Snap.OpenAuthor.size());
  Payload += Snap.OpenAuthor;
  for (size_t I = 0; I != Snap.History.size(); ++I) {
    std::string_view Author =
        I < Snap.HistoryAuthors.size() ? Snap.HistoryAuthors[I] : "";
    putVarint(Payload, Author.size());
    Payload += Author;
  }
  putVarint(Payload, Snap.NextUri);

  std::string File(FileMagic, sizeof(FileMagic));
  putU32(File, static_cast<uint32_t>(Payload.size()));
  putU32(File, crc32c(Payload));
  File += Payload;

  std::string Final = snapshotPath(Dir, Snap.Doc, Snap.Seq);
  std::string Temp = Final + ".tmp";
  int Fd = Env.openFile(Temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    throwErrno("create " + Temp);
  const char *Data = File.data();
  size_t Size = File.size();
  while (Size != 0) {
    ssize_t N = Env.writeSome(Fd, Data, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      int Err = errno;
      Env.closeFd(Fd);
      Env.unlinkFile(Temp.c_str());
      errno = Err;
      throwErrno("write " + Temp);
    }
    Data += N;
    Size -= static_cast<size_t>(N);
  }
  if (Env.syncFd(Fd) != 0) {
    int Err = errno;
    Env.closeFd(Fd);
    Env.unlinkFile(Temp.c_str());
    errno = Err;
    throwErrno("fsync " + Temp);
  }
  Env.closeFd(Fd);
  if (Env.renameFile(Temp.c_str(), Final.c_str()) != 0) {
    int Err = errno;
    Env.unlinkFile(Temp.c_str());
    errno = Err;
    throwErrno("rename " + Temp);
  }
  syncDir(Dir);
  return Final;
}

ReadSnapshotResult persist::readSnapshotFile(const std::string &Path,
                                             IoEnv *Env) {
  ReadSnapshotResult Result;
  std::string Bytes;
  IoEnv &E = Env != nullptr ? *Env : realIoEnv();
  if (E.readFile(Path.c_str(), Bytes) != 0) {
    Result.Error = "cannot open " + Path;
    return Result;
  }

  if (Bytes.size() < sizeof(FileMagic) + 8 ||
      std::memcmp(Bytes.data(), FileMagic, sizeof(FileMagic)) != 0) {
    Result.Error = "bad snapshot header";
    return Result;
  }
  uint32_t Len = getU32(Bytes.data() + sizeof(FileMagic));
  uint32_t Crc = getU32(Bytes.data() + sizeof(FileMagic) + 4);
  if (Bytes.size() - sizeof(FileMagic) - 8 != Len) {
    Result.Error = "snapshot length mismatch";
    return Result;
  }
  std::string_view Payload(Bytes.data() + sizeof(FileMagic) + 8, Len);
  if (crc32c(Payload) != Crc) {
    Result.Error = "snapshot CRC mismatch";
    return Result;
  }

  size_t Pos = 0;
  auto Doc = getVarint(Payload, Pos);
  auto Seq = getVarint(Payload, Pos);
  auto Version = getVarint(Payload, Pos);
  auto Flags = getVarint(Payload, Pos);
  auto TreeLen = getVarint(Payload, Pos);
  if (!Doc || !Seq || !Version || !Flags || *Flags > 1 || !TreeLen ||
      *TreeLen > Payload.size() - Pos) {
    Result.Error = "truncated snapshot payload";
    return Result;
  }
  Result.Snap.Doc = *Doc;
  Result.Snap.Seq = *Seq;
  Result.Snap.Version = *Version;
  Result.Snap.Tombstone = *Flags == 1;
  Result.Snap.TreeBlob = std::string(Payload.substr(Pos, *TreeLen));
  Pos += *TreeLen;

  auto Count = getVarint(Payload, Pos);
  if (!Count || *Count > (1u << 20)) {
    Result.Error = "bad snapshot history count";
    return Result;
  }
  for (uint64_t I = 0; I != *Count; ++I) {
    auto V = getVarint(Payload, Pos);
    auto BlobLen = getVarint(Payload, Pos);
    if (!V || !BlobLen || *BlobLen > Payload.size() - Pos) {
      Result.Error = "truncated snapshot history";
      return Result;
    }
    Result.Snap.History.emplace_back(
        *V, std::string(Payload.substr(Pos, *BlobLen)));
    Pos += *BlobLen;
  }
  // Optional blame extension (pre-blame snapshots end here).
  if (Pos != Payload.size()) {
    auto ProvLen = getVarint(Payload, Pos);
    if (!ProvLen || *ProvLen > Payload.size() - Pos) {
      Result.Error = "truncated snapshot provenance";
      return Result;
    }
    Result.Snap.ProvBlob = std::string(Payload.substr(Pos, *ProvLen));
    Pos += *ProvLen;
    auto OpenLen = getVarint(Payload, Pos);
    if (!OpenLen || *OpenLen > Payload.size() - Pos) {
      Result.Error = "truncated snapshot open author";
      return Result;
    }
    Result.Snap.OpenAuthor = std::string(Payload.substr(Pos, *OpenLen));
    Pos += *OpenLen;
    for (uint64_t I = 0; I != *Count; ++I) {
      auto AuthorLen = getVarint(Payload, Pos);
      if (!AuthorLen || *AuthorLen > Payload.size() - Pos) {
        Result.Error = "truncated snapshot history authors";
        return Result;
      }
      Result.Snap.HistoryAuthors.emplace_back(
          Payload.substr(Pos, *AuthorLen));
      Pos += *AuthorLen;
    }
    // Optional next URI (older snapshots end here).
    if (Pos != Payload.size()) {
      auto NextUri = getVarint(Payload, Pos);
      if (!NextUri) {
        Result.Error = "truncated snapshot next uri";
        return Result;
      }
      Result.Snap.NextUri = *NextUri;
    }
    if (Pos != Payload.size()) {
      Result.Error = "trailing bytes in snapshot";
      return Result;
    }
  }
  Result.Ok = true;
  return Result;
}

std::vector<SnapshotFileName> persist::listSnapshotFiles(
    const std::string &Dir) {
  std::vector<SnapshotFileName> Out;
  DIR *D = ::opendir(Dir.c_str());
  if (D == nullptr)
    return Out;
  while (struct dirent *Ent = ::readdir(D)) {
    // Exactly snap-<digits>-<digits>.snap.
    std::string_view Name(Ent->d_name);
    if (Name.size() <= 10 || Name.substr(0, 5) != "snap-" ||
        Name.substr(Name.size() - 5) != ".snap")
      continue;
    std::string_view Mid = Name.substr(5, Name.size() - 10);
    size_t Dash = Mid.find('-');
    if (Dash == std::string_view::npos)
      continue;
    auto ParseNum = [](std::string_view S, uint64_t &V) {
      if (S.empty())
        return false;
      V = 0;
      for (char C : S) {
        if (C < '0' || C > '9')
          return false;
        V = V * 10 + static_cast<uint64_t>(C - '0');
      }
      return true;
    };
    SnapshotFileName F;
    if (!ParseNum(Mid.substr(0, Dash), F.Doc) ||
        !ParseNum(Mid.substr(Dash + 1), F.Seq))
      continue;
    F.Path = Dir + "/" + Ent->d_name;
    Out.push_back(std::move(F));
  }
  ::closedir(D);
  return Out;
}
