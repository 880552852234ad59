//===- TestNet.h - Blocking loopback TCP client for tests --------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A blocking test client for the textual and binary wire protocols over
/// loopback TCP. Every read is guarded by poll() with a timeout, so a
/// server that never answers fails the test instead of hanging it.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_TESTS_TESTNET_H
#define TRUEDIFF_TESTS_TESTNET_H

#include "net/Frame.h"

#include <arpa/inet.h>
#include <chrono>
#include <cstdint>
#include <netinet/in.h>
#include <poll.h>
#include <string>
#include <string_view>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

namespace truediff {
namespace tests {

class TcpClient {
public:
  TcpClient() = default;
  ~TcpClient() { closeFd(); }
  TcpClient(const TcpClient &) = delete;
  TcpClient &operator=(const TcpClient &) = delete;

  bool connect(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_in A{};
    A.sin_family = AF_INET;
    A.sin_port = htons(Port);
    A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0) {
      closeFd();
      return false;
    }
    return true;
  }

  void closeFd() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }

  bool sendAll(std::string_view Bytes) {
    while (!Bytes.empty()) {
      ssize_t N = ::send(Fd, Bytes.data(), Bytes.size(), MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Bytes.remove_prefix(static_cast<size_t>(N));
    }
    return true;
  }

  /// One recv() guarded by poll(); false on timeout, error, or EOF (EOF
  /// additionally sets SawEof).
  bool fill(int TimeoutMs) {
    pollfd P{Fd, POLLIN, 0};
    int R = ::poll(&P, 1, TimeoutMs);
    if (R <= 0)
      return false;
    char Tmp[4096];
    ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
    if (N < 0)
      return false;
    if (N == 0) {
      SawEof = true;
      return false;
    }
    Buf.append(Tmp, static_cast<size_t>(N));
    return true;
  }

  bool readLine(std::string &Line, int TimeoutMs = 10000) {
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(TimeoutMs);
    for (;;) {
      size_t NL = Buf.find('\n');
      if (NL != std::string::npos) {
        Line = Buf.substr(0, NL);
        Buf.erase(0, NL + 1);
        return true;
      }
      int Left = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              Deadline - std::chrono::steady_clock::now())
              .count());
      if (Left <= 0 || !fill(Left))
        return false;
    }
  }

  /// Reads one framed textual response: every line up to (excluding) the
  /// terminating "." line.
  bool readTextResponse(std::vector<std::string> &Lines,
                        int TimeoutMs = 10000) {
    Lines.clear();
    std::string Line;
    for (;;) {
      if (!readLine(Line, TimeoutMs))
        return false;
      if (Line == ".")
        return true;
      Lines.push_back(Line);
    }
  }

  /// Reads one binary frame (any magic).
  bool readFrame(truediff::net::FrameHeader &H, std::string &Payload,
                 int TimeoutMs = 10000) {
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(TimeoutMs);
    for (;;) {
      truediff::net::FramePeek P = truediff::net::peekFrame(Buf, truediff::net::MaxBinaryFrameBytes, H);
      if (P == truediff::net::FramePeek::Ok) {
        Payload = Buf.substr(truediff::net::FrameHeaderBytes, H.Len);
        Buf.erase(0, truediff::net::FrameHeaderBytes + H.Len);
        return true;
      }
      if (P == truediff::net::FramePeek::TooLarge)
        return false;
      int Left = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              Deadline - std::chrono::steady_clock::now())
              .count());
      if (Left <= 0 || !fill(Left))
        return false;
    }
  }

  /// Reads one binary client response frame into \p R.
  bool readBinResponse(truediff::net::BinResponse &R, int TimeoutMs = 10000) {
    truediff::net::FrameHeader H;
    std::string Payload;
    if (!readFrame(H, Payload, TimeoutMs))
      return false;
    if (H.Magic != truediff::net::ClientRespMagic)
      return false;
    return truediff::net::decodeBinResponse(H.Type, Payload, R);
  }

  /// True once the peer closed the connection (drains pending bytes).
  bool waitEof(int TimeoutMs = 10000) {
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(TimeoutMs);
    while (!SawEof) {
      int Left = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              Deadline - std::chrono::steady_clock::now())
              .count());
      if (Left <= 0)
        return false;
      if (!fill(Left) && !SawEof)
        return false;
    }
    return true;
  }

  std::string &buf() { return Buf; }
  bool sawEof() const { return SawEof; }

private:
  int Fd = -1;
  std::string Buf;
  bool SawEof = false;
};

} // namespace tests
} // namespace truediff

#endif // TRUEDIFF_TESTS_TESTNET_H
