//===- client/Client.cpp - Resilient textual-protocol client ---------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "client/Client.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <optional>
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace truediff;
using namespace truediff::client;

namespace {

/// Splits "host:port"; false on malformed input.
bool splitEndpoint(const std::string &Ep, std::string &Host,
                   std::string &Port) {
  size_t Colon = Ep.rfind(':');
  if (Colon == std::string::npos || Colon == 0 || Colon + 1 == Ep.size())
    return false;
  Host = Ep.substr(0, Colon);
  Port = Ep.substr(Colon + 1);
  return true;
}

/// Non-blocking connect bounded by \p TimeoutMs. Returns the fd or -1.
int connectWithTimeout(const std::string &Host, const std::string &Port,
                       unsigned TimeoutMs) {
  addrinfo Hints{};
  Hints.ai_family = AF_INET;
  Hints.ai_socktype = SOCK_STREAM;
  addrinfo *Res = nullptr;
  if (getaddrinfo(Host.c_str(), Port.c_str(), &Hints, &Res) != 0 ||
      Res == nullptr)
    return -1;
  int Fd = ::socket(Res->ai_family, Res->ai_socktype, Res->ai_protocol);
  if (Fd < 0) {
    freeaddrinfo(Res);
    return -1;
  }
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
  int Rc = ::connect(Fd, Res->ai_addr, Res->ai_addrlen);
  freeaddrinfo(Res);
  if (Rc != 0 && errno != EINPROGRESS) {
    ::close(Fd);
    return -1;
  }
  if (Rc != 0) {
    pollfd P{Fd, POLLOUT, 0};
    if (::poll(&P, 1, static_cast<int>(TimeoutMs)) <= 0) {
      ::close(Fd);
      return -1;
    }
    int Err = 0;
    socklen_t Len = sizeof(Err);
    if (::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &Err, &Len) != 0 || Err != 0) {
      ::close(Fd);
      return -1;
    }
  }
  return Fd; // left non-blocking; every I/O below is poll()-gated
}

std::optional<uint64_t> parseU64(const std::string &S) {
  if (S.empty())
    return std::nullopt;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return std::nullopt;
    V = V * 10 + static_cast<uint64_t>(C - '0');
  }
  return V;
}

} // namespace

ResilientClient::ResilientClient(Config C)
    : Cfg(std::move(C)), Rng(Cfg.JitterSeed) {}

ResilientClient::~ResilientClient() { dropConn(); }

void ResilientClient::dropConn() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

const std::string &ResilientClient::currentEndpoint() const {
  static const std::string Empty;
  return Cur < Cfg.Endpoints.size() ? Cfg.Endpoints[Cur] : Empty;
}

void ResilientClient::forgetVersion(uint64_t Doc) { KnownVersion.erase(Doc); }

void ResilientClient::pointAt(const std::string &Endpoint) {
  for (size_t I = 0; I != Cfg.Endpoints.size(); ++I) {
    if (Cfg.Endpoints[I] == Endpoint) {
      if (I != Cur) {
        Cur = I;
        dropConn();
      }
      return;
    }
  }
  Cfg.Endpoints.push_back(Endpoint);
  Cur = Cfg.Endpoints.size() - 1;
  dropConn();
}

bool ResilientClient::connectCurrent() {
  if (Fd >= 0)
    return true;
  if (Cfg.Endpoints.empty())
    return false;
  std::string Host, Port;
  if (!splitEndpoint(Cfg.Endpoints[Cur], Host, Port))
    return false;
  Fd = connectWithTimeout(Host, Port, Cfg.RequestTimeoutMs);
  if (Fd < 0)
    ++Counters.ConnectFailures;
  return Fd >= 0;
}

/// Sends \p Line (newline appended) and reads one framed response (up to
/// the "." terminator line) into \p RespOut. False on any socket error
/// or deadline overrun -- the connection is dropped, so the next attempt
/// reconnects from a clean slate.
bool ResilientClient::exchange(const std::string &Line, std::string &RespOut) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(Cfg.RequestTimeoutMs);
  auto RemainMs = [&]() -> int {
    auto R = std::chrono::duration_cast<std::chrono::milliseconds>(
                 Deadline - Clock::now())
                 .count();
    return R > 0 ? static_cast<int>(R) : 0;
  };

  std::string Out = Line;
  Out += '\n';
  size_t Sent = 0;
  while (Sent != Out.size()) {
    pollfd P{Fd, POLLOUT, 0};
    int R = RemainMs();
    if (R == 0 || ::poll(&P, 1, R) <= 0) {
      ++Counters.Timeouts;
      dropConn();
      return false;
    }
    ssize_t N = ::send(Fd, Out.data() + Sent, Out.size() - Sent, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
        continue;
      dropConn();
      return false;
    }
    Sent += static_cast<size_t>(N);
  }

  RespOut.clear();
  char Buf[4096];
  for (;;) {
    // Frame complete? The terminator is a "." alone on a line.
    if (RespOut == ".\n" ||
        (RespOut.size() >= 3 &&
         RespOut.compare(RespOut.size() - 3, 3, "\n.\n") == 0))
      return true;
    pollfd P{Fd, POLLIN, 0};
    int R = RemainMs();
    if (R == 0 || ::poll(&P, 1, R) <= 0) {
      ++Counters.Timeouts;
      dropConn();
      return false;
    }
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N <= 0) {
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
        continue;
      dropConn();
      return false;
    }
    RespOut.append(Buf, static_cast<size_t>(N));
  }
}

void ResilientClient::backoff(unsigned Attempt, uint64_t RetryAfterMs) {
  // Capped exponential with full jitter; a server-provided hint is the
  // floor (the server knows how long its queue needs).
  uint64_t Exp = Cfg.BackoffBaseMs;
  for (unsigned I = 0; I < Attempt && Exp < Cfg.BackoffCapMs; ++I)
    Exp *= 2;
  if (Exp > Cfg.BackoffCapMs)
    Exp = Cfg.BackoffCapMs;
  uint64_t Jittered = Exp != 0 ? (Rng() % Exp) + 1 : 0;
  uint64_t Wait = std::max(Jittered, RetryAfterMs);
  Counters.BackoffMsTotal += Wait;
  if (Wait != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(Wait));
}

ResilientClient::ParsedStatus
ResilientClient::parseStatusLine(const std::string &Line) {
  ParsedStatus S;
  if (Line.compare(0, 3, "ok ") == 0 || Line == "ok") {
    S.Ok = true;
  } else if (Line.compare(0, 4, "err ") != 0) {
    S.Error = "malformed response: " + Line;
    return S;
  }
  // Trailing key=value markers are additive (Wire.h); scan tokens from
  // the end and stop at the first non-marker, which closes the message.
  size_t MsgEnd = Line.size();
  size_t End = Line.size();
  while (End > 0) {
    size_t Sp = Line.rfind(' ', End - 1);
    size_t TokStart = Sp == std::string::npos ? 0 : Sp + 1;
    std::string Tok = Line.substr(TokStart, End - TokStart);
    size_t Eq = Tok.find('=');
    if (Eq == std::string::npos || Eq == 0)
      break;
    std::string Key = Tok.substr(0, Eq);
    std::string Val = Tok.substr(Eq + 1);
    bool Known = true;
    if (Key == "version") {
      if (auto V = parseU64(Val))
        S.Version = *V;
    } else if (Key == "code") {
      S.Code = Val;
    } else if (Key == "retry_after_ms") {
      if (auto V = parseU64(Val))
        S.RetryAfterMs = *V;
    } else if (Key == "leader") {
      S.Leader = Val;
    } else if (Key == "edits" || Key == "coalesced" || Key == "size" ||
               Key == "fallback") {
      // ok-line metrics; recognised so the scan keeps walking left.
    } else {
      Known = false;
    }
    if (!Known)
      break;
    MsgEnd = TokStart;
    End = Sp == std::string::npos ? 0 : Sp;
  }
  if (!S.Ok) {
    while (MsgEnd > 4 && Line[MsgEnd - 1] == ' ')
      --MsgEnd;
    S.Error = Line.substr(4, MsgEnd > 4 ? MsgEnd - 4 : 0);
  }
  return S;
}

ResilientClient::Result ResilientClient::request(const std::string &Line,
                                                 bool IsWrite) {
  ++Counters.Requests;
  Result Out;
  for (unsigned Attempt = 0; Attempt < Cfg.MaxAttempts; ++Attempt) {
    Out.Attempts = Attempt + 1;
    ++Counters.Attempts;
    if (!connectCurrent()) {
      // Rotate: the endpoint may simply be dead.
      if (!Cfg.Endpoints.empty())
        Cur = (Cur + 1) % Cfg.Endpoints.size();
      backoff(Attempt, 0);
      continue;
    }
    std::string Resp;
    if (!exchange(Line, Resp)) {
      // The endpoint accepted the connection but never answered -- the
      // signature of a partitioned or dying leader. Rotate: a wedged
      // endpoint must not absorb the whole attempt budget.
      if (!Cfg.Endpoints.empty())
        Cur = (Cur + 1) % Cfg.Endpoints.size();
      backoff(Attempt, 0);
      continue;
    }
    size_t Eol = Resp.find('\n');
    ParsedStatus S = parseStatusLine(Resp.substr(0, Eol));
    Out.Ok = S.Ok;
    Out.Error = S.Error;
    Out.Code = S.Code;
    Out.Version = S.Version;
    if (Eol != std::string::npos) {
      // Everything between the status line and the "." terminator.
      size_t PayloadEnd = Resp.rfind("\n.\n");
      Out.Payload = PayloadEnd != std::string::npos && PayloadEnd > Eol
                        ? Resp.substr(Eol + 1, PayloadEnd - Eol)
                        : std::string();
    }
    if (S.Ok)
      return Out;
    if (S.Code == "not_leader" && IsWrite) {
      ++Counters.Redirects;
      if (Cfg.FollowRedirects && !S.Leader.empty())
        pointAt(S.Leader);
      else if (!Cfg.Endpoints.empty()) {
        Cur = (Cur + 1) % Cfg.Endpoints.size();
        dropConn();
      }
      backoff(Attempt, S.RetryAfterMs);
      continue;
    }
    if (S.Code == "shed" || S.Code == "backpressure") {
      backoff(Attempt, S.RetryAfterMs);
      continue;
    }
    return Out; // a typed, non-retryable error is the answer
  }
  if (Out.Error.empty()) {
    Out.Ok = false;
    Out.Error = "request failed after " + std::to_string(Out.Attempts) +
                " attempts";
    Out.Code = "unavailable";
  }
  return Out;
}

ResilientClient::Result ResilientClient::open(uint64_t Doc,
                                              const std::string &SExpr,
                                              const std::string &Author) {
  std::string Line = "open " + std::to_string(Doc);
  if (!Author.empty())
    Line += " author=" + Author;
  Line += " " + SExpr;
  Result R = request(Line, /*IsWrite=*/true);
  if (R.Ok)
    KnownVersion[Doc] = R.Version;
  else if (R.Code == "document_exists")
    // A retried open whose first copy applied: adopt the live version.
    KnownVersion.erase(Doc);
  return R;
}

ResilientClient::Result ResilientClient::submit(uint64_t Doc,
                                                const std::string &SExpr,
                                                const std::string &Author) {
  auto It = KnownVersion.find(Doc);
  if (It == KnownVersion.end()) {
    Result G = get(Doc);
    if (!G.Ok)
      return G;
    It = KnownVersion.find(Doc);
  }
  uint64_t Expect = It->second;
  std::string Line = "submit " + std::to_string(Doc);
  if (!Author.empty())
    Line += " author=" + Author;
  Line += " expect=" + std::to_string(Expect);
  Line += " " + SExpr;
  Result R = request(Line, /*IsWrite=*/true);
  if (R.Ok) {
    KnownVersion[Doc] = R.Version;
    return R;
  }
  if (R.Code == "cas_mismatch") {
    KnownVersion[Doc] = R.Version;
    if (R.Version == Expect + 1) {
      // Our timed-out first copy applied; the retry bounced off the CAS
      // guard. Exactly-once achieved -- report success.
      ++Counters.CasDedups;
      R.Ok = true;
      R.Deduped = true;
      R.Error.clear();
      R.Code.clear();
    }
  }
  return R;
}

ResilientClient::Result ResilientClient::get(uint64_t Doc) {
  Result R = request("get " + std::to_string(Doc), /*IsWrite=*/false);
  if (R.Ok)
    KnownVersion[Doc] = R.Version;
  return R;
}

ResilientClient::Result ResilientClient::stats() {
  return request("stats", /*IsWrite=*/false);
}
