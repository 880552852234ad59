//===- client/Client.h - Resilient textual-protocol client ------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A client for the textual wire protocol (service/Wire.h) built to
/// survive a cluster mid-failover: per-request timeouts, capped
/// exponential backoff with deterministic jitter, redirect-following on
/// not_leader (the err line's leader= hint, falling back to endpoint
/// rotation), and version-CAS-guarded submits so a retried write is
/// never applied twice.
///
/// The exactly-once construction: every submit carries expect=<v>, the
/// client's last known version of the document. Retrying after a
/// timeout is at-least-once delivery; the store's CAS guard turns that
/// into at-most-once application; and a retry whose first copy did apply
/// comes back as cas_mismatch with version == expect+1 -- which the
/// client recognises as its own write and reports as success. The one
/// assumption is a single writer per document (the mismatch would
/// otherwise be ambiguous); concurrent writers surface as a clean
/// cas_mismatch error instead of silent double application.
///
/// Blocking sockets, deliberately: the client is the test harness's and
/// benchmark's view of the cluster, and sequential request/response with
/// poll()-bounded waits is the simplest thing that cannot deadlock. Not
/// thread-safe; one instance per thread.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_CLIENT_CLIENT_H
#define TRUEDIFF_CLIENT_CLIENT_H

#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

namespace truediff {
namespace client {

class ResilientClient {
public:
  struct Config {
    /// "host:port" endpoints, tried in order on connection failure.
    /// Redirect hints are appended as they are learned.
    std::vector<std::string> Endpoints;
    /// Per-attempt budget: connect, send, and receive each bounded.
    unsigned RequestTimeoutMs = 2000;
    /// Attempts per request() before giving up (connects, timeouts, and
    /// not_leader redirects all consume attempts).
    unsigned MaxAttempts = 10;
    /// Capped exponential backoff between retries, full jitter.
    unsigned BackoffBaseMs = 5;
    unsigned BackoffCapMs = 200;
    /// Deterministic jitter stream (tests replay schedules by seed).
    uint64_t JitterSeed = 1;
    /// Chase leader= hints on not_leader (otherwise just rotate).
    bool FollowRedirects = true;
  };

  struct Result {
    bool Ok = false;
    /// err line's message (markers stripped).
    std::string Error;
    /// code= marker ("" when absent).
    std::string Code;
    /// ok: the new version; err cas_mismatch: the current version.
    uint64_t Version = 0;
    /// Payload lines between the status line and the "." terminator.
    std::string Payload;
    /// Attempts consumed (1 = first try succeeded).
    unsigned Attempts = 0;
    /// The submit was acknowledged via CAS dedup: the first copy of a
    /// retried write had already applied.
    bool Deduped = false;
  };

  struct Stats {
    uint64_t Requests = 0;
    uint64_t Attempts = 0;
    uint64_t Timeouts = 0;
    uint64_t ConnectFailures = 0;
    uint64_t Redirects = 0;
    uint64_t CasDedups = 0;
    uint64_t BackoffMsTotal = 0;
  };

  explicit ResilientClient(Config C);
  ~ResilientClient();

  ResilientClient(const ResilientClient &) = delete;
  ResilientClient &operator=(const ResilientClient &) = delete;

  /// open <doc> [author=..] <sexpr>. On success the known version is 0.
  Result open(uint64_t Doc, const std::string &SExpr,
              const std::string &Author = std::string());

  /// Exactly-once submit: expect= travels with every attempt. If the
  /// client holds no version for \p Doc yet, it learns one with a get
  /// first.
  Result submit(uint64_t Doc, const std::string &SExpr,
                const std::string &Author = std::string());

  Result get(uint64_t Doc);
  Result stats();

  /// One framed request/response exchange with retry/redirect/backoff.
  /// \p IsWrite gates not_leader handling (reads on a follower succeed
  /// and never redirect).
  Result request(const std::string &Line, bool IsWrite);

  const Stats &clientStats() const { return Counters; }

  /// The endpoint the last successful exchange used (test observability).
  const std::string &currentEndpoint() const;

  /// Forget the cached version of \p Doc (e.g. another writer took over).
  void forgetVersion(uint64_t Doc);

private:
  struct ParsedStatus {
    bool Ok = false;
    std::string Error;
    std::string Code;
    uint64_t Version = 0;
    uint64_t RetryAfterMs = 0;
    std::string Leader;
  };

  bool connectCurrent();
  void dropConn();
  bool exchange(const std::string &Line, std::string &RespOut);
  void backoff(unsigned Attempt, uint64_t RetryAfterMs);
  void pointAt(const std::string &Endpoint);
  static ParsedStatus parseStatusLine(const std::string &Line);

  Config Cfg;
  int Fd = -1;
  size_t Cur = 0;
  std::mt19937_64 Rng;
  Stats Counters;
  /// Last known version per document, maintained from every response
  /// that carries one.
  std::unordered_map<uint64_t, uint64_t> KnownVersion;
};

} // namespace client
} // namespace truediff

#endif // TRUEDIFF_CLIENT_CLIENT_H
