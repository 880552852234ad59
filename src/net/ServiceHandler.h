//===- net/ServiceHandler.h - NetServer -> DiffService bridge ---*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The RequestHandler that feeds NetServer requests into a DiffService
/// through its callback API. Textual open/submit payloads parse as
/// s-expressions under the configured admission limits; binary payloads
/// decode through persist/BinaryCodec with fresh URIs (a client's URIs
/// must never collide with a document's live URI space), and binary
/// submits run in RawScript mode so the response frame carries the
/// binary-encoded script without a textual round trip.
///
/// health is answered inline from healthJson() -- it must work when the
/// request queue is saturated. save/recover are delegated to optional
/// hooks wired up by the server binary when persistence is enabled.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_NET_SERVICEHANDLER_H
#define TRUEDIFF_NET_SERVICEHANDLER_H

#include "net/NetServer.h"
#include "net/Role.h"
#include "tree/Limits.h"

namespace truediff {
namespace net {

class ServiceHandler : public RequestHandler {
public:
  struct Config {
    /// Admission caps for every tree a write carries, textual s-expression
    /// or binary blob ({0,0} = none).
    ParseLimits Limits;
    /// Deadline handed to every submit, ms from enqueue (0 = service
    /// default).
    uint64_t SubmitDeadlineMs = 0;
    /// save <doc>: force a durable snapshot. Unset = "persistence is
    /// disabled" error. May block; it runs on a connection-independent
    /// path only when the wiring says so -- keep it cheap or unset.
    std::function<service::Response(service::DocId)> OnSave;
    /// recover: last recovery summary. Unset = error, as above.
    std::function<service::Response()> OnRecover;
    /// scrub: run one synchronous integrity scrub cycle, answering with
    /// its findings as JSON. Unset = "integrity scrubbing is disabled"
    /// error. Blocks for the cycle (rate-limited by the scrubber's
    /// token bucket), so wire it through a connection-independent path.
    std::function<service::Response()> OnScrub;
    /// Role gate: when set, writes (open/submit/rollback/save) are only
    /// admitted while the role is Leader; otherwise they answer
    /// ErrCode::NotLeader carrying the view's leader address and
    /// retry_after_ms hint. Null = always writable (single-node server).
    /// Must outlive the handler.
    RoleState *Role = nullptr;
    /// promote <epoch>: the failover hook that makes this node the
    /// leader. Unset = "role management is disabled" error.
    std::function<service::Response(uint64_t NewEpoch)> OnPromote;
    /// demote [<host:port>]: stop accepting writes, pointing clients at
    /// the given leader. Unset = error, as above.
    std::function<service::Response(std::string LeaderAddr)> OnDemote;
  };

  explicit ServiceHandler(service::DiffService &Svc);
  ServiceHandler(service::DiffService &Svc, Config C)
      : Svc(Svc), Cfg(std::move(C)) {}

  void handle(NetRequest Req,
              std::function<void(service::Response)> Done) override;

private:
  service::DiffService &Svc;
  const Config Cfg;
};

} // namespace net
} // namespace truediff

#endif // TRUEDIFF_NET_SERVICEHANDLER_H
