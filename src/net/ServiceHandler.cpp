//===- net/ServiceHandler.cpp - NetServer -> DiffService bridge ------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/ServiceHandler.h"

#include "persist/BinaryCodec.h"

using namespace truediff;
using namespace truediff::net;
using namespace truediff::service;

namespace {

/// Builds a client-supplied binary tree blob inside the document's
/// context. Fresh URIs: the decoder validates the encoded ones but
/// allocates every node via TreeContext::make. The decode runs through
/// the same admission point as a textual parse: \p Limits caps depth and
/// node count, the context's memory budget is polled before every node,
/// and a refusal answers with the textual path's ErrCode. A blob that is
/// merely malformed answers MalformedFrame.
TreeBuilder makeBlobBuilder(std::string Blob, ParseLimits Limits) {
  return [Blob = std::move(Blob), Limits](TreeContext &Ctx) -> BuildResult {
    BuildResult Out;
    persist::DecodeTreeResult R =
        persist::decodeTree(Ctx.signatures(), Ctx, Blob,
                            /*PreserveUris=*/false, Limits);
    if (!R.ok()) {
      Out.Error = R.Error.empty() ? "malformed tree blob" : R.Error;
      Out.Code = R.Fail == ParseFail::Syntax ? ErrCode::MalformedFrame
                                             : errCodeForParseFail(R.Fail);
      return Out;
    }
    Out.Root = R.Root;
    return Out;
  };
}

Response errorResponse(std::string Message) {
  Response R;
  R.Ok = false;
  R.Error = std::move(Message);
  return R;
}

} // namespace

ServiceHandler::ServiceHandler(service::DiffService &Svc)
    : ServiceHandler(Svc, Config()) {}

void ServiceHandler::handle(NetRequest Req,
                            std::function<void(service::Response)> Done) {
  const WireCommand &Cmd = Req.Cmd;
  // Role gate: a non-leader never lets a write reach the service. The
  // answer carries where the leader is plus a pacing hint, so a resilient
  // client redirects instead of spinning.
  if (Cfg.Role != nullptr) {
    switch (Cmd.K) {
    case WireCommand::Kind::Open:
    case WireCommand::Kind::Submit:
    case WireCommand::Kind::Rollback:
    case WireCommand::Kind::Save: {
      RoleState::View V = Cfg.Role->view();
      if (V.R != RoleState::Role::Leader) {
        Response R;
        R.Error = std::string("not the leader (role: ") + roleName(V.R) +
                  "); writes go to the leader";
        R.Code = ErrCode::NotLeader;
        R.LeaderAddr = V.LeaderAddr;
        R.RetryAfterMs = V.RetryAfterMs;
        Done(std::move(R));
        return;
      }
      break;
    }
    default:
      break;
    }
  }
  switch (Cmd.K) {
  case WireCommand::Kind::Open: {
    size_t Bytes = Req.Binary ? Req.Blob.size() : Cmd.Arg.size();
    TreeBuilder Build = Req.Binary
                            ? makeBlobBuilder(std::move(Req.Blob), Cfg.Limits)
                            : makeSExprBuilder(Cmd.Arg, Cfg.Limits);
    Svc.openCb(Cmd.Doc, std::move(Build), Bytes, std::move(Req.Cmd.Author),
               std::move(Done));
    return;
  }
  case WireCommand::Kind::Submit: {
    size_t Bytes = Req.Binary ? Req.Blob.size() : Cmd.Arg.size();
    TreeBuilder Build = Req.Binary
                            ? makeBlobBuilder(std::move(Req.Blob), Cfg.Limits)
                            : makeSExprBuilder(Cmd.Arg, Cfg.Limits);
    Svc.submitCb(Cmd.Doc, std::move(Build), Cfg.SubmitDeadlineMs, Bytes,
                 /*RawScript=*/Req.Binary, std::move(Req.Cmd.Author),
                 Cmd.Expect, std::move(Done));
    return;
  }
  case WireCommand::Kind::Rollback:
    Svc.rollbackCb(Cmd.Doc, std::move(Done));
    return;
  case WireCommand::Kind::Get:
    Svc.getVersionCb(Cmd.Doc, std::move(Done));
    return;
  case WireCommand::Kind::Blame:
    Svc.blameCb(Cmd.Doc, Cmd.HasUri, Cmd.Uri, std::move(Done));
    return;
  case WireCommand::Kind::History:
    Svc.historyCb(Cmd.Doc, Cmd.Uri, std::move(Done));
    return;
  case WireCommand::Kind::Stats:
    Svc.statsCb(std::move(Done));
    return;
  case WireCommand::Kind::Health: {
    // Inline, queue-free: health must answer while the queue is full.
    Response R;
    R.Ok = true;
    R.Payload = Svc.healthJson();
    Done(std::move(R));
    return;
  }
  case WireCommand::Kind::Save:
    Done(Cfg.OnSave ? Cfg.OnSave(Cmd.Doc)
                    : errorResponse("persistence is disabled"));
    return;
  case WireCommand::Kind::Scrub:
    Done(Cfg.OnScrub ? Cfg.OnScrub()
                     : errorResponse("integrity scrubbing is disabled"));
    return;
  case WireCommand::Kind::Recover:
    Done(Cfg.OnRecover ? Cfg.OnRecover()
                       : errorResponse("persistence is disabled"));
    return;
  case WireCommand::Kind::Promote:
    Done(Cfg.OnPromote ? Cfg.OnPromote(Cmd.Expect.value_or(0))
                       : errorResponse("role management is disabled"));
    return;
  case WireCommand::Kind::Demote:
    Done(Cfg.OnDemote ? Cfg.OnDemote(Cmd.Arg)
                      : errorResponse("role management is disabled"));
    return;
  case WireCommand::Kind::Quit:
  case WireCommand::Kind::Invalid:
    // The server answers these itself; getting here is a wiring bug,
    // but a typed error beats a dropped slot.
    Done(errorResponse("unroutable request"));
    return;
  }
  Done(errorResponse("unroutable request"));
}
