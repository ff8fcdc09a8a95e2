// Subscription endpoints: the HTTP face of subscribe::Dispatcher.
//
//   POST   /subscribe   register a predicate; parameters (URL + form body,
//                       all optional, ANDed):
//                         prefix=A.B.C.D/L   victim prefix (/32 exact, /24+)
//                         asn=N              victim origin ASN
//                         country=CC         victim country
//                         proto=N            attack IP protocol
//                         kind=new-attack|attack-spike|target-spike
//                       → {"subscription":id,"cursor":0,"predicate":"..."}
//   DELETE /subscribe   ?id=N → {"removed":true,"subscription":N}
//   GET    /watch       ?id=N&cursor=C&max=M&wait_ms=W — cursor-keyed delta
//                       fetch; wait_ms > 0 long-polls (capped at 10 s)
//                       → {"subscription":N,"cursor":C,"next_cursor":X,
//                          "dropped":D,"pending":P,"notifications":[...]}
//
// Responses are byte-deterministic the same way /query responses are: a
// /watch body is a pure function of (request, delivered notification
// sequence), so replaying a cursor always re-renders identical bytes.
// A server started without a Dispatcher answers 503 "subscriptions
// disabled" on all three.
#pragma once

#include "serve/api.h"

namespace dosm::serve {

class Router;

/// Maps subscription-predicate parameters (prefix, asn, country, proto,
/// kind) onto ApiCall::predicate — the one grammar behind both POST
/// /subscribe and the `dosmeter watch` flags. A key given twice applies
/// last-wins (collect_params rejects it for HTTP). Never throws; errors
/// land in ApiCall::error.
ApiCall parse_predicate_params(const Params& params);

/// Registers POST/DELETE /subscribe and GET /watch (none cacheable — they
/// read or mutate live dispatcher state, not a snapshot).
void install_subscribe_routes(Router& router);

}  // namespace dosm::serve
