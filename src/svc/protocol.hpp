// fcqss — svc/protocol.hpp
// The service wire protocol: line-delimited JSON, one request object per
// input line, one event object per output line.  A `session` binds one
// pipeline::service to one line sink and turns request lines into
// submissions and service callbacks into reply lines.  The session is
// transport-agnostic — the server layer (svc/server.hpp) feeds it lines
// from stdio or a socket; tests feed it strings directly.
//
// Requests (fields beyond `op` are op-specific; unknown fields ignored):
//
//   {"op":"synthesize","id":"r1","net":"<.pn text>","stream":true}
//   {"op":"synthesize","id":"r2","path":"examples/nets/choice.pn"}
//   {"op":"explore","id":"x1","net":"<.pn text>","max_states":5000,
//    "max_tokens":64,"reduce":"stubborn"}
//   {"op":"ping","id":"p"}
//   {"op":"stats"}
//   {"op":"shutdown"}
//
//   `id` is an arbitrary client string echoed verbatim on every event the
//   request causes.  `net` is inline `.pn` text; `path` loads from the
//   server's filesystem; exactly one of the two.  `stream` (default
//   false) opts into per-stage progress events.
//
//   `explore` runs state-space exploration synchronously on the session
//   thread and replies with one `explored` event.  The client may tighten
//   `max_states` / `max_tokens` (clamped to the server's ceilings, never
//   widened) and pick `reduce` (none|stubborn); thread count
//   and the resident-memory budget (--max-bytes) are server policy and not
//   negotiable over the wire.  Wire change: an `order` field is ignored
//   like any unknown field (there is one exploration order), and
//   `explored` has no `fallback` member.
//
// Events (`event` discriminates; `id` echoes the client id when given):
//
//   {"event":"accepted","id":"r1","request":7}
//   {"event":"stage","id":"r1","request":7,"stage":"classify","micros":12}
//   {"event":"done","id":"r1","request":7,"status":"ok","code":0,
//    "deduplicated":false,"cached":false,...,"c":"<generated C>"}
//   {"event":"explored","id":"x1","states":412,"edges":988,
//    "truncated":false,"deadlock":false}
//   {"event":"rejected","id":"r9","reason":"overloaded"}   // backpressure
//   {"event":"error","message":"..."}                      // malformed line
//   {"event":"pong","id":"p"}
//   {"event":"stats","submitted":...,"syntheses":...,...}
//   {"event":"bye"}                                        // drain complete
//
// Backpressure contract: `accepted` and `rejected` are synchronous — a
// client that waits for one of them after each submission can never
// overrun the queue; a client that pipelines submissions must handle
// `rejected` with reason "overloaded" by retrying later.  `done` events
// arrive asynchronously, in completion (not submission) order; the
// "status" / "code" pair uses the same stable wire mapping as CLI exit
// codes (pipeline::wire_code).
#ifndef FCQSS_SVC_PROTOCOL_HPP
#define FCQSS_SVC_PROTOCOL_HPP

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "pipeline/service.hpp"
#include "pn/reachability.hpp"
#include "svc/json.hpp"

namespace fcqss::svc {

/// Writes one complete reply line (no trailing newline in the argument).
/// Must be callable concurrently: done/stage events fire on the service's
/// worker threads while the session thread emits accepted/error events.
using line_sink = std::function<void(const std::string& line)>;

struct session_options {
    /// Attach the generated C to done events ("c" field).  Off keeps
    /// replies small when callers only want verdicts.
    bool include_code = true;
    /// Allow {"op":"synthesize","path":...} to read server-side files.
    /// Off (e.g. for TCP) rejects path requests with an error event.
    bool allow_paths = true;
    /// Server-side exploration policy for {"op":"explore"}.  `max_markings`
    /// and `max_tokens_per_place` are ceilings a client may tighten but
    /// never raise; `threads` and `max_bytes` (the resident arena budget —
    /// pn_tool serve --max-bytes) are applied as-is and are not exposed on
    /// the wire.
    pn::reachability_options explore{};
};

/// What a handled line asks the transport to do next.
enum class session_verdict {
    keep_open, ///< keep reading lines
    shutdown,  ///< shutdown requested: drain the service, send bye, close
};

class session {
public:
    session(pipeline::service& service, line_sink sink,
            session_options options = {});

    /// Parses and executes one request line.  Malformed input produces an
    /// error event and keeps the connection open — one bad request never
    /// kills the stream.  Thread-compatible: call from one reader thread.
    session_verdict handle_line(std::string_view line);

    /// Emits the final {"event":"bye"} after the caller drained the
    /// service (the session cannot drain itself: the service is shared
    /// between transports).
    void send_bye();

    /// Emits an error event (used by transports for oversized lines).
    void send_error(std::string_view message);

    /// Blocks until every request this session submitted has replied.
    /// Transports call this before closing the sink's descriptor — a done
    /// event must never race a close (and a reused fd).  The session must
    /// outlive its in-flight replies; waiting here guarantees that too.
    void wait_idle();

private:
    void handle_synthesize(const json& request);
    void handle_explore(const json& request);
    void finish_request();

    pipeline::service& service_;
    line_sink sink_;
    session_options options_;
    std::uint64_t anonymous_serial_ = 0;

    std::mutex idle_mutex_;
    std::condition_variable idle_;
    std::size_t open_requests_ = 0;
};

} // namespace fcqss::svc

#endif // FCQSS_SVC_PROTOCOL_HPP
