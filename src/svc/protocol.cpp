#include "svc/protocol.hpp"

#include <algorithm>
#include <future>
#include <memory>
#include <utility>

#include "pn/net_class.hpp"
#include "pnio/parser.hpp"
#include "qss/schedulability.hpp"

namespace fcqss::svc {

namespace {

json event_header(std::string_view event, const std::string& client_id)
{
    json reply = json::object();
    reply.set("event", event);
    if (!client_id.empty()) {
        reply.set("id", client_id);
    }
    return reply;
}

/// Renders one terminal reply as a protocol event object.
json done_event(const std::string& client_id, const pipeline::synthesis_reply& reply,
                bool include_code)
{
    const pipeline::pipeline_result& result = *reply.result;
    json event = event_header("done", client_id);
    event.set("request", reply.request);
    event.set("name", result.name);
    event.set("status", pipeline::to_string(result.status));
    event.set("code", pipeline::wire_code(result.status));
    event.set("deduplicated", reply.deduplicated);
    event.set("cached", reply.cached);
    if (!result.diagnosis.empty()) {
        event.set("diagnosis", result.diagnosis);
    }
    if (result.status == pipeline::pipeline_status::not_schedulable) {
        event.set("qss_failure", qss::to_string(result.qss_failure));
        event.set("qss_code", qss::wire_code(result.qss_failure));
    }
    event.set("class", pn::to_string(result.klass));
    event.set("places", result.places);
    event.set("transitions", result.transitions);
    event.set("arcs", result.arcs);
    event.set("allocations", result.allocations);
    event.set("cycles", result.cycles);
    event.set("tasks", result.tasks);
    event.set("code_bytes", result.code_bytes);
    event.set("code_lines", result.code_lines);
    event.set("micros", result.timings.total());
    if (include_code && !result.code.empty()) {
        event.set("c", result.code);
    }
    return event;
}

} // namespace

session::session(pipeline::service& service, line_sink sink, session_options options)
    : service_(service), sink_(std::move(sink)), options_(options)
{
}

void session::send_error(std::string_view message)
{
    json event = json::object();
    event.set("event", "error");
    event.set("message", message);
    sink_(event.dump());
}

void session::send_bye()
{
    json event = json::object();
    event.set("event", "bye");
    sink_(event.dump());
}

void session::wait_idle()
{
    std::unique_lock lock(idle_mutex_);
    idle_.wait(lock, [this] { return open_requests_ == 0; });
}

void session::finish_request()
{
    std::lock_guard lock(idle_mutex_);
    if (--open_requests_ == 0) {
        idle_.notify_all();
    }
}

session_verdict session::handle_line(std::string_view line)
{
    // Blank lines are keep-alives, not requests.
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) {
        return session_verdict::keep_open;
    }

    json request;
    try {
        // The parser's default nesting bound (32) guards against deep input.
        request = json::parse(line);
    } catch (const json_error& error) {
        send_error(error.what());
        return session_verdict::keep_open;
    }
    if (!request.is_object()) {
        send_error("request must be a JSON object");
        return session_verdict::keep_open;
    }
    const json* op = request.find("op");
    if (op == nullptr || op->type() != json::kind::string) {
        send_error("request needs a string \"op\" field");
        return session_verdict::keep_open;
    }

    const std::string& name = op->as_string();
    if (name == "synthesize") {
        handle_synthesize(request);
        return session_verdict::keep_open;
    }
    if (name == "explore") {
        handle_explore(request);
        return session_verdict::keep_open;
    }
    const json* id = request.find("id");
    const std::string client_id = id != nullptr ? id->as_string() : std::string();
    if (name == "ping") {
        sink_(event_header("pong", client_id).dump());
        return session_verdict::keep_open;
    }
    if (name == "stats") {
        const pipeline::service::stats_snapshot stats = service_.stats();
        json event = event_header("stats", client_id);
        event.set("submitted", stats.submitted);
        event.set("replied", stats.replied);
        event.set("syntheses", stats.syntheses);
        event.set("inflight_hits", stats.inflight_hits);
        event.set("cache_hits", stats.cache_hits);
        event.set("overloaded", stats.overloaded);
        event.set("parse_failures", stats.parse_failures);
        event.set("queue_depth", service_.queue_depth());
        sink_(event.dump());
        return session_verdict::keep_open;
    }
    if (name == "shutdown") {
        return session_verdict::shutdown;
    }
    send_error("unknown op \"" + name + "\"");
    return session_verdict::keep_open;
}

void session::handle_explore(const json& request)
{
    const json* id = request.find("id");
    const std::string client_id = id != nullptr ? id->as_string() : std::string();
    const json* net_text = request.find("net");
    const json* path = request.find("path");
    const bool has_net = net_text != nullptr && net_text->type() == json::kind::string;
    const bool has_path = path != nullptr && path->type() == json::kind::string;
    if (has_net == has_path) {
        send_error("explore needs exactly one of \"net\" or \"path\"");
        return;
    }
    if (has_path && !options_.allow_paths) {
        send_error("path requests are disabled on this transport");
        return;
    }

    // Client knobs clamp against the server's ceilings — they can only make
    // the run cheaper.  threads and max_bytes come from the server policy
    // untouched: a remote client must not widen the worker pool or the
    // resident-memory budget.  Each double is compared against its ceiling
    // before it is converted: converting an out-of-range double (1e30) to an
    // integer is undefined behaviour, and the ceiling is what applies there.
    pn::reachability_options explore = options_.explore;
    if (const json* max_states = request.find("max_states");
        max_states != nullptr && max_states->as_number() >= 1 &&
        max_states->as_number() < static_cast<double>(explore.max_markings)) {
        explore.max_markings = static_cast<std::size_t>(max_states->as_number());
    }
    if (const json* max_tokens = request.find("max_tokens");
        max_tokens != nullptr && max_tokens->as_number() >= 1 &&
        max_tokens->as_number() < static_cast<double>(explore.max_tokens_per_place)) {
        explore.max_tokens_per_place = static_cast<std::int64_t>(max_tokens->as_number());
    }
    if (const json* reduce = request.find("reduce"); reduce != nullptr) {
        if (reduce->as_string() == "none") {
            explore.reduction = pn::reduction_kind::none;
        } else if (reduce->as_string() == "stubborn") {
            explore.reduction = pn::reduction_kind::deadlock;
        } else {
            send_error("explore \"reduce\" must be \"none\" or \"stubborn\"");
            return;
        }
    }

    // Synchronous on purpose: the reply is a single small event and the
    // budgets above bound the work, so there is nothing to stream and no
    // worker pool to involve.
    try {
        const pn::petri_net net =
            has_path ? pnio::load_net(path->as_string())
                     : pnio::parse_net(net_text->as_string());
        const pn::state_space space = pn::explore_space(net, explore);
        json event = event_header("explored", client_id);
        event.set("states", space.state_count());
        event.set("edges", space.edge_count());
        event.set("truncated", space.truncated());
        event.set("deadlock", pn::find_deadlock(net, space).has_value());
        sink_(event.dump());
    } catch (const std::exception& error) {
        send_error(error.what());
    }
}

void session::handle_synthesize(const json& request)
{
    const json* id = request.find("id");
    const std::string client_id = id != nullptr ? id->as_string() : std::string();
    const json* net = request.find("net");
    const json* path = request.find("path");
    const bool has_net = net != nullptr && net->type() == json::kind::string;
    const bool has_path = path != nullptr && path->type() == json::kind::string;
    if (has_net == has_path) {
        send_error("synthesize needs exactly one of \"net\" or \"path\"");
        return;
    }
    if (has_path && !options_.allow_paths) {
        send_error("path requests are disabled on this transport");
        return;
    }

    const json* name = request.find("name");
    std::string display = name != nullptr ? name->as_string() : std::string();
    pipeline::net_source source =
        has_path ? pipeline::net_source::from_file(path->as_string())
                 : pipeline::net_source::from_text(
                       display.empty() ? (client_id.empty()
                                              ? "net-" + std::to_string(
                                                             ++anonymous_serial_)
                                              : client_id)
                                       : display,
                       net->as_string());
    if (has_path && !display.empty()) {
        source.name = display;
    }

    const bool stream =
        request.find("stream") != nullptr && request.find("stream")->as_bool();

    // The sink and client id outlive the submission: service callbacks run
    // on worker threads after this frame returns.  wait_idle() keeps the
    // session itself alive past the last reply.
    const auto shared_id = std::make_shared<const std::string>(client_id);
    const bool include_code = options_.include_code;
    line_sink sink = sink_;

    // A worker can finish the request before submit() even returns here;
    // callbacks wait on this gate so the "accepted" event always reaches
    // the wire before any stage/done event for the same request.
    const auto announced = std::make_shared<std::promise<void>>();
    const std::shared_future<void> gate = announced->get_future().share();

    {
        std::lock_guard lock(idle_mutex_);
        ++open_requests_;
    }
    pipeline::reply_callback on_reply =
        [this, sink, shared_id, include_code,
         gate](const pipeline::synthesis_reply& reply) {
            gate.wait();
            sink(done_event(*shared_id, reply, include_code).dump());
            finish_request();
        };
    pipeline::service_stage_callback on_stage;
    if (stream) {
        on_stage = [sink, shared_id, gate](pipeline::request_id req,
                                           pipeline::pipeline_stage stage,
                                           const pipeline::pipeline_result& partial) {
            gate.wait();
            json event = event_header("stage", *shared_id);
            event.set("request", req);
            event.set("stage", pipeline::to_string(stage));
            event.set("micros", partial.timings[stage]);
            // Mid-run results hold the default status; only a stage that
            // rejected its net has a meaningful verdict to stream early.
            if (partial.status == pipeline::pipeline_status::not_free_choice ||
                partial.status == pipeline::pipeline_status::not_schedulable) {
                event.set("status", pipeline::to_string(partial.status));
                event.set("code", pipeline::wire_code(partial.status));
            }
            sink(event.dump());
        };
    }

    const pipeline::service::submit_result submitted = service_.submit(
        std::move(source), std::move(on_reply), std::move(on_stage));
    if (submitted.status == pipeline::submit_status::accepted) {
        json event = event_header("accepted", client_id);
        event.set("request", submitted.id);
        sink_(event.dump());
    } else {
        finish_request(); // no reply will come for a rejected submission
        json event = event_header("rejected", client_id);
        event.set("reason", pipeline::to_string(submitted.status));
        sink_(event.dump());
    }
    announced->set_value(); // open the gate: stage/done events may flow now
}

} // namespace fcqss::svc
