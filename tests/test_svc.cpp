// Tests for the service wire layer: the minimal JSON value (parser,
// writer, nesting discipline), the protocol session (request parsing,
// event shapes, error handling, backpressure replies), and the stdio
// transport end to end over real pipes.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "nets/paper_nets.hpp"
#include "pipeline/service.hpp"
#include "pn/builder.hpp"
#include "pnio/writer.hpp"
#include "svc/json.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "test_util.hpp"

namespace fcqss::svc {
namespace {

// -------------------------------------------------------------------- json --

TEST(json, parses_scalars_and_containers)
{
    const json value = json::parse(
        R"({"s":"a\nb","n":-2.5,"i":41,"t":true,"f":false,"z":null,"a":[1,2,3]})");
    ASSERT_TRUE(value.is_object());
    EXPECT_EQ(value.find("s")->as_string(), "a\nb");
    EXPECT_EQ(value.find("n")->as_number(), -2.5);
    EXPECT_EQ(value.find("i")->as_number(), 41);
    EXPECT_TRUE(value.find("t")->as_bool());
    EXPECT_FALSE(value.find("f")->as_bool(true));
    EXPECT_TRUE(value.find("z")->is_null());
    ASSERT_EQ(value.find("a")->items().size(), 3u);
    EXPECT_EQ(value.find("a")->items()[1].as_number(), 2);
    EXPECT_EQ(value.find("missing"), nullptr);
}

TEST(json, dump_round_trips_and_preserves_member_order)
{
    json value = json::object();
    value.set("zeta", 1);
    value.set("alpha", "two");
    value.set("nested", json::parse(R"([true,null,"x"])"));
    const std::string text = value.dump();
    // Insertion order survives, no sorting.
    EXPECT_EQ(text, R"({"zeta":1,"alpha":"two","nested":[true,null,"x"]})");
    EXPECT_EQ(json::parse(text).dump(), text);
}

TEST(json, escapes_control_characters_and_unicode)
{
    json value = json::object();
    value.set("k", std::string("a\"b\\c\nd\te\x01"));
    const std::string text = value.dump();
    EXPECT_EQ(text, "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}");
    EXPECT_EQ(json::parse(text).find("k")->as_string(),
              std::string("a\"b\\c\nd\te\x01"));
    // \u escapes decode to UTF-8.
    EXPECT_EQ(json::parse(R"("Aé€")").as_string(), "Aé€");
}

TEST(json, rejects_malformed_input)
{
    EXPECT_THROW((void)json::parse(""), json_error);
    EXPECT_THROW((void)json::parse("{"), json_error);
    EXPECT_THROW((void)json::parse("{\"a\":}"), json_error);
    EXPECT_THROW((void)json::parse("[1,]"), json_error);
    EXPECT_THROW((void)json::parse("tru"), json_error);
    EXPECT_THROW((void)json::parse("\"unterminated"), json_error);
    EXPECT_THROW((void)json::parse("\"bad\\q\""), json_error);
    EXPECT_THROW((void)json::parse("\"ctrl\x01\""), json_error);
    EXPECT_THROW((void)json::parse("1 2"), json_error); // trailing value
    EXPECT_THROW((void)json::parse("{} x"), json_error);
    EXPECT_THROW((void)json::parse("nan"), json_error);
    EXPECT_THROW((void)json::parse("-"), json_error);
}

TEST(json, nesting_depth_is_bounded)
{
    std::string deep;
    for (int i = 0; i < 64; ++i) {
        deep += "[";
    }
    deep += "1";
    for (int i = 0; i < 64; ++i) {
        deep += "]";
    }
    EXPECT_THROW((void)json::parse(deep, 32), json_error);
    EXPECT_NO_THROW((void)json::parse(deep, 100));
}

TEST(json, duplicate_keys_keep_the_first_binding)
{
    const json value = json::parse(R"({"op":"ping","op":"shutdown"})");
    EXPECT_EQ(value.find("op")->as_string(), "ping");
}

// ---------------------------------------------------------------- session --

/// Runs one session over an in-memory sink; lines() parses every emitted
/// line back into JSON for structural assertions.
struct session_harness {
    explicit session_harness(pipeline::service_options options = make_options(),
                             session_options session_opts = {})
        : service(options), sess(service,
                                 [this](const std::string& line) {
                                     std::lock_guard lock(mutex);
                                     raw.push_back(line);
                                 },
                                 session_opts)
    {
    }

    static pipeline::service_options make_options()
    {
        pipeline::service_options options;
        options.jobs = 1;
        return options;
    }

    std::vector<json> lines()
    {
        std::lock_guard lock(mutex);
        std::vector<json> parsed;
        parsed.reserve(raw.size());
        for (const std::string& line : raw) {
            parsed.push_back(json::parse(line));
        }
        return parsed;
    }

    /// Events with the given "event" value, in emission order.
    std::vector<json> events(std::string_view kind)
    {
        std::vector<json> matching;
        for (json& line : lines()) {
            if (line.find("event") != nullptr &&
                line.find("event")->as_string() == kind) {
                matching.push_back(std::move(line));
            }
        }
        return matching;
    }

    std::mutex mutex;
    std::vector<std::string> raw;
    pipeline::service service;
    session sess;
};

TEST(session, synthesize_inline_net_produces_accepted_then_done)
{
    session_harness h;
    json request = json::object();
    request.set("op", "synthesize");
    request.set("id", "r1");
    request.set("net", pnio::write_net(nets::figure_3a()));
    EXPECT_EQ(h.sess.handle_line(request.dump()), session_verdict::keep_open);
    h.service.drain();

    const auto accepted = h.events("accepted");
    ASSERT_EQ(accepted.size(), 1u);
    EXPECT_EQ(accepted[0].find("id")->as_string(), "r1");

    const auto done = h.events("done");
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].find("id")->as_string(), "r1");
    EXPECT_EQ(done[0].find("status")->as_string(), "ok");
    EXPECT_EQ(done[0].find("code")->as_number(), 0);
    EXPECT_FALSE(done[0].find("deduplicated")->as_bool(true));
    ASSERT_NE(done[0].find("c"), nullptr);
    EXPECT_NE(done[0].find("c")->as_string().find("void"), std::string::npos);

    // The accepted event precedes the done event on the wire.
    const auto all = h.lines();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].find("event")->as_string(), "accepted");
    EXPECT_EQ(all[1].find("event")->as_string(), "done");
}

TEST(session, streaming_emits_stage_events_between_accepted_and_done)
{
    session_harness h;
    json request = json::object();
    request.set("op", "synthesize");
    request.set("id", "s");
    request.set("net", pnio::write_net(nets::figure_3a()));
    request.set("stream", true);
    h.sess.handle_line(request.dump());
    h.service.drain();

    const auto all = h.lines();
    ASSERT_GE(all.size(), 3u);
    EXPECT_EQ(all.front().find("event")->as_string(), "accepted");
    EXPECT_EQ(all.back().find("event")->as_string(), "done");
    const auto stages = h.events("stage");
    ASSERT_EQ(stages.size(), 6u); // parse..codegen, in order
    EXPECT_EQ(stages.front().find("stage")->as_string(), "parse");
    EXPECT_EQ(stages.back().find("stage")->as_string(), "codegen");
}

TEST(session, unschedulable_net_reports_qss_failure_on_the_wire)
{
    session_harness h;
    json request = json::object();
    request.set("op", "synthesize");
    request.set("id", "u");
    request.set("net", pnio::write_net(nets::figure_7()));
    h.sess.handle_line(request.dump());
    h.service.drain();

    const auto done = h.events("done");
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].find("status")->as_string(), "not-schedulable");
    EXPECT_EQ(done[0].find("code")->as_number(), 7);
    ASSERT_NE(done[0].find("qss_failure"), nullptr);
    EXPECT_EQ(done[0].find("qss_failure")->as_string(), "inconsistent");
    EXPECT_EQ(done[0].find("qss_code")->as_number(), 1);
    ASSERT_NE(done[0].find("diagnosis"), nullptr);
}

TEST(session, malformed_lines_produce_error_events_and_keep_the_stream)
{
    session_harness h;
    EXPECT_EQ(h.sess.handle_line("this is not json"), session_verdict::keep_open);
    EXPECT_EQ(h.sess.handle_line("[1,2,3]"), session_verdict::keep_open);
    EXPECT_EQ(h.sess.handle_line(R"({"no_op":1})"), session_verdict::keep_open);
    EXPECT_EQ(h.sess.handle_line(R"({"op":"frobnicate"})"),
              session_verdict::keep_open);
    EXPECT_EQ(h.sess.handle_line(R"({"op":"synthesize","id":"x"})"),
              session_verdict::keep_open); // neither net nor path
    EXPECT_EQ(h.sess.handle_line(
                  R"({"op":"synthesize","net":"a","path":"b"})"),
              session_verdict::keep_open); // both
    EXPECT_EQ(h.events("error").size(), 6u);
    EXPECT_EQ(h.service.stats().submitted, 0u);

    // The stream still works afterwards.
    EXPECT_EQ(h.sess.handle_line(R"({"op":"ping","id":"alive"})"),
              session_verdict::keep_open);
    const auto pong = h.events("pong");
    ASSERT_EQ(pong.size(), 1u);
    EXPECT_EQ(pong[0].find("id")->as_string(), "alive");
}

TEST(session, request_nesting_is_bounded_at_32)
{
    // A ping whose "pad" field holds `levels` nested arrays: with the
    // request object at depth 0, the innermost value sits at levels + 1.
    const auto padded_ping = [](std::size_t levels) {
        return R"({"op":"ping","pad":)" + std::string(levels, '[') + "1" +
               std::string(levels, ']') + "}";
    };
    session_harness h;
    EXPECT_EQ(h.sess.handle_line(padded_ping(32)), session_verdict::keep_open);
    EXPECT_EQ(h.events("error").size(), 1u);
    EXPECT_TRUE(h.events("pong").empty());
    EXPECT_EQ(h.sess.handle_line(padded_ping(31)), session_verdict::keep_open);
    EXPECT_EQ(h.events("error").size(), 1u);
    EXPECT_EQ(h.events("pong").size(), 1u);
}

TEST(session, blank_lines_are_ignored)
{
    session_harness h;
    EXPECT_EQ(h.sess.handle_line(""), session_verdict::keep_open);
    EXPECT_EQ(h.sess.handle_line("   \t\r"), session_verdict::keep_open);
    EXPECT_TRUE(h.lines().empty());
}

TEST(session, paths_can_be_disabled_per_transport)
{
    session_options no_paths;
    no_paths.allow_paths = false;
    session_harness h(session_harness::make_options(), no_paths);
    h.sess.handle_line(R"({"op":"synthesize","id":"p","path":"/etc/hostname"})");
    EXPECT_EQ(h.events("error").size(), 1u);
    EXPECT_EQ(h.service.stats().submitted, 0u);
}

TEST(session, stats_and_shutdown)
{
    session_harness h;
    json request = json::object();
    request.set("op", "synthesize");
    request.set("net", pnio::write_net(nets::figure_3a()));
    h.sess.handle_line(request.dump());
    h.service.drain();

    EXPECT_EQ(h.sess.handle_line(R"({"op":"stats"})"), session_verdict::keep_open);
    const auto stats = h.events("stats");
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].find("submitted")->as_number(), 1);
    EXPECT_EQ(stats[0].find("syntheses")->as_number(), 1);

    EXPECT_EQ(h.sess.handle_line(R"({"op":"shutdown"})"), session_verdict::shutdown);
    h.sess.send_bye();
    EXPECT_EQ(h.events("bye").size(), 1u);
}

TEST(session, duplicate_nets_are_flagged_on_the_wire)
{
    session_harness h;
    const std::string net = pnio::write_net(nets::figure_3a());
    for (const char* id : {"a", "b"}) {
        json request = json::object();
        request.set("op", "synthesize");
        request.set("id", id);
        request.set("net", net);
        h.sess.handle_line(request.dump());
    }
    // jobs=1 runs the queue FIFO: the first request synthesizes, the
    // second is a dedupe hit by the time its turn comes.
    h.service.drain();
    const auto done = h.events("done");
    ASSERT_EQ(done.size(), 2u);
    EXPECT_FALSE(done[0].find("deduplicated")->as_bool(true));
    EXPECT_TRUE(done[1].find("deduplicated")->as_bool(false));
    EXPECT_TRUE(done[1].find("cached")->as_bool(false));
    EXPECT_EQ(h.service.stats().syntheses, 1u);
}

// ------------------------------------------------------------ stdio serve --

// End-to-end over real pipes: a JSONL batch with a duplicate net and a
// malformed request, answered and drained through serve_stdio.
/// Sends one explore request for `net` with the given extra fields and
/// returns the single reply.
json explore_net(session_harness& h, const pn::petri_net& net,
                 const std::vector<std::pair<const char*, json>>& fields)
{
    json request = json::object();
    request.set("op", "explore");
    request.set("net", pnio::write_net(net));
    for (const auto& [key, value] : fields) {
        request.set(key, value);
    }
    const std::size_t before = h.lines().size();
    EXPECT_EQ(h.sess.handle_line(request.dump()), session_verdict::keep_open);
    const std::vector<json> lines = h.lines();
    EXPECT_EQ(lines.size(), before + 1);
    return lines.back();
}

/// explore_net for an unbounded counter net: one source transition feeding
/// one place.
json explore_counter(session_harness& h,
                     const std::vector<std::pair<const char*, json>>& fields)
{
    pn::net_builder builder("counter");
    const pn::place_id place = builder.add_place("p");
    const pn::transition_id source = builder.add_transition("t");
    builder.add_arc(source, place);
    return explore_net(h, std::move(builder).build(), fields);
}

TEST(session, explore_budgets_beyond_the_ceiling_get_the_ceiling)
{
    // The server ceiling (100,000 states by default) applies to any larger
    // request, including doubles far outside every integer type.
    session_harness h;
    for (const double huge : {1e19, 1e30, 1e300}) {
        const json reply = explore_counter(h, {{"max_states", huge}});
        ASSERT_EQ(reply.find("event")->as_string(), "explored") << huge;
        EXPECT_EQ(reply.find("states")->as_number(), 100000) << huge;
        EXPECT_TRUE(reply.find("truncated")->as_bool(false)) << huge;
    }
    // An out-of-range token cap clamps to the ceiling too, so the state
    // budget is what stops the run.
    const json reply = explore_counter(h, {{"max_states", 1000}, {"max_tokens", 1e30}});
    ASSERT_EQ(reply.find("event")->as_string(), "explored");
    EXPECT_EQ(reply.find("states")->as_number(), 1000);
}

TEST(session, explore_budgets_below_the_ceiling_tighten_the_run)
{
    session_harness h;
    EXPECT_EQ(explore_counter(h, {{"max_states", 250}}).find("states")->as_number(), 250);
    // A token cap of 40 keeps the counter at 0..40: 41 states, truncated by
    // the cap rather than by the state budget.
    const json capped = explore_counter(h, {{"max_tokens", 40}});
    EXPECT_EQ(capped.find("states")->as_number(), 41);
    EXPECT_TRUE(capped.find("truncated")->as_bool(false));
    // Values below 1 are ignored, as before.
    EXPECT_EQ(explore_counter(h, {{"max_states", 0.5}, {"max_tokens", 40}})
                  .find("states")
                  ->as_number(),
              41);
}

TEST(session, explore_ignores_an_order_field)
{
    // The explore op reads no "order" field: like any unknown field it is
    // ignored, so a request naming "unordered" — at a binding state budget,
    // on the parallel engine — gets exactly the reply of the same request
    // without it, and no "fallback" member.
    session_options opts;
    opts.explore.threads = 4;
    session_harness h(session_harness::make_options(), opts);
    const json plain = explore_counter(h, {{"max_states", 500}});
    const json with_order =
        explore_counter(h, {{"max_states", 500}, {"order", "unordered"}});
    ASSERT_EQ(plain.find("event")->as_string(), "explored");
    EXPECT_EQ(plain.find("states")->as_number(), 500);
    EXPECT_TRUE(plain.find("truncated")->as_bool(false));
    EXPECT_EQ(with_order.dump(), plain.dump());
    EXPECT_EQ(with_order.find("fallback"), nullptr);
}

TEST(session, explore_reduce_spellings_pick_the_reduction)
{
    // Three toggles beside a four-place fuse: 48 states and 184 edges in
    // full; the deadlock reduction expands one toggle cycle (2 states,
    // 2 edges).  Any other spelling, including that of the deleted
    // liveness-preserving mode, is an error event on a session that stays
    // open (explore_net checks keep_open).
    session_harness h;
    const pn::petri_net net =
        testutil::counter_net("fuse_beside_toggles", 0, 0, 3, 4, 0, 1);
    const struct {
        const char* reduce;
        double states;
        double edges;
    } cases[] = {{"none", 48, 184}, {"stubborn", 2, 2}};
    for (const auto& c : cases) {
        const json reply = explore_net(h, net, {{"reduce", c.reduce}});
        ASSERT_EQ(reply.find("event")->as_string(), "explored") << c.reduce;
        EXPECT_EQ(reply.find("states")->as_number(), c.states) << c.reduce;
        EXPECT_EQ(reply.find("edges")->as_number(), c.edges) << c.reduce;
        EXPECT_FALSE(reply.find("truncated")->as_bool(true)) << c.reduce;
    }
    for (const char* rejected : {"stubborn-ltlx", "bogus"}) {
        const json reply = explore_net(h, net, {{"reduce", rejected}});
        ASSERT_EQ(reply.find("event")->as_string(), "error") << rejected;
        EXPECT_EQ(reply.find("message")->as_string(),
                  "explore \"reduce\" must be \"none\" or \"stubborn\"")
            << rejected;
    }
    EXPECT_EQ(h.events("explored").size(), 2u);
}

TEST(serve_stdio, answers_a_jsonl_batch_and_drains_cleanly)
{
    int to_server[2];
    int from_server[2];
    ASSERT_EQ(pipe(to_server), 0);
    ASSERT_EQ(pipe(from_server), 0);

    pipeline::service_options options;
    options.jobs = 2;
    pipeline::service service(options);
    server_options server;
    int exit_code = -1;
    std::thread daemon([&] {
        exit_code = serve_stdio(service, to_server[0], from_server[1], server);
        close(from_server[1]); // EOF for the reader below
    });

    const std::string net = pnio::write_net(nets::figure_3a());
    std::string batch;
    json first = json::object();
    first.set("op", "synthesize");
    first.set("id", "n1");
    first.set("net", net);
    batch += first.dump() + "\n";
    json dup = json::object();
    dup.set("op", "synthesize");
    dup.set("id", "n2");
    dup.set("net", net); // duplicate of n1
    batch += dup.dump() + "\n";
    batch += "{\"op\":\"synthesize\"}\n"; // malformed: no net/path
    batch += "not json at all\n";
    batch += "{\"op\":\"shutdown\"}\n";
    ASSERT_EQ(write(to_server[1], batch.data(), batch.size()),
              static_cast<ssize_t>(batch.size()));
    close(to_server[1]);

    std::string output;
    char chunk[4096];
    ssize_t n = 0;
    while ((n = read(from_server[0], chunk, sizeof chunk)) > 0) {
        output.append(chunk, static_cast<std::size_t>(n));
    }
    daemon.join();
    close(to_server[0]);
    close(from_server[0]);

    EXPECT_EQ(exit_code, 0);

    std::vector<json> events;
    std::size_t start = 0;
    while (start < output.size()) {
        const std::size_t end = output.find('\n', start);
        ASSERT_NE(end, std::string::npos); // every event is newline-terminated
        events.push_back(json::parse(output.substr(start, end - start)));
        start = end + 1;
    }

    std::size_t done = 0;
    std::size_t errors = 0;
    std::size_t byes = 0;
    bool saw_dedupe = false;
    for (const json& event : events) {
        const std::string& kind = event.find("event")->as_string();
        if (kind == "done") {
            ++done;
            EXPECT_EQ(event.find("status")->as_string(), "ok");
            saw_dedupe = saw_dedupe || event.find("deduplicated")->as_bool();
        } else if (kind == "error") {
            ++errors;
        } else if (kind == "bye") {
            ++byes;
        }
    }
    EXPECT_EQ(done, 2u);    // both synthesize requests replied
    EXPECT_EQ(errors, 2u);  // both malformed lines reported
    EXPECT_EQ(byes, 1u);    // shutdown acknowledged after the drain
    EXPECT_TRUE(saw_dedupe);
    EXPECT_EQ(events.back().find("event")->as_string(), "bye");
    EXPECT_EQ(service.stats().syntheses, 1u); // the duplicate was deduped
}

} // namespace
} // namespace fcqss::svc
