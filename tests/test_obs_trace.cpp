// Locks the Chrome trace-event output down as a *format*: the JSON must
// parse (with a real, if minimal, parser — not substring grepping), every
// event must be a complete "X" event with name/ts/dur/pid/tid, span args
// must round-trip, and the events of any one thread must nest properly
// (RAII spans destruct in LIFO order, so two same-thread intervals are
// either disjoint or one contains the other).  A Perfetto load can't be
// asserted in CI, but well-formed nested "X" events are exactly what it
// documents as loadable.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/atm/atm_net.hpp"
#include "obs/obs.hpp"
#include "pipeline/synthesis_pipeline.hpp"

namespace fcqss::obs {
namespace {

// --------------------------------------------------------------------------
// A minimal recursive-descent JSON parser, just enough to validate the
// trace: objects, arrays, strings (with \" escapes), numbers, literals.
// Throws std::runtime_error on malformed input, which fails the test.
// --------------------------------------------------------------------------

struct json_value {
    enum class kind { object, array, string, number, boolean, null };
    kind type = kind::null;
    std::map<std::string, std::shared_ptr<json_value>> members;
    std::vector<std::shared_ptr<json_value>> elements;
    std::string text;
    double number = 0;
    bool truth = false;

    [[nodiscard]] const json_value* find(const std::string& key) const
    {
        const auto it = members.find(key);
        return it == members.end() ? nullptr : it->second.get();
    }
};

class json_parser {
public:
    explicit json_parser(const std::string& text) : text_(text) {}

    std::shared_ptr<json_value> parse()
    {
        std::shared_ptr<json_value> value = parse_value();
        skip_space();
        if (pos_ != text_.size()) {
            fail("trailing bytes after top-level value");
        }
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& why) const
    {
        throw std::runtime_error("json error at byte " + std::to_string(pos_) +
                                 ": " + why);
    }

    void skip_space()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char peek()
    {
        skip_space();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
        }
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c) {
            fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
        }
        ++pos_;
    }

    std::shared_ptr<json_value> parse_value()
    {
        switch (peek()) {
        case '{':
            return parse_object();
        case '[':
            return parse_array();
        case '"':
            return parse_string();
        case 't':
        case 'f':
            return parse_literal();
        case 'n':
            return parse_literal();
        default:
            return parse_number();
        }
    }

    std::shared_ptr<json_value> parse_object()
    {
        auto value = std::make_shared<json_value>();
        value->type = json_value::kind::object;
        expect('{');
        if (peek() == '}') {
            ++pos_;
            return value;
        }
        for (;;) {
            const std::shared_ptr<json_value> key = parse_string();
            expect(':');
            value->members[key->text] = parse_value();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return value;
        }
    }

    std::shared_ptr<json_value> parse_array()
    {
        auto value = std::make_shared<json_value>();
        value->type = json_value::kind::array;
        expect('[');
        if (peek() == ']') {
            ++pos_;
            return value;
        }
        for (;;) {
            value->elements.push_back(parse_value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return value;
        }
    }

    std::shared_ptr<json_value> parse_string()
    {
        auto value = std::make_shared<json_value>();
        value->type = json_value::kind::string;
        expect('"');
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') {
                if (pos_ + 1 >= text_.size()) {
                    fail("dangling escape");
                }
                ++pos_;
            }
            value->text += text_[pos_++];
        }
        if (pos_ >= text_.size()) {
            fail("unterminated string");
        }
        ++pos_; // closing quote
        return value;
    }

    std::shared_ptr<json_value> parse_number()
    {
        const std::size_t begin = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
                text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
        }
        if (pos_ == begin) {
            fail("expected a number");
        }
        auto value = std::make_shared<json_value>();
        value->type = json_value::kind::number;
        value->text = text_.substr(begin, pos_ - begin);
        try {
            value->number = std::stod(value->text);
        } catch (const std::exception&) {
            fail("unparseable number: " + value->text);
        }
        return value;
    }

    std::shared_ptr<json_value> parse_literal()
    {
        auto value = std::make_shared<json_value>();
        for (const char* word : {"true", "false", "null"}) {
            if (text_.compare(pos_, std::char_traits<char>::length(word), word) ==
                0) {
                pos_ += std::char_traits<char>::length(word);
                value->type = word[0] == 'n' ? json_value::kind::null
                                             : json_value::kind::boolean;
                value->truth = word[0] == 't';
                return value;
            }
        }
        fail("unknown literal");
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

// --------------------------------------------------------------------------

struct trace_event {
    std::string name;
    double ts = 0;
    double dur = 0;
    double tid = 0;
    const json_value* args = nullptr;
};

/// Parses chrome_trace_json() and validates the per-event schema.  The
/// parsed tree is kept alive alongside the events because each event's
/// `args` points into it.
struct parsed_trace {
    std::shared_ptr<json_value> root;
    std::vector<trace_event> events;
};

parsed_trace parse_and_validate_trace()
{
    const std::string text = chrome_trace_json();
    json_parser parser(text);
    std::shared_ptr<json_value> root;
    try {
        root = parser.parse();
    } catch (const std::runtime_error& error) {
        ADD_FAILURE() << error.what() << "\n" << text;
        return {};
    }

    EXPECT_EQ(root->type, json_value::kind::object);
    const json_value* events = root->find("traceEvents");
    if (events == nullptr) {
        ADD_FAILURE() << "missing traceEvents array";
        return {};
    }
    EXPECT_EQ(events->type, json_value::kind::array);

    parsed_trace out;
    out.root = root;
    for (const std::shared_ptr<json_value>& element : events->elements) {
        EXPECT_EQ(element->type, json_value::kind::object);
        trace_event event;
        const json_value* name = element->find("name");
        const json_value* ph = element->find("ph");
        const json_value* ts = element->find("ts");
        const json_value* dur = element->find("dur");
        const json_value* pid = element->find("pid");
        const json_value* tid = element->find("tid");
        if (name == nullptr || ph == nullptr || ts == nullptr || dur == nullptr ||
            pid == nullptr || tid == nullptr) {
            ADD_FAILURE() << "event missing a required field (name/ph/ts/dur/"
                             "pid/tid)";
            continue;
        }
        EXPECT_EQ(name->type, json_value::kind::string);
        EXPECT_FALSE(name->text.empty());
        EXPECT_EQ(ph->text, "X") << "only complete events are emitted";
        EXPECT_EQ(ts->type, json_value::kind::number);
        EXPECT_EQ(dur->type, json_value::kind::number);
        EXPECT_GE(ts->number, 0.0) << "ts is relative to the trace epoch";
        EXPECT_GE(dur->number, 0.0);
        event.name = name->text;
        event.ts = ts->number;
        event.dur = dur->number;
        event.tid = tid->number;
        event.args = element->find("args");
        out.events.push_back(std::move(event));
    }
    return out;
}

/// ts/dur are rendered at microsecond resolution with three decimals, so
/// nesting comparisons allow rounding slack of a couple of nanoseconds.
constexpr double eps = 0.002;

bool contains(const trace_event& outer, const trace_event& inner)
{
    return inner.ts >= outer.ts - eps &&
           inner.ts + inner.dur <= outer.ts + outer.dur + eps;
}

bool disjoint(const trace_event& a, const trace_event& b)
{
    return a.ts + a.dur <= b.ts + eps || b.ts + b.dur <= a.ts + eps;
}

class obs_trace_test : public ::testing::Test {
protected:
    void SetUp() override
    {
        set_stats_enabled(false);
        set_tracing_enabled(false);
        reset();
    }

    void TearDown() override
    {
        set_tracing_enabled(false);
        reset();
    }
};

TEST_F(obs_trace_test, empty_trace_is_valid_json)
{
    const parsed_trace trace = parse_and_validate_trace();
    const std::vector<trace_event>& events = trace.events;
    EXPECT_TRUE(events.empty());
}

TEST_F(obs_trace_test, nested_spans_produce_contained_intervals)
{
    set_tracing_enabled(true);
    {
        span outer("test.outer", "nets", 3);
        {
            span inner1("test.inner1");
            inner1.arg("index", 0);
        }
        {
            span inner2("test.inner2");
        }
        outer.arg("ok", 2);
    }
    set_tracing_enabled(false);

    const parsed_trace trace = parse_and_validate_trace();
    const std::vector<trace_event>& events = trace.events;
    ASSERT_EQ(events.size(), 3u);

    const auto find = [&](const std::string& name) -> const trace_event& {
        for (const trace_event& e : events) {
            if (e.name == name) {
                return e;
            }
        }
        ADD_FAILURE() << "span missing from trace: " << name;
        return events.front();
    };
    const trace_event& outer = find("test.outer");
    const trace_event& inner1 = find("test.inner1");
    const trace_event& inner2 = find("test.inner2");

    EXPECT_EQ(outer.tid, inner1.tid);
    EXPECT_EQ(outer.tid, inner2.tid);
    EXPECT_TRUE(contains(outer, inner1));
    EXPECT_TRUE(contains(outer, inner2));
    EXPECT_TRUE(disjoint(inner1, inner2));
    EXPECT_LE(inner1.ts, inner2.ts);

    // Args round-trip: both the constructor arg and the late .arg() call.
    ASSERT_NE(outer.args, nullptr);
    const json_value* nets = outer.args->find("nets");
    const json_value* ok = outer.args->find("ok");
    ASSERT_NE(nets, nullptr);
    ASSERT_NE(ok, nullptr);
    EXPECT_EQ(nets->number, 3.0);
    EXPECT_EQ(ok->number, 2.0);
    ASSERT_NE(inner1.args, nullptr);
    const json_value* index = inner1.args->find("index");
    ASSERT_NE(index, nullptr);
    EXPECT_EQ(index->number, 0.0);
}

TEST_F(obs_trace_test, per_thread_events_are_well_nested)
{
    set_tracing_enabled(true);
    constexpr int threads = 4;
    {
        std::vector<std::jthread> pool;
        pool.reserve(threads);
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([] {
                for (int i = 0; i < 50; ++i) {
                    span outer("test.level", "chunk", i);
                    span inner("test.phase");
                    (void)inner;
                }
            });
        }
    }
    set_tracing_enabled(false);

    const parsed_trace trace = parse_and_validate_trace();
    const std::vector<trace_event>& events = trace.events;
    ASSERT_EQ(events.size(), static_cast<std::size_t>(threads) * 100);
    EXPECT_EQ(trace_dropped_count(), 0u);

    std::map<double, std::vector<const trace_event*>> by_tid;
    for (const trace_event& e : events) {
        by_tid[e.tid].push_back(&e);
    }
    EXPECT_EQ(by_tid.size(), static_cast<std::size_t>(threads));
    for (const auto& [tid, list] : by_tid) {
        for (std::size_t i = 0; i < list.size(); ++i) {
            for (std::size_t j = i + 1; j < list.size(); ++j) {
                const trace_event& a = *list[i];
                const trace_event& b = *list[j];
                EXPECT_TRUE(disjoint(a, b) || contains(a, b) || contains(b, a))
                    << a.name << " [" << a.ts << ", " << a.ts + a.dur << ") vs "
                    << b.name << " [" << b.ts << ", " << b.ts + b.dur
                    << ") on tid " << tid;
            }
        }
    }
}

TEST_F(obs_trace_test, qss_spans_nest_in_the_schedule_stage)
{
    pipeline::pipeline_options options;
    options.generate_code = false;
    const pipeline::synthesis_pipeline pipe(options);
    set_tracing_enabled(true);
    const pipeline::pipeline_result result =
        pipe.run_one(pipeline::net_source::from_net(atm::build_atm_net()));
    set_tracing_enabled(false);
    ASSERT_EQ(result.status, pipeline::pipeline_status::ok);

    const parsed_trace trace = parse_and_validate_trace();
    const auto find = [&](const std::string& name) -> const trace_event* {
        for (const trace_event& e : trace.events) {
            if (e.name == name) {
                return &e;
            }
        }
        ADD_FAILURE() << "span missing from trace: " << name;
        return nullptr;
    };
    const trace_event* stage = find("stage.schedule");
    const trace_event* enumerate = find("qss.enumerate");
    const trace_event* check = find("qss.check");
    ASSERT_TRUE(stage != nullptr && enumerate != nullptr && check != nullptr);
    EXPECT_TRUE(contains(*stage, *enumerate));
    EXPECT_TRUE(contains(*stage, *check));
    EXPECT_TRUE(disjoint(*enumerate, *check));
    EXPECT_LE(enumerate->ts, check->ts);

    // The enumeration span carries the allocation space and the distinct
    // reductions found in it; the check span how many it checked.
    ASSERT_NE(enumerate->args, nullptr);
    ASSERT_NE(enumerate->args->find("allocations"), nullptr);
    ASSERT_NE(enumerate->args->find("reductions"), nullptr);
    EXPECT_EQ(enumerate->args->find("allocations")->number, 4608.0);
    EXPECT_EQ(enumerate->args->find("reductions")->number, 120.0);
    ASSERT_NE(check->args, nullptr);
    ASSERT_NE(check->args->find("reductions"), nullptr);
    EXPECT_EQ(check->args->find("reductions")->number, 120.0);
}

TEST_F(obs_trace_test, trace_survives_writer_thread_exit)
{
    set_tracing_enabled(true);
    {
        std::jthread writer([] {
            span s("test.ephemeral", "value", 42);
            (void)s;
        });
    }
    set_tracing_enabled(false);

    // The writer thread is gone; its ring (and event) must still be readable.
    const parsed_trace trace = parse_and_validate_trace();
    const std::vector<trace_event>& events = trace.events;
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events.front().name, "test.ephemeral");
}

} // namespace
} // namespace fcqss::obs
