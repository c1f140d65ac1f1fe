// Unit tests for code generation: the AST helpers, the structure of the
// synthesized code for the paper's Sec. 4 example (Fig. 4), the C emitter
// and the interpreter.
#include <gtest/gtest.h>

#include "base/error.hpp"
#include "base/strings.hpp"
#include "codegen/c_ast.hpp"
#include "codegen/c_emitter.hpp"
#include "codegen/interpreter.hpp"
#include "codegen/task_codegen.hpp"
#include "nets/paper_nets.hpp"
#include "qss/scheduler.hpp"
#include "qss/task_partition.hpp"

namespace fcqss::cgen {
namespace {

generated_program program_for(const pn::petri_net& net)
{
    const qss::qss_result result = qss::quasi_static_schedule(net);
    EXPECT_TRUE(result.schedulable);
    const qss::task_partition partition = qss::partition_tasks(net, result);
    return generate_program(net, result, partition);
}

TEST(c_ast, statement_count)
{
    block body;
    body.push_back(make_action(pn::transition_id{0}));
    block inner;
    inner.push_back(make_counter_add(pn::place_id{0}, 1));
    body.push_back(make_while({}, std::move(inner)));
    EXPECT_EQ(statement_count(body), 3u);
}

TEST(fig4, program_shape_matches_paper_listing)
{
    // The paper's Sec. 4 code for Fig. 4:
    //   while(true) { t1;
    //     if (p1) { t2; count(p2)++; if (count(p2)==2) { t4; count(p2)-=2; } }
    //     else    { t3; count(p3)+=2; while (count(p3)>=1) { t5; count(p3)--; } } }
    const pn::petri_net net = nets::figure_4();
    const generated_program program = program_for(net);

    ASSERT_EQ(program.tasks.size(), 1u);
    ASSERT_EQ(program.tasks.front().fragments.size(), 1u);
    const block& body = program.tasks.front().fragments.front().body;

    // Fragment: action_t1 then the choice on p1 (counter for p1 elided).
    ASSERT_GE(body.size(), 2u);
    EXPECT_EQ(body[0].k, stmt::kind::action);
    EXPECT_EQ(net.transition_name(body[0].action_target), "t1");
    const stmt& choice = body[1];
    ASSERT_EQ(choice.k, stmt::kind::choice);
    EXPECT_EQ(net.place_name(choice.choice_place), "p1");
    ASSERT_EQ(choice.branches.size(), 2u);

    // Branch 0 (t2): count(p2) += 1; if (count(p2) >= 2) { -=2; t4; }.
    const block& b0 = choice.branches[0];
    ASSERT_GE(b0.size(), 3u);
    EXPECT_EQ(b0[0].k, stmt::kind::action); // t2
    EXPECT_EQ(b0[1].k, stmt::kind::counter_add);
    EXPECT_EQ(b0[1].delta, 1);
    EXPECT_EQ(b0[2].k, stmt::kind::if_guard); // fires every second activation
    ASSERT_EQ(b0[2].g.tests.size(), 1u);
    EXPECT_EQ(b0[2].g.tests.front().at_least, 2);

    // Branch 1 (t3): count(p3) += 2; while (count(p3) >= 1) { -=1; t5; }.
    const block& b1 = choice.branches[1];
    ASSERT_GE(b1.size(), 3u);
    EXPECT_EQ(b1[0].k, stmt::kind::action); // t3
    EXPECT_EQ(b1[1].k, stmt::kind::counter_add);
    EXPECT_EQ(b1[1].delta, 2);
    EXPECT_EQ(b1[2].k, stmt::kind::while_guard);
    ASSERT_EQ(b1[2].g.tests.size(), 1u);
    EXPECT_EQ(b1[2].g.tests.front().at_least, 1);

    // Exactly two counters: p2 and p3 (p1 is elided as in the listing).
    ASSERT_EQ(program.counters.size(), 2u);
    EXPECT_EQ(program.counters[0].name, "count_p2");
    EXPECT_EQ(program.counters[1].name, "count_p3");
}

TEST(fig4, emitted_c_contains_paper_patterns)
{
    const std::string code = emit_c(program_for(nets::figure_4()));
    EXPECT_NE(code.find("action_t1();"), std::string::npos);
    EXPECT_NE(code.find("choice_p1()"), std::string::npos);
    EXPECT_NE(code.find("count_p2 += 1;"), std::string::npos);
    EXPECT_NE(code.find("if (count_p2 >= 2) {"), std::string::npos);
    EXPECT_NE(code.find("count_p3 += 2;"), std::string::npos);
    EXPECT_NE(code.find("while (count_p3 >= 1) {"), std::string::npos);
    // Hooks declared extern by default.
    EXPECT_NE(code.find("extern void action_t4(void);"), std::string::npos);
    EXPECT_NE(code.find("extern int choice_p1(void);"), std::string::npos);
}

TEST(fig4, interpreter_reproduces_published_cycles)
{
    const pn::petri_net net = nets::figure_4();
    const generated_program program = program_for(net);
    program_instance instance(program);
    const pn::place_id p1 = net.find_place("p1");

    std::vector<std::string> fired;
    const action_observer record = [&](pn::transition_id t) {
        fired.push_back(net.transition_name(t));
    };

    // Two activations resolving t2 then t2: the paper's first cycle
    // t1 t2 t1 t2 t4 (t4 fires on the second pass when the counter hits 2).
    const choice_oracle always_t2 = [&](pn::place_id) { return 0; };
    instance.run_source(net.find_transition("t1"), always_t2, record);
    instance.run_source(net.find_transition("t1"), always_t2, record);
    EXPECT_EQ(fired, (std::vector<std::string>{"t1", "t2", "t1", "t2", "t4"}));
    EXPECT_EQ(instance.counter(net.find_place("p2")), 0);

    // One activation resolving t3: the second cycle t1 t3 t5 t5.
    fired.clear();
    instance.reset();
    const choice_oracle always_t3 = [&](pn::place_id) { return 1; };
    instance.run_source(net.find_transition("t1"), always_t3, record);
    EXPECT_EQ(fired, (std::vector<std::string>{"t1", "t3", "t5", "t5"}));
    (void)p1;
}

TEST(fig4, interleaved_choices_keep_counters_consistent)
{
    // The paper's point about Fig. 4: if the adversary alternates, one token
    // may wait in p2 across activations; as soon as a second arrives t4
    // consumes both.
    const pn::petri_net net = nets::figure_4();
    const generated_program program = program_for(net);
    program_instance instance(program);

    int calls = 0;
    const choice_oracle alternate = [&](pn::place_id) { return calls++ % 2; };
    std::vector<std::string> fired;
    const action_observer record = [&](pn::transition_id t) {
        fired.push_back(net.transition_name(t));
    };
    const pn::transition_id t1 = net.find_transition("t1");
    instance.run_source(t1, alternate, record); // t2 path: one token waits
    EXPECT_EQ(instance.counter(net.find_place("p2")), 1);
    instance.run_source(t1, alternate, record); // t3 path
    EXPECT_EQ(instance.counter(net.find_place("p2")), 1);
    instance.run_source(t1, alternate, record); // t2 path again: t4 fires
    EXPECT_EQ(instance.counter(net.find_place("p2")), 0);
    EXPECT_EQ(fired, (std::vector<std::string>{"t1", "t2", "t1", "t3", "t5", "t5", "t1",
                                               "t2", "t4"}));
}

TEST(fig5, join_and_merge_structure)
{
    const pn::petri_net net = nets::figure_5();
    const generated_program program = program_for(net);
    // One task, two fragments (sources t1 and t8).
    ASSERT_EQ(program.tasks.size(), 1u);
    ASSERT_EQ(program.tasks.front().fragments.size(), 2u);

    program_instance instance(program);
    std::vector<std::string> fired;
    const action_observer record = [&](pn::transition_id t) {
        fired.push_back(net.transition_name(t));
    };
    const choice_oracle always_t2 = [&](pn::place_id) { return 0; };

    // One t1 activation down the t2 branch: t2's two tokens drive t4 twice,
    // t4's four tokens drive t6 four times.
    instance.run_source(net.find_transition("t1"), always_t2, record);
    EXPECT_EQ(fired, (std::vector<std::string>{"t1", "t2", "t4", "t6", "t6", "t4", "t6",
                                               "t6"}));

    // One t8 activation: p7 -> t9 -> p4 -> t6.
    fired.clear();
    instance.run_source(net.find_transition("t8"), always_t2, record);
    EXPECT_EQ(fired, (std::vector<std::string>{"t8", "t9", "t6"}));
}

TEST(emitter, default_hooks_make_standalone_program)
{
    emitter_options options;
    options.emit_default_hooks = true;
    options.demo_rounds = 2;
    const std::string code = emit_c(program_for(nets::figure_4()), options);
    EXPECT_NE(code.find("#include <stdio.h>"), std::string::npos);
    EXPECT_NE(code.find("static void action_t1(void)"), std::string::npos);
    EXPECT_NE(code.find("int main(void)"), std::string::npos);
    EXPECT_EQ(code.find("extern"), std::string::npos);
}

TEST(emitter, line_count_metric)
{
    const generated_program program = program_for(nets::figure_4());
    EXPECT_EQ(emitted_line_count(program), count_nonblank_lines(emit_c(program)));
    EXPECT_GT(emitted_line_count(program), 10);
}

TEST(interpreter, guards_against_misuse)
{
    const generated_program program = program_for(nets::figure_4());
    program_instance instance(program);
    EXPECT_THROW((void)instance.run_fragment("nope", nullptr), error);
    // Fig. 4 queries a choice: running without an oracle must throw.
    EXPECT_THROW(
        (void)instance.run_source(nets::figure_4().find_transition("t1"), nullptr),
        error);

    const choice_oracle bad = [](pn::place_id) { return 99; };
    EXPECT_THROW(
        (void)instance.run_source(nets::figure_4().find_transition("t1"), bad), error);
}

TEST(interpreter, step_limit_stops_runaway)
{
    const generated_program program = program_for(nets::figure_4());
    program_instance instance(program);
    instance.set_step_limit(2);
    const choice_oracle any = [](pn::place_id) { return 0; };
    EXPECT_THROW((void)instance.run_source(nets::figure_4().find_transition("t1"), any),
                 error);
}

TEST(interpreter, run_stats_accounting)
{
    const pn::petri_net net = nets::figure_4();
    const generated_program program = program_for(net);
    program_instance instance(program);
    const choice_oracle always_t3 = [](pn::place_id) { return 1; };
    const run_stats stats = instance.run_source(net.find_transition("t1"), always_t3);
    EXPECT_EQ(stats.actions, 4);       // t1 t3 t5 t5
    EXPECT_EQ(stats.choice_queries, 1);
    EXPECT_GT(stats.counter_updates, 0);
    EXPECT_GT(stats.guard_evaluations, 0);
    EXPECT_GT(stats.instructions, stats.actions);
}

TEST(interpreter, fragment_names_and_reset)
{
    const generated_program program = program_for(nets::figure_5());
    program_instance instance(program);
    const auto names = instance.fragment_names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "task_t1_on_t1");
    EXPECT_EQ(names[1], "task_t1_on_t8");
}

TEST(codegen, requires_schedulable_input)
{
    const pn::petri_net net = nets::figure_3b();
    const qss::qss_result result = qss::quasi_static_schedule(net);
    qss::task_partition empty;
    EXPECT_THROW((void)generate_program(net, result, empty), domain_error);
}

} // namespace
} // namespace fcqss::cgen
