#include "codegen/c_ast.hpp"

namespace fcqss::cgen {

stmt make_action(pn::transition_id t)
{
    stmt s;
    s.k = stmt::kind::action;
    s.action_target = t;
    return s;
}

stmt make_counter_add(pn::place_id p, std::int64_t delta)
{
    stmt s;
    s.k = stmt::kind::counter_add;
    s.counter = p;
    s.delta = delta;
    return s;
}

stmt make_if(guard g, block body)
{
    stmt s;
    s.k = stmt::kind::if_guard;
    s.g = std::move(g);
    s.body = std::move(body);
    return s;
}

stmt make_while(guard g, block body)
{
    stmt s;
    s.k = stmt::kind::while_guard;
    s.g = std::move(g);
    s.body = std::move(body);
    return s;
}

stmt make_choice(pn::place_id p, std::vector<pn::transition_id> alternatives,
                 std::vector<block> branches)
{
    stmt s;
    s.k = stmt::kind::choice;
    s.choice_place = p;
    s.choice_alternatives = std::move(alternatives);
    s.branches = std::move(branches);
    return s;
}

stmt make_goto(std::string label)
{
    stmt s;
    s.k = stmt::kind::goto_label;
    s.text = std::move(label);
    return s;
}

stmt make_label(std::string label)
{
    stmt s;
    s.k = stmt::kind::label;
    s.text = std::move(label);
    return s;
}

std::size_t statement_count(const block& b)
{
    std::size_t count = 0;
    for (const stmt& s : b) {
        ++count;
        count += statement_count(s.body);
        for (const block& branch : s.branches) {
            count += statement_count(branch);
        }
    }
    return count;
}

std::size_t statement_count(const generated_program& program)
{
    std::size_t count = 0;
    for (const task_code& task : program.tasks) {
        for (const fragment& f : task.fragments) {
            count += statement_count(f.body);
        }
    }
    return count;
}

} // namespace fcqss::cgen
