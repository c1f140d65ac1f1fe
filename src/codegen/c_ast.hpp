// fcqss — codegen/c_ast.hpp
// The abstract syntax of the generated C programs (Sec. 4).  The statement
// language is deliberately small — exactly what the paper's Task routine
// emits: transition action calls, counting-variable updates, if/while tests
// on counters, if-then-else over choice resolutions, and goto/label for
// merge sharing.  Guard conditions are conjunctions of `counter >= k`,
// which is all the synthesis ever needs.
#ifndef FCQSS_CODEGEN_C_AST_HPP
#define FCQSS_CODEGEN_C_AST_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "pn/petri_net.hpp"

namespace fcqss::cgen {

/// One conjunct of a guard: counter(place) >= at_least.
struct counter_test {
    pn::place_id place;
    std::int64_t at_least = 1;
};

/// A guard: conjunction of counter tests (empty = always true).
struct guard {
    std::vector<counter_test> tests;
};

struct stmt;
/// A statement sequence.
using block = std::vector<stmt>;

/// One generated statement.
struct stmt {
    enum class kind {
        /// action_<transition>(); — the user-supplied computation.
        action,
        /// count_<place> += delta;
        counter_add,
        /// if (guard) { body }
        if_guard,
        /// while (guard) { body }
        while_guard,
        /// if (choice_<place>() == 0) {...} else if ... — data-dependent
        /// control; branch i corresponds to alternatives[i].
        choice,
        /// goto L; — merge-place code sharing (paper's "already visited").
        goto_label,
        /// L: — target of a goto.
        label,
        /// /* text */
        comment,
    };

    kind k = kind::comment;
    pn::transition_id action_target;           // action
    pn::place_id counter;                      // counter_add
    std::int64_t delta = 0;                    // counter_add
    guard g;                                   // if_guard / while_guard
    block body;                                // if_guard / while_guard
    pn::place_id choice_place;                 // choice
    std::vector<pn::transition_id> choice_alternatives; // choice, branch order
    std::vector<block> branches;               // choice
    std::string text;                          // label / goto_label / comment
};

// Convenience constructors (keep call sites readable).
[[nodiscard]] stmt make_action(pn::transition_id t);
[[nodiscard]] stmt make_counter_add(pn::place_id p, std::int64_t delta);
[[nodiscard]] stmt make_if(guard g, block body);
[[nodiscard]] stmt make_while(guard g, block body);
[[nodiscard]] stmt make_choice(pn::place_id p,
                               std::vector<pn::transition_id> alternatives,
                               std::vector<block> branches);
[[nodiscard]] stmt make_goto(std::string label);
[[nodiscard]] stmt make_label(std::string label);

/// A persistent counting variable: static long count_<place> = init;
struct counter_decl {
    pn::place_id place;
    std::string name;
    std::int64_t initial = 0;
    /// Peak token count this counter reaches while executing the valid
    /// schedule (-1 when not computed).  Emitted as an annotation so the
    /// integrator can size memory; see qss::schedule_buffer_bounds.
    std::int64_t peak_bound = -1;
};

/// One entry fragment of a task: the code run when `source` fires (one
/// activation = one occurrence of the input event).
struct fragment {
    pn::transition_id source;
    std::string function_name;
    block body;
};

/// One synthesized task: fragments for each of its independent inputs.
struct task_code {
    std::string name;
    std::vector<fragment> fragments;
};

/// A complete generated program.
struct generated_program {
    std::string name;
    std::vector<counter_decl> counters;
    std::vector<task_code> tasks;
    /// Names used for extern hooks, indexed by original net ids.
    std::vector<std::string> action_names;     // by transition index
    std::vector<std::string> choice_names;     // by place index ("" when none)
    std::vector<int> choice_arity;             // by place index (0 when none)
};

/// Statement count of a block, recursively (code-size metric).
[[nodiscard]] std::size_t statement_count(const block& b);
[[nodiscard]] std::size_t statement_count(const generated_program& program);

} // namespace fcqss::cgen

#endif // FCQSS_CODEGEN_C_AST_HPP
