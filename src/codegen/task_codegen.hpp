// fcqss — codegen/task_codegen.hpp
// Synthesis of task code from a valid schedule (the paper's Sec. 4 Schedule/
// Task algorithm).  Each task gets one fragment per independent input; a
// fragment is the reaction to ONE firing of that input, derived by walking
// the net downstream of the source:
//
//  * a data-dependent choice place becomes if-then-else over the runtime
//    choice hook (one branch per alternative, exactly the branches the valid
//    schedule proves bounded);
//  * a multirate edge (produce weight != consume weight) becomes a counting
//    variable plus an `if (count >= w)` test when the consumer fires less
//    often than the producer, or a `while (count >= w)` loop when it fires
//    more often — the paper's f(t_i) vs f(t_{i-1}) comparison expressed
//    edge-locally;
//  * a join waits for all of its counters (conjunction guard);
//  * a transition reached twice (merge place downstream of both branches)
//    is emitted once with a label and reached by goto the second time.
//
// The outer "while(true)" of the paper's listing is the RTOS invoking the
// fragment once per input event; counters are static, so token state carries
// across activations exactly like the paper's count(p2) example in Fig. 4.
#ifndef FCQSS_CODEGEN_TASK_CODEGEN_HPP
#define FCQSS_CODEGEN_TASK_CODEGEN_HPP

#include "codegen/c_ast.hpp"
#include "qss/scheduler.hpp"
#include "qss/task_partition.hpp"

namespace fcqss::cgen {

/// Generates the program for a schedulable QSS result and its task
/// partition.  Throws domain_error when result.schedulable is false.  A
/// place whose tokens can never persist across an activation (all producers
/// deliver exactly what the single consumer takes) gets no counter, as in
/// the paper's listing, which keeps none for p1; every other counter carries
/// its peak token count under the valid schedule (buffer sizing for the
/// emitted C).
[[nodiscard]] generated_program
generate_program(const pn::petri_net& net, const qss::qss_result& result,
                 const qss::task_partition& partition);

} // namespace fcqss::cgen

#endif // FCQSS_CODEGEN_TASK_CODEGEN_HPP
