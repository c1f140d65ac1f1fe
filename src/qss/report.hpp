// fcqss — qss/report.hpp
// Human-readable synthesis report: net statistics, schedulability verdict
// with diagnostics, the valid schedule, task partition, buffer bounds and
// the Def.-3.1/executability check results — everything a designer needs to
// evaluate the specification before committing to code generation.
#ifndef FCQSS_QSS_REPORT_HPP
#define FCQSS_QSS_REPORT_HPP

#include <string>

#include "qss/scheduler.hpp"

namespace fcqss::qss {

struct report_options {
    /// Finite complete cycles listed (the list can be long: the ATM server
    /// has 120); the heading always gives the total.
    std::size_t cycle_preview = 4;
    /// Run the executability cross-check (footnote 2) on schedulable nets.
    bool check_executability = true;
};

/// Renders the full report for a net.  Runs the scheduler internally.
[[nodiscard]] std::string synthesis_report(const pn::petri_net& net,
                                           const report_options& options = {});

} // namespace fcqss::qss

#endif // FCQSS_QSS_REPORT_HPP
