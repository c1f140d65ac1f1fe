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

/// Renders the full report for a net.  Runs the scheduler internally, and
/// on a schedulable net the executability cross-check (footnote 2).  It
/// lists the first 4 finite complete cycles (the list can be long: the ATM
/// server has 120); the heading always gives the total.
[[nodiscard]] std::string synthesis_report(const pn::petri_net& net);

} // namespace fcqss::qss

#endif // FCQSS_QSS_REPORT_HPP
