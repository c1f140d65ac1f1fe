// fcqss — linalg/farkas.hpp
// Farkas / Fourier-Motzkin enumeration of the minimal-support semiflows of an
// integer matrix (Colom & Silva).  A T-invariant of a net with incidence
// matrix C is a semiflow of C^T; a P-invariant is a semiflow of C.  The QSS
// schedulability check (Def. 3.5) is built on this enumeration.
#ifndef FCQSS_LINALG_FARKAS_HPP
#define FCQSS_LINALG_FARKAS_HPP

#include <cstddef>
#include <vector>

#include "linalg/int_matrix.hpp"

namespace fcqss::linalg {

/// Options bounding the Farkas iteration.  The intermediate row count can
/// grow exponentially on adversarial inputs; `max_rows` turns that into a
/// resource_limit_error instead of memory exhaustion.
struct farkas_options {
    std::size_t max_rows = 1u << 20;
};

/// All minimal-support semiflows of `a`: the set of minimal y >= 0, y != 0,
/// with y^T a = 0 (y indexed by the rows of `a`).  Every returned vector is
/// primitive (entry gcd 1); the result is sorted lexicographically so callers
/// see a deterministic order.  Throws resource_limit_error when `max_rows` is
/// hit: the input may be fine, the enumeration declined to grow further.
[[nodiscard]] std::vector<int_vector>
minimal_semiflows(const int_matrix& a, const farkas_options& options = {});

/// True when every row index of `a` is in the support of some minimal
/// semiflow, i.e. there exists a strictly positive y with y^T a = 0.
[[nodiscard]] bool semiflows_cover_all_rows(const int_matrix& a,
                                            const std::vector<int_vector>& semiflows);

} // namespace fcqss::linalg

#endif // FCQSS_LINALG_FARKAS_HPP
