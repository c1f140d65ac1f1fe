#include "linalg/farkas.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "linalg/checked.hpp"

namespace fcqss::linalg {

namespace {

// A working row: [ residual of y^T a | y ].  The algorithm drives the
// residual part to zero column by column; what remains in the y part are the
// semiflows.
struct work_row {
    int_vector residual;
    int_vector combination;
};

// Support of the combination part as a sorted index list.
std::vector<std::size_t> combination_support(const work_row& row)
{
    return support(row.combination);
}

bool is_support_superset(const std::vector<std::size_t>& sup,
                         const std::vector<std::size_t>& sub)
{
    return std::includes(sup.begin(), sup.end(), sub.begin(), sub.end());
}

// Drops every row whose combination support strictly contains the support of
// another row, plus exact duplicates.  Keeping only support-minimal rows is
// what makes the final answer the *minimal* semiflows and keeps the row count
// manageable.
void prune_non_minimal(std::vector<work_row>& rows)
{
    std::vector<std::vector<std::size_t>> supports(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        supports[i] = combination_support(rows[i]);
    }
    std::vector<bool> dead(rows.size(), false);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (dead[i]) {
            continue;
        }
        for (std::size_t j = 0; j < rows.size(); ++j) {
            if (i == j || dead[j] || dead[i]) {
                continue;
            }
            if (supports[i] == supports[j]) {
                // Equal supports: drop the later duplicate only when the
                // vectors are identical; otherwise keep both.
                if (j > i && rows[i].combination == rows[j].combination &&
                    rows[i].residual == rows[j].residual) {
                    dead[j] = true;
                }
            } else if (is_support_superset(supports[j], supports[i])) {
                dead[j] = true;
            }
        }
    }
    std::vector<work_row> kept;
    kept.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!dead[i]) {
            kept.push_back(std::move(rows[i]));
        }
    }
    rows = std::move(kept);
}

void normalize_row(work_row& row)
{
    std::int64_t g = 0;
    for (std::int64_t x : row.residual) {
        g = gcd64(g, x);
    }
    for (std::int64_t x : row.combination) {
        g = gcd64(g, x);
    }
    if (g > 1) {
        for (std::int64_t& x : row.residual) {
            x /= g;
        }
        for (std::int64_t& x : row.combination) {
            x /= g;
        }
    }
}

} // namespace

std::vector<int_vector> minimal_semiflows(const int_matrix& a,
                                          const farkas_options& options)
{
    const std::size_t n = a.rows();
    const std::size_t m = a.cols();

    // Initial table: row i carries a's row i and the i-th unit combination.
    std::vector<work_row> rows(n);
    for (std::size_t i = 0; i < n; ++i) {
        rows[i].residual = a.row(i);
        rows[i].combination.assign(n, 0);
        rows[i].combination[i] = 1;
    }

    for (std::size_t col = 0; col < m; ++col) {
        std::vector<work_row> zero_rows;
        std::vector<std::size_t> positive;
        std::vector<std::size_t> negative;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const std::int64_t v = rows[i].residual[col];
            if (v == 0) {
                zero_rows.push_back(std::move(rows[i]));
            } else if (v > 0) {
                positive.push_back(i);
            } else {
                negative.push_back(i);
            }
        }
        // Pair every positive row with every negative row so the column
        // cancels; their non-negative combination is recorded alongside.
        std::vector<work_row> next = std::move(zero_rows);
        for (std::size_t pi : positive) {
            for (std::size_t ni : negative) {
                const work_row& p = rows[pi];
                const work_row& q = rows[ni];
                const std::int64_t pv = p.residual[col];
                const std::int64_t qv = checked_neg(q.residual[col]);
                const std::int64_t g = gcd64(pv, qv);
                const std::int64_t p_scale = qv / g;
                const std::int64_t q_scale = pv / g;
                work_row merged;
                merged.residual =
                    add(scale(p.residual, p_scale), scale(q.residual, q_scale));
                merged.combination =
                    add(scale(p.combination, p_scale), scale(q.combination, q_scale));
                normalize_row(merged);
                next.push_back(std::move(merged));
                if (next.size() > options.max_rows) {
                    throw resource_limit_error("minimal_semiflows: row limit exceeded "
                                               "(net too large for Farkas enumeration)");
                }
            }
        }
        rows = std::move(next);
        prune_non_minimal(rows);
    }

    std::vector<int_vector> result;
    result.reserve(rows.size());
    for (work_row& row : rows) {
        require_internal(is_zero(row.residual),
                         "farkas: residual not eliminated after all columns");
        if (is_semipositive(row.combination)) {
            normalize_by_gcd(row.combination);
            result.push_back(std::move(row.combination));
        }
    }
    std::sort(result.begin(), result.end());
    result.erase(std::unique(result.begin(), result.end()), result.end());
    return result;
}

bool semiflows_cover_all_rows(const int_matrix& a,
                              const std::vector<int_vector>& semiflows)
{
    std::vector<bool> covered(a.rows(), false);
    for (const int_vector& y : semiflows) {
        for (std::size_t i : support(y)) {
            covered[i] = true;
        }
    }
    return std::all_of(covered.begin(), covered.end(), [](bool b) { return b; });
}

} // namespace fcqss::linalg
