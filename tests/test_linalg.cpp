// Unit tests for the exact-arithmetic layer: checked integers, rationals,
// integer matrices and the Farkas semiflow engine.
#include <gtest/gtest.h>

#include <limits>

#include "base/error.hpp"
#include "linalg/checked.hpp"
#include "linalg/farkas.hpp"
#include "linalg/int_matrix.hpp"
#include "linalg/rational.hpp"

namespace fcqss::linalg {
namespace {

TEST(checked, basic_operations)
{
    EXPECT_EQ(checked_add(2, 3), 5);
    EXPECT_EQ(checked_sub(2, 3), -1);
    EXPECT_EQ(checked_mul(-4, 5), -20);
    EXPECT_EQ(checked_neg(7), -7);
}

TEST(checked, overflow_throws)
{
    const std::int64_t big = std::numeric_limits<std::int64_t>::max();
    EXPECT_THROW((void)checked_add(big, 1), arith_overflow_error);
    EXPECT_THROW((void)checked_sub(std::numeric_limits<std::int64_t>::min(), 1),
                 arith_overflow_error);
    EXPECT_THROW((void)checked_mul(big, 2), arith_overflow_error);
    EXPECT_THROW((void)checked_neg(std::numeric_limits<std::int64_t>::min()),
                 arith_overflow_error);
}

TEST(checked, gcd_lcm)
{
    EXPECT_EQ(gcd64(12, 18), 6);
    EXPECT_EQ(gcd64(-12, 18), 6);
    EXPECT_EQ(gcd64(0, 5), 5);
    EXPECT_EQ(gcd64(0, 0), 0);
    EXPECT_EQ(gcd64(std::numeric_limits<std::int64_t>::min(), 0),
              std::numeric_limits<std::int64_t>::min()); // magnitude as unsigned wraps
    EXPECT_EQ(lcm64(4, 6), 12);
    EXPECT_EQ(lcm64(0, 6), 0);
    EXPECT_EQ(lcm64(-4, 6), 12);
}

TEST(rational, construction_normalizes)
{
    EXPECT_EQ(rational(6, 4), rational(3, 2));
    EXPECT_EQ(rational(-6, -4), rational(3, 2));
    EXPECT_EQ(rational(6, -4), rational(-3, 2));
    EXPECT_EQ(rational(0, 17), rational(0));
    EXPECT_THROW(rational(1, 0), domain_error);
}

TEST(rational, arithmetic)
{
    EXPECT_EQ(rational(1, 2) + rational(1, 3), rational(5, 6));
    EXPECT_EQ(rational(1, 2) - rational(1, 3), rational(1, 6));
    EXPECT_EQ(rational(2, 3) * rational(9, 4), rational(3, 2));
    EXPECT_EQ(rational(2, 3) / rational(4, 9), rational(3, 2));
    EXPECT_THROW(rational(1) / rational(0), domain_error);
    EXPECT_EQ(-rational(1, 2), rational(-1, 2));
}

TEST(rational, comparison_and_text)
{
    EXPECT_LT(rational(1, 3), rational(1, 2));
    EXPECT_GT(rational(-1, 3), rational(-1, 2));
    EXPECT_EQ(rational(7, 2).to_string(), "7/2");
    EXPECT_EQ(rational(-4).to_string(), "-4");
    EXPECT_EQ(rational(5, 1).as_integer(), 5);
    EXPECT_THROW((void)rational(1, 2).as_integer(), domain_error);
    EXPECT_EQ(reciprocal(rational(-2, 3)), rational(-3, 2));
    EXPECT_EQ(abs(rational(-2, 3)), rational(2, 3));
}

TEST(rational, no_intermediate_overflow_in_addition)
{
    // 1/3e18 + 1/3e18 would overflow a naive cross-multiplication.
    const std::int64_t big = 3000000000000000000LL;
    const rational sum = rational(1, big) + rational(1, big);
    EXPECT_EQ(sum, rational(2, big));
}

TEST(int_vector, operations)
{
    const int_vector v{1, -2, 3};
    const int_vector w{4, 5, -6};
    EXPECT_EQ(add(v, w), (int_vector{5, 3, -3}));
    EXPECT_EQ(scale(v, -2), (int_vector{-2, 4, -6}));
    EXPECT_EQ(dot(v, w), 1 * 4 - 2 * 5 - 3 * 6);
    EXPECT_THROW((void)add(v, int_vector{1}), model_error);
    EXPECT_TRUE(is_zero(int_vector{0, 0}));
    EXPECT_FALSE(is_zero(v));
    EXPECT_TRUE(is_semipositive(int_vector{0, 1, 2}));
    EXPECT_FALSE(is_semipositive(int_vector{0, 0}));
    EXPECT_FALSE(is_semipositive(v));
    EXPECT_EQ(support(int_vector{0, 7, 0, -1}), (std::vector<std::size_t>{1, 3}));
}

TEST(int_vector, gcd_normalization_and_support_subset)
{
    int_vector v{4, 6, 0, 8};
    normalize_by_gcd(v);
    EXPECT_EQ(v, (int_vector{2, 3, 0, 4}));
    int_vector zero{0, 0};
    normalize_by_gcd(zero);
    EXPECT_EQ(zero, (int_vector{0, 0}));
    EXPECT_TRUE(support_subset(int_vector{1, 0, 2}, int_vector{3, 0, 4}));
    EXPECT_FALSE(support_subset(int_vector{1, 1, 0}, int_vector{1, 0, 1}));
}

TEST(int_matrix, accessors_and_multiply)
{
    int_matrix m(2, 3);
    m.at(0, 0) = 1;
    m.at(0, 2) = -2;
    m.at(1, 1) = 3;
    EXPECT_EQ(m.row(0), (int_vector{1, 0, -2}));
    EXPECT_EQ(m.column(1), (int_vector{0, 3}));
    EXPECT_EQ(m.multiply(int_vector{1, 1, 1}), (int_vector{-1, 3}));
    EXPECT_THROW((void)m.at(2, 0), model_error);
    EXPECT_THROW((void)m.multiply(int_vector{1}), model_error);

    const int_matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_EQ(t.at(2, 0), -2);
}

TEST(farkas, chain_semiflow)
{
    // Semiflows y >= 0 with y^T a = 0 for a = [[1],[-1]]: y = (1,1).
    int_matrix a(2, 1);
    a.at(0, 0) = 1;
    a.at(1, 0) = -1;
    const auto flows = minimal_semiflows(a);
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_EQ(flows.front(), (int_vector{1, 1}));
}

TEST(farkas, weighted_chain)
{
    // y1 * 2 - y2 * 3 = 0 -> minimal (3, 2).
    int_matrix a(2, 1);
    a.at(0, 0) = 2;
    a.at(1, 0) = -3;
    const auto flows = minimal_semiflows(a);
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_EQ(flows.front(), (int_vector{3, 2}));
}

TEST(farkas, two_independent_flows)
{
    // Two decoupled balance columns -> two minimal semiflows.
    int_matrix a(4, 2);
    a.at(0, 0) = 1;
    a.at(1, 0) = -1;
    a.at(2, 1) = 2;
    a.at(3, 1) = -1;
    const auto flows = minimal_semiflows(a);
    ASSERT_EQ(flows.size(), 2u);
    EXPECT_EQ(flows[0], (int_vector{0, 0, 1, 2}));
    EXPECT_EQ(flows[1], (int_vector{1, 1, 0, 0}));
}

TEST(farkas, no_semiflow_for_pure_production)
{
    // Row strictly positive in its only column: nothing cancels it.
    int_matrix a(2, 1);
    a.at(0, 0) = 1;
    a.at(1, 0) = 2;
    EXPECT_TRUE(minimal_semiflows(a).empty());
}

TEST(farkas, minimality_no_support_supersets)
{
    // Three rows where row2 = row0 + row1 would also cancel, but its support
    // contains the minimal ones.
    int_matrix a(3, 1);
    a.at(0, 0) = 1;
    a.at(1, 0) = -1;
    a.at(2, 0) = 0; // free row: already a semiflow on its own
    const auto flows = minimal_semiflows(a);
    ASSERT_EQ(flows.size(), 2u);
    for (const auto& f : flows) {
        for (const auto& g : flows) {
            if (&f != &g) {
                EXPECT_FALSE(support_subset(f, g))
                    << "minimal semiflows must have incomparable supports";
            }
        }
    }
}

TEST(farkas, coverage_predicate)
{
    int_matrix a(2, 1);
    a.at(0, 0) = 1;
    a.at(1, 0) = -1;
    const auto flows = minimal_semiflows(a);
    EXPECT_TRUE(semiflows_cover_all_rows(a, flows));

    int_matrix b(2, 1);
    b.at(0, 0) = 1;
    b.at(1, 0) = 1;
    EXPECT_FALSE(semiflows_cover_all_rows(b, minimal_semiflows(b)));
}

TEST(farkas, row_limit_guards_blowup)
{
    int_matrix a(2, 1);
    a.at(0, 0) = 1;
    a.at(1, 0) = -1;
    farkas_options options;
    options.max_rows = 0;
    EXPECT_THROW((void)minimal_semiflows(a, options), resource_limit_error);
}

// Property sweep: for random small matrices every reported semiflow really
// is one (y >= 0, y != 0, y^T a = 0) and is primitive.
class farkas_property : public ::testing::TestWithParam<int> {};

TEST_P(farkas_property, semiflows_are_semiflows)
{
    const int seed = GetParam();
    std::uint64_t state = static_cast<std::uint64_t>(seed) * 2654435761u + 1;
    const auto rnd = [&state](int bound) {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return static_cast<int>((state * 0x2545f4914f6cdd1dULL) % bound);
    };
    const std::size_t rows = 2 + static_cast<std::size_t>(rnd(4));
    const std::size_t cols = 1 + static_cast<std::size_t>(rnd(3));
    int_matrix a(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            a.at(r, c) = rnd(5) - 2;
        }
    }
    for (const int_vector& y : minimal_semiflows(a)) {
        EXPECT_TRUE(is_semipositive(y));
        // y^T a = 0 columnwise.
        for (std::size_t c = 0; c < cols; ++c) {
            EXPECT_EQ(dot(y, a.column(c)), 0) << "column " << c;
        }
        int_vector copy = y;
        normalize_by_gcd(copy);
        EXPECT_EQ(copy, y) << "semiflows must be primitive";
    }
}

INSTANTIATE_TEST_SUITE_P(random_matrices, farkas_property, ::testing::Range(0, 25));

} // namespace
} // namespace fcqss::linalg
