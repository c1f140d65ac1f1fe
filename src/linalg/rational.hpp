// fcqss — linalg/rational.hpp
// Exact rational numbers over checked 64-bit integers, always kept in lowest
// terms with a positive denominator.  Used by the SDF balance equations.
#ifndef FCQSS_LINALG_RATIONAL_HPP
#define FCQSS_LINALG_RATIONAL_HPP

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace fcqss::linalg {

/// Exact rational p/q, q > 0, gcd(|p|, q) == 1.
class rational {
public:
    constexpr rational() noexcept : num_(0), den_(1) {}
    // NOLINTNEXTLINE(google-explicit-constructor) — ints convert exactly
    rational(std::int64_t numerator);
    rational(std::int64_t numerator, std::int64_t denominator);

    [[nodiscard]] std::int64_t num() const noexcept { return num_; }
    [[nodiscard]] std::int64_t den() const noexcept { return den_; }

    [[nodiscard]] bool is_zero() const noexcept { return num_ == 0; }
    [[nodiscard]] bool is_integer() const noexcept { return den_ == 1; }
    [[nodiscard]] int sign() const noexcept { return (num_ > 0) - (num_ < 0); }

    /// The integer value; throws domain_error when not an integer.
    [[nodiscard]] std::int64_t as_integer() const;

    [[nodiscard]] rational operator-() const;

    rational& operator+=(const rational& rhs);
    rational& operator-=(const rational& rhs);
    rational& operator*=(const rational& rhs);
    /// Division by zero throws domain_error.
    rational& operator/=(const rational& rhs);

    friend rational operator+(rational lhs, const rational& rhs) { return lhs += rhs; }
    friend rational operator-(rational lhs, const rational& rhs) { return lhs -= rhs; }
    friend rational operator*(rational lhs, const rational& rhs) { return lhs *= rhs; }
    friend rational operator/(rational lhs, const rational& rhs) { return lhs /= rhs; }

    friend bool operator==(const rational& a, const rational& b) noexcept = default;
    friend std::strong_ordering operator<=>(const rational& a, const rational& b);

    [[nodiscard]] std::string to_string() const;

private:
    void normalize();

    std::int64_t num_;
    std::int64_t den_;
};

std::ostream& operator<<(std::ostream& os, const rational& r);

/// Reciprocal; throws domain_error for zero.
[[nodiscard]] rational reciprocal(const rational& r);

/// |r|.
[[nodiscard]] rational abs(const rational& r);

} // namespace fcqss::linalg

#endif // FCQSS_LINALG_RATIONAL_HPP
