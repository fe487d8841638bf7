// Discrete simulation time.
//
// Time is an integer count of femtoseconds (the minimum resolvable time,
// cf. paper §3: "time can be handled ... as an integer multiple of a base
// time").  64-bit femtoseconds cover simulations up to ~2.5 hours of model
// time, far beyond any mixed-signal run, while making time comparisons exact.
#ifndef SCA_KERNEL_TIME_HPP
#define SCA_KERNEL_TIME_HPP

#include <cstdint>
#include <iosfwd>
#include <string>

namespace sca::de {

/// Time unit multipliers, in femtoseconds.
enum class time_unit : std::int64_t {
    fs = 1,
    ps = 1'000,
    ns = 1'000'000,
    us = 1'000'000'000,
    ms = 1'000'000'000'000,
    sec = 1'000'000'000'000'000,
};

/// A point in (or duration of) simulated time. Regular value type.
class time {
public:
    constexpr time() = default;

    /// `value` in the given unit; fractional values are rounded to fs.
    time(double value, time_unit unit);

    /// Exact construction from a femtosecond count.
    static constexpr time from_fs(std::int64_t fs) {
        time t;
        t.fs_ = fs;
        return t;
    }

    /// Convert a duration in seconds (rounded to the nearest femtosecond).
    static time from_seconds(double seconds);

    [[nodiscard]] constexpr std::int64_t value_fs() const noexcept { return fs_; }
    [[nodiscard]] constexpr double to_seconds() const noexcept {
        return static_cast<double>(fs_) * 1e-15;
    }

    /// Largest representable time; used as "never" marker.
    static constexpr time max() { return from_fs(INT64_MAX); }
    static constexpr time zero() { return from_fs(0); }

    [[nodiscard]] std::string to_string() const;

    constexpr auto operator<=>(const time&) const = default;

    constexpr time& operator+=(const time& rhs) noexcept {
        fs_ += rhs.fs_;
        return *this;
    }
    constexpr time& operator-=(const time& rhs) noexcept {
        fs_ -= rhs.fs_;
        return *this;
    }
    friend constexpr time operator+(time a, const time& b) noexcept { return a += b; }
    friend constexpr time operator-(time a, const time& b) noexcept { return a -= b; }
    friend constexpr time operator*(time a, std::int64_t k) noexcept {
        return from_fs(a.fs_ * k);
    }
    friend constexpr std::int64_t operator/(const time& a, const time& b) noexcept {
        return a.fs_ / b.fs_;
    }
    friend constexpr time operator%(const time& a, const time& b) noexcept {
        return from_fs(a.fs_ % b.fs_);
    }

private:
    std::int64_t fs_ = 0;
};

std::ostream& operator<<(std::ostream& os, const time& t);

namespace literals {
inline time operator""_fs(unsigned long long v) {
    return time::from_fs(static_cast<std::int64_t>(v));
}
inline time operator""_ps(unsigned long long v) {
    return time(static_cast<double>(v), time_unit::ps);
}
inline time operator""_ns(unsigned long long v) {
    return time(static_cast<double>(v), time_unit::ns);
}
inline time operator""_us(unsigned long long v) {
    return time(static_cast<double>(v), time_unit::us);
}
inline time operator""_ms(unsigned long long v) {
    return time(static_cast<double>(v), time_unit::ms);
}
inline time operator""_sec(unsigned long long v) {
    return time(static_cast<double>(v), time_unit::sec);
}
}  // namespace literals

}  // namespace sca::de

#endif  // SCA_KERNEL_TIME_HPP
