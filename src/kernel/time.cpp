#include "kernel/time.hpp"

#include <cmath>
#include <ostream>
#include <sstream>

#include "util/report.hpp"

namespace sca::de {

time::time(double value, time_unit unit) {
    util::require(std::isfinite(value), "time", "value must be finite");
    fs_ = static_cast<std::int64_t>(std::llround(value * static_cast<double>(unit)));
}

time time::from_seconds(double seconds) { return time(seconds, time_unit::sec); }

std::string time::to_string() const {
    std::ostringstream os;
    os << *this;
    return os.str();
}

std::ostream& operator<<(std::ostream& os, const time& t) {
    const std::int64_t fs = t.value_fs();
    struct scale {
        std::int64_t mult;
        const char* suffix;
    };
    static constexpr scale scales[] = {{1'000'000'000'000'000, "s"},
                                       {1'000'000'000'000, "ms"},
                                       {1'000'000'000, "us"},
                                       {1'000'000, "ns"},
                                       {1'000, "ps"},
                                       {1, "fs"}};
    for (const auto& s : scales) {
        if (fs != 0 && fs % s.mult == 0) {
            os << fs / s.mult << ' ' << s.suffix;
            return os;
        }
    }
    if (fs == 0) {
        os << "0 s";
    }
    return os;
}

}  // namespace sca::de
