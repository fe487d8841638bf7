#include "solver/noise.hpp"

#include <cmath>

#include "util/trace.hpp"

namespace sca::solver {

// noise_sweep() lives in solver/ac.cpp, next to the per-frequency loop it
// shares with ac_sweep().

double noise_result::integrated_rms() const {
    double power = 0.0;
    for (std::size_t i = 1; i < points.size(); ++i) {
        const double df = points[i].frequency - points[i - 1].frequency;
        power += 0.5 * (points[i].total_psd + points[i - 1].total_psd) * df;
    }
    return std::sqrt(power);
}

void write(const noise_result& result, util::trace_file& file) {
    // Rows are replayed, so the channels have no live value to probe.
    file.add_channel("total_psd", [] { return 0.0; });
    for (const auto& name : result.source_names) file.add_channel(name, [] { return 0.0; });
    std::vector<double> row;
    for (const auto& p : result.points) {
        row.assign(1, p.total_psd);
        row.insert(row.end(), p.per_source.begin(), p.per_source.end());
        file.replay_row(p.frequency, row);
    }
}

}  // namespace sca::solver
