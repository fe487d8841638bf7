#include "tdf/module.hpp"

#include <algorithm>

#include "solver/ac.hpp"
#include "tdf/block.hpp"
#include "tdf/cluster.hpp"
#include "util/report.hpp"

namespace sca::tdf {

module::module(const de::module_name& nm) : de::module(nm) {
    registry::of(context()).add_module(*this);
}

void module::request_timestep(const de::time& t) {
    util::require(in_change_attributes_, name(),
                  "request_timestep is only valid inside change_attributes()");
    util::require(t > de::time::zero(), name(), "requested timestep must be positive");
    pending_timestep_ = t;
    has_pending_timestep_ = true;
}

void module::request_rate(port_base& p, unsigned rate) {
    util::require(in_change_attributes_, name(),
                  "request_rate is only valid inside change_attributes()");
    if (std::find(ports_.begin(), ports_.end(), &p) == ports_.end()) {
        util::report_fatal(name(), "request_rate on port " + p.name() +
                                       " which does not belong to this module");
    }
    p.stage_rate(rate);
}

void module::fire_run(const de::time& t0, std::uint64_t k0, std::uint64_t n) {
    de::time t = t0 + timestep_ * static_cast<std::int64_t>(k0);
    for (std::uint64_t i = 0; i < n; ++i) {
        current_time_ = t;
        processing();
        ++activations_;
        for (port_base* p : ports_) p->advance();
        t += timestep_;
    }
}

void module::processing(block_view& blk) {
    (void)blk;
    util::report_fatal(name(),
                       "processing(block_view&) called on a module that does not "
                       "override it (has_block_processing() must only return true "
                       "when the block path is implemented)");
}

void module::fire_block_run(const de::time& t0, std::uint64_t k0, std::uint64_t n) {
    std::uint64_t done = 0;
    while (done < n) {
        // Maximal run whose tokens stay contiguous on every port.
        std::uint64_t m = n - done;
        for (port_base* p : ports_) m = std::min(m, p->contiguous_firings(m));
        if (m == 0) {
            // The next firing straddles a ring-buffer wrap point on some
            // port: per-sample fallback for exactly this firing (write_token
            // / read_token wrap per token).
            fire_run(t0, k0 + done, 1);
            ++done;
            continue;
        }
        current_time_ = t0 + timestep_ * static_cast<std::int64_t>(k0 + done);
        block_view blk(current_time_, timestep_, m);
        processing(blk);
        ++block_calls_;
        block_firings_ += m;
        activations_ += m;
        for (port_base* p : ports_) {
            if (!p->is_input()) {
                p->bound_signal()->refresh_last(p->position() +
                                                static_cast<std::uint64_t>(p->rate()) * m - 1);
            }
            p->advance_n(m);
        }
        done += m;
    }
}

std::vector<solver::ac_point> cascade_response(const std::vector<const module*>& chain,
                                               const solver::sweep& sw) {
    util::require(!chain.empty(), "cascade_response", "empty module chain");
    for (const module* m : chain) {
        util::require(m != nullptr, "cascade_response", "null module in chain");
        util::require(m->has_ac_model(), m->name(),
                      "module has no frequency-domain model (override ac_response)");
    }
    std::vector<solver::ac_point> points;
    for (double f : sw.frequencies()) {
        std::complex<double> h{1.0, 0.0};
        for (const module* m : chain) h *= m->ac_response(f);
        points.push_back({f, h});
    }
    return points;
}

}  // namespace sca::tdf
