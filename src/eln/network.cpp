#include "eln/network.hpp"

#include <algorithm>

#include "eln/terminal.hpp"
#include "util/report.hpp"

namespace sca::eln {

component::component(std::string name, network& net)
    : tdf::dae_element(std::move(name), net) {}

network::~network() {
    for (terminal* t : terminals_) t->net_ = nullptr;
}

node network::create_node(const std::string& name, nature k) {
    if (!node_names_.insert(name).second) {
        util::report_fatal(this->name(),
                           "duplicate node name '" + name +
                               "': node names are unique per network (subcircuit-internal "
                               "nodes are auto-prefixed with the instance path)");
    }
    const std::size_t index = raw_system().add_unknown("v(" + name + ")");
    nodes_.push_back({name, k});
    return node(this, index, k, /*ground=*/false);
}

void network::unregister_terminal(terminal& t) {
    terminals_.erase(std::remove(terminals_.begin(), terminals_.end(), &t),
                     terminals_.end());
}

void network::resolve_terminals() {
    for (terminal* t : terminals_) t->resolve();
}

node network::ground(nature k) { return node(this, 0, k, /*ground=*/true); }

double network::voltage(const node& n) const {
    if (n.is_ground()) return 0.0;
    // Before the first solver step (e.g. a tracer sampling at t=0 ahead of
    // the cluster) the across values are the zero quiescent defaults.
    if (n.index() >= state().size()) return 0.0;
    return state()[n.index()];
}

double network::voltage(const node& a, const node& b) const {
    return voltage(a) - voltage(b);
}

double network::current(const component& c) const {
    const std::size_t row = find_branch(c);
    if (row == ground_row) {
        util::report_fatal(name(), "component " + c.name() + " has no branch current unknown");
    }
    if (row >= state().size()) return 0.0;
    return state()[row];
}

std::size_t network::branch_row(const component& c, const std::string& suffix) {
    const auto key = std::make_pair(&c, suffix);
    auto it = branch_rows_.find(key);
    if (it != branch_rows_.end()) return it->second;
    const std::size_t row =
        raw_system().add_unknown("i(" + c.name() + "." + suffix + ")");
    branch_rows_.emplace(key, row);
    primary_branch_.emplace(&c, row);  // keeps the first-requested branch
    return row;
}

std::size_t network::find_branch(const component& c) const {
    const auto it = primary_branch_.find(&c);
    return it == primary_branch_.end() ? ground_row : it->second;
}

void network::add_a(std::size_t r, std::size_t c, double v) {
    if (r == ground_row || c == ground_row) return;
    raw_system().add_a(r, c, v);
}

void network::add_b(std::size_t r, std::size_t c, double v) {
    if (r == ground_row || c == ground_row) return;
    raw_system().add_b(r, c, v);
}

void network::stamp_branch(std::size_t k, const node& a, const node& b) {
    const std::size_t ra = row_of(a);
    const std::size_t rb = row_of(b);
    add_a(ra, k, 1.0);
    add_a(rb, k, -1.0);
    add_a(k, ra, 1.0);
    add_a(k, rb, -1.0);
}

void network::stamp_conductance(const node& a, const node& b, double g) {
    const std::size_t ra = row_of(a);
    const std::size_t rb = row_of(b);
    add_a(ra, ra, g);
    add_a(ra, rb, -g);
    add_a(rb, ra, -g);
    add_a(rb, rb, g);
}

void network::stamp_capacitance(const node& a, const node& b, double c) {
    const std::size_t ra = row_of(a);
    const std::size_t rb = row_of(b);
    add_b(ra, ra, c);
    add_b(ra, rb, -c);
    add_b(rb, ra, -c);
    add_b(rb, rb, c);
}

solver::stamp_handle network::add_stamp_slot(double initial_value) {
    return raw_system().add_stamp(initial_value);
}

void network::stamp_a_slot(solver::stamp_handle h, std::size_t r, std::size_t c,
                           double w) {
    if (r == ground_row || c == ground_row) return;
    raw_system().stamp_a(h, r, c, w);
}

void network::stamp_b_slot(solver::stamp_handle h, std::size_t r, std::size_t c,
                           double w) {
    if (r == ground_row || c == ground_row) return;
    raw_system().stamp_b(h, r, c, w);
}

void network::stamp_conductance_slot(solver::stamp_handle h, const node& a,
                                     const node& b) {
    const std::size_t ra = row_of(a);
    const std::size_t rb = row_of(b);
    stamp_a_slot(h, ra, ra, 1.0);
    stamp_a_slot(h, ra, rb, -1.0);
    stamp_a_slot(h, rb, ra, -1.0);
    stamp_a_slot(h, rb, rb, 1.0);
}

void network::stamp_capacitance_slot(solver::stamp_handle h, const node& a,
                                     const node& b) {
    const std::size_t ra = row_of(a);
    const std::size_t rb = row_of(b);
    stamp_b_slot(h, ra, ra, 1.0);
    stamp_b_slot(h, ra, rb, -1.0);
    stamp_b_slot(h, rb, ra, -1.0);
    stamp_b_slot(h, rb, rb, 1.0);
}

void network::add_rhs_constant(std::size_t r, double v) {
    if (r == ground_row) return;
    raw_system().add_rhs_constant(r, v);
}

void network::add_rhs_source(std::size_t r, std::function<double(double)> fn) {
    if (r == ground_row) return;
    raw_system().add_rhs_source(r, std::move(fn));
}

std::size_t network::add_input(std::size_t r) {
    if (r == ground_row) return std::numeric_limits<std::size_t>::max();
    return raw_system().add_input(r);
}

void network::set_input(std::size_t slot, double v) {
    if (slot == std::numeric_limits<std::size_t>::max()) return;
    raw_system().set_input(slot, v);
}

void network::add_ac_source(std::size_t r, std::complex<double> amplitude) {
    if (r == ground_row) return;
    raw_system().add_ac_source(r, amplitude);
}

void network::add_noise_between(const node& a, const node& b,
                                std::function<double(double)> psd, std::string name) {
    std::vector<std::pair<std::size_t, double>> injections;
    if (!a.is_ground()) injections.emplace_back(a.index(), -1.0);
    if (!b.is_ground()) injections.emplace_back(b.index(), 1.0);
    if (injections.empty()) return;
    raw_system().add_noise_source(std::move(injections), std::move(psd), std::move(name));
}

void network::check_nature(const node& n, nature expected, const std::string& who) {
    util::require(n.valid(), who, "terminal is not connected to a node");
    if (n.kind() != expected) {
        util::report_fatal(who, std::string("terminal nature mismatch: expected ") +
                                    nature_name(expected) + ", got " +
                                    nature_name(n.kind()));
    }
}

void network::build_equations() {
    resolve_terminals();
    for (tdf::dae_element* e : elements()) static_cast<component*>(e)->stamp(*this);
    // A branch whose component was destroyed keeps its unknown: pin it to
    // i = 0 so the matrix stays regular.
    for (const auto& [owner, row] : branch_rows_) {
        if (raw_system().a().row_indices(row).empty()) raw_system().add_a(row, row, 1.0);
    }
}

}  // namespace sca::eln
