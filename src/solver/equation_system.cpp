#include "solver/equation_system.hpp"

#include <algorithm>

#include "util/bytes.hpp"
#include "util/report.hpp"

namespace sca::solver {

std::size_t equation_system::add_unknown(std::string name) {
    names_.push_back(std::move(name));
    const std::size_t n = names_.size();
    a_.resize(n);
    b_.resize(n);
    rhs_constant_.resize(n, 0.0);
    return n - 1;
}

void equation_system::clear_stamps() {
    const std::size_t n = names_.size();
    a_.resize(n);
    b_.resize(n);
    a_.clear();
    b_.clear();
    rhs_constant_.assign(n, 0.0);
    rhs_sources_.clear();
    inputs_.clear();
    nonlinear_.clear();
    ac_sources_.clear();
    noise_sources_.clear();
    slot_values_.clear();
    ledgers_.clear();
    ledger_index_a_.clear();
    ledger_index_b_.clear();
    slot_entries_.clear();
    slots_finalized_ = false;
    ++generation_;
}

void equation_system::append_static_term(matrix_id which, std::size_t row,
                                         std::size_t col, double v) {
    // Ledgers exist only for slot-referencing entries; a static add on one
    // of them must be recorded to keep replay order intact.  Purely static
    // entries never allocate a ledger (their accumulated value is folded
    // into the ledger's prefix constant if a slot reference arrives later).
    const auto& index = which == matrix_id::a ? ledger_index_a_ : ledger_index_b_;
    if (index.empty()) return;
    const auto it = index.find(entry_key(row, col));
    if (it != index.end()) ledgers_[it->second].terms.push_back({no_stamp_handle, v});
}

void equation_system::append_slot_term(matrix_id which, std::size_t row,
                                       std::size_t col, stamp_handle h, double weight) {
    auto& index = which == matrix_id::a ? ledger_index_a_ : ledger_index_b_;
    const auto [it, created] = index.try_emplace(entry_key(row, col), ledgers_.size());
    if (created) {
        // First slot reference on this entry: fold everything stamped so
        // far into one prefix constant.  The prefix is the exact value the
        // matrix accumulated, so replaying prefix + later terms in order
        // reproduces a full restamp bit for bit.
        ledgers_.push_back({which, row, col, {{no_stamp_handle, matrix(which).get(row, col)}}});
    }
    ledgers_[it->second].terms.push_back({h, weight});
    // A new slot dependency after finalize_stamps() must re-index.
    slots_finalized_ = false;
}

void equation_system::add_a(std::size_t row, std::size_t col, double v) {
    a_.add(row, col, v);
    append_static_term(matrix_id::a, row, col, v);
}

void equation_system::add_b(std::size_t row, std::size_t col, double v) {
    b_.add(row, col, v);
    append_static_term(matrix_id::b, row, col, v);
}

stamp_handle equation_system::add_stamp(double initial_value) {
    slot_values_.push_back(initial_value);
    slots_finalized_ = false;  // slot_entries_ must grow before set_stamp
    return slot_values_.size() - 1;
}

void equation_system::stamp_a(stamp_handle h, std::size_t row, std::size_t col,
                              double weight) {
    util::require(h < slot_values_.size(), "equation_system", "invalid stamp handle");
    append_slot_term(matrix_id::a, row, col, h, weight);
    a_.add(row, col, weight * slot_values_[h]);
}

void equation_system::stamp_b(stamp_handle h, std::size_t row, std::size_t col,
                              double weight) {
    util::require(h < slot_values_.size(), "equation_system", "invalid stamp handle");
    append_slot_term(matrix_id::b, row, col, h, weight);
    b_.add(row, col, weight * slot_values_[h]);
}

void equation_system::finalize_stamps() {
    if (!slots_finalized_) {
        slot_entries_.assign(slot_values_.size(), {});
        for (std::size_t e = 0; e < ledgers_.size(); ++e) {
            for (const auto& term : ledgers_[e].terms) {
                if (term.slot == no_stamp_handle) continue;
                auto& deps = slot_entries_[term.slot];
                if (std::find(deps.begin(), deps.end(), e) == deps.end()) deps.push_back(e);
            }
        }
        slots_finalized_ = true;
    } else if (compiled_a_pattern_ == a_.pattern_version() &&
               compiled_b_pattern_ == b_.pattern_version()) {
        return;
    }
    // A new entry shifts the stored positions after it in its row.
    for (auto& e : ledgers_) e.pos = matrix(e.which).position_of(e.row, e.col);
    compiled_a_pattern_ = a_.pattern_version();
    compiled_b_pattern_ = b_.pattern_version();
}

void equation_system::set_stamp(stamp_handle h, double value) {
    util::require(h < slot_values_.size(), "equation_system", "invalid stamp handle");
    if (slot_values_[h] == value) return;
    finalize_stamps();
    slot_values_[h] = value;
    // Replay every contribution of each dependent entry in original stamping
    // order: the sum is bit-identical to what a full restamp with the
    // current slot values would have accumulated through sparse_matrix::add.
    const std::span<double> a = a_.values();
    const std::span<double> b = b_.values();
    for (const std::size_t k : slot_entries_[h]) {
        const entry_ledger& e = ledgers_[k];
        double total = 0.0;
        for (const auto& term : e.terms) {
            total += term.slot == no_stamp_handle ? term.weight
                                                  : term.weight * slot_values_[term.slot];
        }
        (e.which == matrix_id::a ? a : b)[e.pos] = total;
    }
    ++values_generation_;
}

void equation_system::add_rhs_constant(std::size_t row, double v) {
    util::require(row < size(), "equation_system", "rhs row out of range");
    rhs_constant_[row] += v;
}

void equation_system::add_rhs_source(std::size_t row, std::function<double(double)> fn) {
    util::require(row < size(), "equation_system", "rhs row out of range");
    util::require(static_cast<bool>(fn), "equation_system", "null rhs source");
    rhs_sources_.push_back({row, std::move(fn)});
}

std::size_t equation_system::add_input(std::size_t row) {
    util::require(row < size(), "equation_system", "input row out of range");
    inputs_.push_back({row, 0.0});
    return inputs_.size() - 1;
}

void equation_system::set_input(std::size_t slot, double v) {
    util::require(slot < inputs_.size(), "equation_system", "input slot out of range");
    inputs_[slot].value = v;
}

std::vector<double> equation_system::rhs(double t) const {
    std::vector<double> q;
    rhs_into(t, q);
    return q;
}

void equation_system::rhs_into(double t, std::vector<double>& q) const {
    q.assign(rhs_constant_.begin(), rhs_constant_.end());
    q.resize(size(), 0.0);
    for (const auto& s : rhs_sources_) q[s.row] += s.value(t);
    for (const auto& in : inputs_) q[in.row] += in.value;
}

void equation_system::eval_nonlinear(const std::vector<double>& x,
                                     std::vector<double>& residual,
                                     std::vector<jacobian_entry>& jacobian) const {
    for (const auto& fn : nonlinear_) fn(x, residual, jacobian);
}

void equation_system::add_ac_source(std::size_t row, std::complex<double> amplitude) {
    util::require(row < size(), "equation_system", "ac source row out of range");
    ac_sources_.push_back({row, amplitude});
}

void equation_system::add_noise_source(
    std::vector<std::pair<std::size_t, double>> injections,
    std::function<double(double)> psd, std::string name) {
    for (const auto& [row, weight] : injections) {
        (void)weight;
        util::require(row < size(), "equation_system", "noise source row out of range");
    }
    noise_sources_.push_back({std::move(injections), std::move(psd), std::move(name)});
}

// --------------------------------------------------------------- snapshot --

namespace {

void save_matrix(util::byte_writer& w, const num::sparse_matrix_d& m) {
    w.u64(m.size());
    for (std::size_t r = 0; r < m.size(); ++r) {
        const auto& idx = m.row_indices(r);
        const auto& val = m.row_values(r);
        w.u64(idx.size());
        for (std::size_t k = 0; k < idx.size(); ++k) {
            w.u64(idx[k]);
            w.f64(val[k]);
        }
    }
}

/// Overlay saved values onto `m`, requiring the saved sparsity pattern to
/// match the freshly rebuilt one exactly — a mismatch means the restored
/// process rebuilt a structurally different system.
void restore_matrix(util::byte_reader& r, num::sparse_matrix_d& m, const char* which) {
    const auto n = static_cast<std::size_t>(r.u64());
    util::require(n == m.size(), "snapshot",
                  std::string("matrix ") + which + ": rebuilt size differs from snapshot");
    for (std::size_t row = 0; row < n; ++row) {
        const auto& idx = m.row_indices(row);
        const auto count = static_cast<std::size_t>(r.u64());
        util::require(count == idx.size(), "snapshot",
                      std::string("matrix ") + which +
                          ": rebuilt sparsity pattern differs from snapshot");
        for (std::size_t k = 0; k < count; ++k) {
            const auto col = static_cast<std::size_t>(r.u64());
            const double v = r.f64();
            util::require(col == idx[k], "snapshot",
                          std::string("matrix ") + which +
                              ": rebuilt sparsity pattern differs from snapshot");
            m.set_entry(row, col, v);
        }
    }
}

}  // namespace

void equation_system::save_state(util::byte_writer& w) const {
    w.u64(names_.size());
    save_matrix(w, a_);
    save_matrix(w, b_);
    w.f64_vec(slot_values_);
    w.f64_vec(rhs_constant_);
    w.u64(inputs_.size());
    for (const auto& in : inputs_) w.f64(in.value);
    w.u64(generation_);
    w.u64(values_generation_);
}

void equation_system::restore_state(util::byte_reader& r) {
    const auto n = static_cast<std::size_t>(r.u64());
    util::require(n == names_.size(), "snapshot",
                  "equation system: rebuilt unknown count differs from snapshot");
    restore_matrix(r, a_, "A");
    restore_matrix(r, b_, "B");
    std::vector<double> slots = r.f64_vec();
    util::require(slots.size() == slot_values_.size(), "snapshot",
                  "equation system: rebuilt stamp-slot count differs from snapshot");
    slot_values_ = std::move(slots);
    std::vector<double> rhs_c = r.f64_vec();
    util::require(rhs_c.size() == rhs_constant_.size(), "snapshot",
                  "equation system: rebuilt rhs size differs from snapshot");
    rhs_constant_ = std::move(rhs_c);
    const auto n_inputs = static_cast<std::size_t>(r.u64());
    util::require(n_inputs == inputs_.size(), "snapshot",
                  "equation system: rebuilt input-slot count differs from snapshot");
    for (auto& in : inputs_) in.value = r.f64();
    generation_ = r.u64();
    values_generation_ = r.u64();
}

}  // namespace sca::solver
