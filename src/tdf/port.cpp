#include "tdf/port.hpp"

#include "tdf/module.hpp"

namespace sca::tdf {

port_base::port_base(std::string name, bool is_input)
    : de::object(std::move(name)), is_input_(is_input) {
    // A port declared as a member of a tdf::module registers automatically;
    // converter primitives (ELN/LSF) set the owner explicitly instead.
    if (auto* m = dynamic_cast<module*>(parent())) {
        owner_ = m;
        m->register_port(*this);
    }
}

void port_base::set_owner(module& m) {
    owner_ = &m;
    m.register_port(*this);
}

namespace {
void require_unbound(const port_base& port, const signal_base* s, const port_base* f) {
    if (s != nullptr || f != nullptr) {
        util::report_fatal(port.name(), "TDF port is already bound (to " +
                                            (s != nullptr ? s->name() : f->name()) +
                                            "); a port binds exactly one signal or "
                                            "parent port");
    }
}
}  // namespace

void port_base::record_signal_binding(signal_base& s) {
    require_unbound(*this, signal_, forward_);
    signal_ = &s;
}

void port_base::record_port_binding(port_base& p) {
    require_unbound(*this, signal_, forward_);
    util::require(&p != this, name(), "TDF port cannot forward to itself");
    util::require(p.is_input() == is_input_, name(),
                  "TDF port-to-port binding must preserve direction "
                  "(in forwards to in, out forwards to out)");
    forward_ = &p;
}

void port_base::resolve() {
    if (resolved_) return;
    resolved_ = true;
    // Follow the forwarding chain to the terminal signal.  Chains may be
    // resolved in any order: intermediate ports are not required to have
    // resolved already, only to lead to a signal eventually.
    const port_base* p = this;
    int hops = 0;
    while (p->signal_ == nullptr && p->forward_ != nullptr) {
        p = p->forward_;
        util::require(++hops < 1024, name(), "TDF port binding cycle detected");
    }
    if (p->signal_ == nullptr) {
        util::report_fatal(name(), p == this ? "unbound TDF port"
                                             : "unbound TDF port (forwarding chain ends at " +
                                                   p->name() + " without reaching a signal)");
    }
    signal_ = p->signal_;
    // Only dataflow endpoints (ports owned by a tdf::module, including the
    // converter ports ELN/LSF components re-own onto their network) attach
    // to the signal; forwarding ports of composites are aliases.
    if (owner_ != nullptr) {
        if (is_input_) {
            signal_->attach_reader(*this);
        } else {
            signal_->attach_writer(*this);
        }
    }
}

std::size_t port_base::ring_offset() const {
    // Signed/floored modulo: an input's next token index can be negative
    // while the stream is still inside its delay window; the floored result
    // maps it onto the prefilled slot read_token() would return the initial
    // value for (capacity accounting keeps that slot unwritten while any
    // reader still needs it).
    const auto cap = static_cast<std::int64_t>(signal_->capacity());
    std::int64_t s = static_cast<std::int64_t>(position_);
    if (is_input_) s -= static_cast<std::int64_t>(delay_);
    std::int64_t off = s % cap;
    if (off < 0) off += cap;
    return static_cast<std::size_t>(off);
}

std::uint64_t port_base::contiguous_firings(std::uint64_t want) const {
    const std::size_t cap = signal_->capacity();
    const std::uint64_t room =
        static_cast<std::uint64_t>(cap - ring_offset()) / rate_;
    return std::min(want, room);
}

std::string detail::auto_wire_name(const port_base& from) {
    const de::object* parent = from.parent();
    if (parent != nullptr) return parent->basename() + "_" + from.basename();
    return from.basename() + "_wire";
}

void signal_base::attach_writer(port_base& p) {
    if (writer_ != nullptr) {
        util::report_fatal(name(), "TDF signal already has a writer (" + writer_->name() +
                                       "); cannot also attach " + p.name());
    }
    writer_ = &p;
}

void signal_base::attach_reader(port_base& p) { readers_.push_back(&p); }

}  // namespace sca::tdf
