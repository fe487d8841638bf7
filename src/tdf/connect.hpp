// Point-to-point TDF wiring without boilerplate signal declarations.
//
//   connect(src.out, lna.in);        // auto-creates the intermediate signal
//   src.out >> lna.in;               // same, operator form
//   auto& w = connect(a.out, b.in);  // the signal is returned for probing
//   connect(a.out, c.in);            // fan-out: reuses a.out's signal
//
// The auto-created signal is owned by the per-context TDF registry (it lives
// until the simulation context dies) and is named after the writer port; when
// called during a composite's construction the signal nests below the
// composite in the object hierarchy.
#ifndef SCA_TDF_CONNECT_HPP
#define SCA_TDF_CONNECT_HPP

#include <memory>
#include <string>
#include <utility>

#include "tdf/cluster.hpp"
#include "tdf/port.hpp"

namespace sca::tdf {

/// Bind `from` and `to` through a tdf::signal<T>, creating (and owning) the
/// signal when `from` is not yet attached to one.  Returns the signal so
/// callers can probe it.  Repeated connects from the same output fan out on
/// the one signal (naming the wire is only allowed on the connect that
/// creates it); connecting an already-bound input is a binding error.
template <typename T>
signal<T>& connect(out<T>& from, in<T>& to, std::string name = "") {
    from.context().make_current();
    if (auto* existing = dynamic_cast<signal<T>*>(from.bound_signal())) {
        if (!name.empty()) {
            util::report_fatal(from.name(),
                               "connect: wire name '" + name +
                                   "' cannot be applied — this output already drives signal '" +
                                   existing->name() + "' (name the first connect instead)");
        }
        to.bind(*existing);
        return *existing;
    }
    if (name.empty()) name = detail::auto_wire_name(from);
    auto owned = std::make_unique<signal<T>>(std::move(name));
    auto& s = static_cast<signal<T>&>(
        registry::of(from.context()).adopt_signal(std::move(owned)));
    from.bind(s);
    to.bind(s);
    return s;
}

/// `a.out >> b.in` — the operator spelling of connect().
template <typename T>
signal<T>& operator>>(out<T>& from, in<T>& to) {
    return connect(from, to);
}

}  // namespace sca::tdf

#endif  // SCA_TDF_CONNECT_HPP
