// Signals (primitive channels) and ports.
//
// Signals follow the SystemC evaluate/update discipline: writes during the
// evaluation phase are deferred; the new value becomes visible in the update
// phase and, when it differs from the old value, fires the value-changed
// event as a delta notification.
#ifndef SCA_KERNEL_SIGNAL_HPP
#define SCA_KERNEL_SIGNAL_HPP

#include <string>
#include <type_traits>
#include <vector>

#include "kernel/context.hpp"
#include "kernel/event.hpp"
#include "kernel/object.hpp"
#include "util/bytes.hpp"
#include "util/report.hpp"

namespace sca::de {

/// Untyped base so the scheduler can hold a heterogeneous update queue.
class signal_base : public object {
public:
    [[nodiscard]] const char* kind() const noexcept override { return "signal"; }

    /// Event fired (delta) whenever the stored value changes.
    [[nodiscard]] event& value_changed_event() noexcept { return value_changed_; }

    /// Apply the pending write (scheduler, update phase only).
    virtual void update() = 0;

protected:
    explicit signal_base(std::string name)
        : object(std::move(name)), value_changed_(this->name() + ".value_changed") {}

    void request_update() { context().sched().request_update(*this); }

    event value_changed_;
};

/// Typed signal. T must be equality-comparable and copyable.
template <typename T>
class signal : public signal_base {
public:
    explicit signal(std::string name = "signal", T initial = T{})
        : signal_base(std::move(name)), current_(initial), next_(initial) {}

    [[nodiscard]] const T& read() const noexcept { return current_; }

    /// Deferred write; visible after the next update phase.
    void write(const T& value) {
        next_ = value;
        if (!update_requested_) {
            update_requested_ = true;
            request_update();
        }
    }

    /// Write that bypasses the update phase (elaboration-time initialization).
    void initialize(const T& value) {
        current_ = value;
        next_ = value;
    }

    void update() override {
        update_requested_ = false;
        if (next_ == current_) return;
        const bool rising = rising_edge(current_, next_);
        const bool falling = falling_edge(current_, next_);
        current_ = next_;
        value_changed_.notify_delta();
        if (rising && posedge_) posedge_->notify_delta();
        if (falling && negedge_) negedge_->notify_delta();
    }

    /// Edge events are created on demand (only meaningful for bool-like T).
    [[nodiscard]] event& posedge_event() {
        if (!posedge_) posedge_ = std::make_unique<event>(name() + ".posedge");
        return *posedge_;
    }
    [[nodiscard]] event& negedge_event() {
        if (!negedge_) negedge_ = std::make_unique<event>(name() + ".negedge");
        return *negedge_;
    }

    // --- checkpoint/restore ----------------------------------------------------
    // At a settled point the pending write has been applied (current_ ==
    // next_, no update queued), so the value plus the on-demand edge-event
    // existence is the whole state.  Edge events are force-created before
    // the event overlay so a pending notification on one can be replayed.
    [[nodiscard]] bool has_snapshot_state() const noexcept override {
        return std::is_same_v<T, bool> || std::is_arithmetic_v<T>;
    }
    void save_state(util::byte_writer& w) const override {
        if constexpr (std::is_same_v<T, bool>) {
            w.boolean(current_);
        } else if constexpr (std::is_floating_point_v<T>) {
            w.f64(static_cast<double>(current_));
        } else if constexpr (std::is_integral_v<T>) {
            w.i64(static_cast<std::int64_t>(current_));
        } else {
            util::report_fatal("snapshot", "signal '" + name() + "': unsupported type");
        }
        w.boolean(posedge_ != nullptr);
        w.boolean(negedge_ != nullptr);
    }
    void restore_state(util::byte_reader& r) override {
        if constexpr (std::is_same_v<T, bool>) {
            initialize(r.boolean());
        } else if constexpr (std::is_floating_point_v<T>) {
            initialize(static_cast<T>(r.f64()));
        } else if constexpr (std::is_integral_v<T>) {
            initialize(static_cast<T>(r.i64()));
        } else {
            util::report_fatal("snapshot", "signal '" + name() + "': unsupported type");
        }
        if (r.boolean()) (void)posedge_event();
        if (r.boolean()) (void)negedge_event();
    }

private:
    static bool rising_edge(const T& from, const T& to) {
        if constexpr (std::is_same_v<T, bool>) {
            return !from && to;
        } else {
            (void)from;
            (void)to;
            return false;
        }
    }
    static bool falling_edge(const T& from, const T& to) {
        if constexpr (std::is_same_v<T, bool>) {
            return from && !to;
        } else {
            (void)from;
            (void)to;
            return false;
        }
    }

    T current_;
    T next_;
    bool update_requested_ = false;
    std::unique_ptr<event> posedge_;
    std::unique_ptr<event> negedge_;
};

/// Untyped port base; binding is resolved transitively at elaboration.
class port_base : public object {
public:
    [[nodiscard]] const char* kind() const noexcept override { return "port"; }

    /// Bind to a signal or, hierarchically, to another port.  A port binds
    /// exactly once; a second bind throws, naming the port.
    void bind(signal_base& s) {
        require_unbound();
        bound_signal_ = &s;
    }
    void bind(port_base& p) {
        require_unbound();
        bound_port_ = &p;
    }

    [[nodiscard]] bool bound() const noexcept {
        return bound_signal_ != nullptr || bound_port_ != nullptr;
    }

    /// Optional ports may stay unbound through elaboration (reads then fail
    /// at runtime); used for auxiliary outputs a model may not connect.
    void set_optional() noexcept { optional_ = true; }
    [[nodiscard]] bool optional() const noexcept { return optional_; }

    /// True for out<T>: the owner writes the bound signal.  The TDF
    /// synchronization layer lets clusters that only read DE signals batch.
    [[nodiscard]] virtual bool is_output() const noexcept { return false; }

    /// Follow port-to-port chains; sets the final signal. Elaboration only.
    void resolve();

    /// Defer process sensitivity until the bound signal is known.
    void add_pending_sensitivity(method_process& p) { pending_sensitive_.push_back(&p); }

protected:
    explicit port_base(std::string name) : object(std::move(name)) {}

    /// The bound signal as a signal<T>, or the named error `what`.
    template <typename T>
    [[nodiscard]] signal<T>& typed_signal(const char* what) const {
        if (typed_signal_ == nullptr) {
            auto* s = dynamic_cast<signal<T>*>(bound_signal_);
            util::require(s != nullptr, name(), what);
            typed_signal_ = s;
        }
        return *static_cast<signal<T>*>(typed_signal_);
    }

    signal_base* bound_signal_ = nullptr;
    port_base* bound_port_ = nullptr;
    // bound_signal_ once a typed port has checked it is a signal<T>: every
    // later read/write skips the dynamic_cast.  Cleared when resolve() sets
    // bound_signal_.
    mutable signal_base* typed_signal_ = nullptr;
    bool optional_ = false;
    std::vector<method_process*> pending_sensitive_;

private:
    void require_unbound() const;
};

/// Input port for signal<T>.
template <typename T>
class in : public port_base {
public:
    explicit in(std::string name = "in") : port_base(std::move(name)) {}

    [[nodiscard]] const T& read() const {
        return typed_signal<T>("read of unbound port").read();
    }

    [[nodiscard]] event& value_changed_event() {
        return typed_signal<T>("event of unbound port").value_changed_event();
    }
    [[nodiscard]] event& posedge_event() {
        return typed_signal<T>("event of unbound port").posedge_event();
    }
    [[nodiscard]] event& negedge_event() {
        return typed_signal<T>("event of unbound port").negedge_event();
    }

    void operator()(signal<T>& s) { this->bind(s); }
    void operator()(in<T>& p) { this->bind(p); }
};

/// Output port for signal<T>. Also readable (like sc_inout).
template <typename T>
class out : public port_base {
public:
    explicit out(std::string name = "out") : port_base(std::move(name)) {}

    [[nodiscard]] bool is_output() const noexcept override { return true; }

    void write(const T& value) { typed_signal<T>("write to unbound port").write(value); }
    [[nodiscard]] const T& read() const {
        return typed_signal<T>("read of unbound port").read();
    }
    [[nodiscard]] event& value_changed_event() {
        return typed_signal<T>("event of unbound port").value_changed_event();
    }

    void operator()(signal<T>& s) { this->bind(s); }
    void operator()(out<T>& p) { this->bind(p); }
};

}  // namespace sca::de

#endif  // SCA_KERNEL_SIGNAL_HPP
