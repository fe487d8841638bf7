#include "core/scenario.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "tdf/dae_module.hpp"

namespace sca::core {

void record(de::simulation_context& ctx, util::trace_file& file, const de::time& period) {
    util::require(period > de::time::zero(), "core::record", "trace period must be positive");
    ctx.register_method("trace_recorder", [&ctx, &file, period] {
        file.sample(ctx.now().to_seconds());
        ctx.next_trigger(period);
    });
}

// ----------------------------------------------------------------- params --

double params::get(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    if (!std::holds_alternative<double>(it->second)) {
        util::report_fatal("params", "parameter '" + name + "' is not numeric");
    }
    return std::get<double>(it->second);
}

std::string params::get(const std::string& name, const std::string& fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    if (!std::holds_alternative<std::string>(it->second)) {
        util::report_fatal("params", "parameter '" + name + "' is not a string");
    }
    return std::get<std::string>(it->second);
}

double params::number(const std::string& name) const {
    if (!has(name)) util::report_fatal("params", "missing required parameter '" + name + "'");
    return get(name, 0.0);
}

std::string params::text(const std::string& name) const {
    if (!has(name)) util::report_fatal("params", "missing required parameter '" + name + "'");
    return get(name, std::string());
}

params params::merged_onto(const params& defaults) const {
    params out = defaults;
    for (const auto& [name, v] : values_) out.values_[name] = v;
    out.run_index_ = run_index_;
    out.seed_ = seed_;
    return out;
}

// -------------------------------------------------------------- testbench --

testbench::testbench(std::string name)
    : name_(std::move(name)), ctx_(std::make_unique<de::simulation_context>()) {}

testbench::~testbench() {
    // Model objects must unregister from a live context: activate ours (the
    // thread may have another testbench current) and drop them explicitly
    // before the members' natural teardown reaches ctx_.
    activate();
    bag_.clear();
}

void testbench::probe(std::string name, std::function<double()> fn) {
    // The recorder process arms at the first run's initialization phase, so
    // later probes could never fire — reject them instead of losing data.
    util::require(!has_run_, "testbench", "probes must be added before the first run");
    trace_.add_channel(std::move(name), std::move(fn));
}

void testbench::measure(std::string name, std::function<double()> fn) {
    measurement_defs_.emplace_back(std::move(name), std::move(fn));
}

void testbench::on_param(std::string name, std::function<void(double)> apply) {
    util::require(static_cast<bool>(apply), "testbench", "param hook must be callable");
    param_hooks_[std::move(name)] = std::move(apply);
}

void testbench::poke(const std::string& name, double value) {
    auto it = param_hooks_.find(name);
    if (it == param_hooks_.end()) {
        util::report_fatal("testbench", "no param hook registered for '" + name + "'");
    }
    activate();
    it->second(value);
}

std::vector<std::string> testbench::param_names() const {
    std::vector<std::string> names;
    names.reserve(param_hooks_.size());
    for (const auto& [name, fn] : param_hooks_) names.push_back(name);
    return names;
}

double testbench::note(const std::string& name) const {
    auto it = notes_.find(name);
    if (it == notes_.end()) util::report_fatal("testbench", "unknown note '" + name + "'");
    return it->second;
}

void testbench::elaborate() {
    activate();
    ctx_->elaborate();
}

void testbench::run() {
    util::require(stop_time_ > de::time::zero(), "testbench",
                  "set_stop_time before run(), or pass an explicit duration");
    run(stop_time_);
}

void testbench::run(const de::time& duration) {
    attach_trace();
    ctx_->run(duration);
    measured_.clear();
    for (const auto& [name, fn] : measurement_defs_) measured_[name] = fn();
}

void testbench::attach_trace_for_resume() { attach_trace(); }

void testbench::attach_trace() {
    activate();
    has_run_ = true;
    if (trace_attached_ || trace_.channel_count() == 0) return;
    util::require(sample_period_ > de::time::zero(), "testbench",
                  "set_sample_period before running with probes");
    record(*ctx_, trace_, sample_period_);
    trace_attached_ = true;
}

std::vector<double> testbench::waveform(const std::string& probe_name) const {
    for (std::size_t c = 0; c < trace_.channel_count(); ++c) {
        if (trace_.channel_name(c) == probe_name) return trace_.column(c);
    }
    util::report_fatal("testbench", "unknown probe '" + probe_name + "'");
}

std::vector<std::string> testbench::probe_names() const {
    std::vector<std::string> names;
    names.reserve(trace_.channel_count());
    for (std::size_t c = 0; c < trace_.channel_count(); ++c) {
        names.push_back(trace_.channel_name(c));
    }
    return names;
}

double testbench::measurement(const std::string& name) const {
    auto it = measured_.find(name);
    if (it == measured_.end()) {
        util::report_fatal("testbench",
                           "unknown measurement '" + name + "' (did the run finish?)");
    }
    return it->second;
}

void testbench::save_trace(const std::string& path) const {
    util::tabular_trace_file out(path);
    for (std::size_t c = 0; c < trace_.channel_count(); ++c) {
        out.add_channel(trace_.channel_name(c), [] { return 0.0; });
    }
    const auto& times = trace_.times();
    for (std::size_t i = 0; i < times.size(); ++i) out.replay_row(times[i], trace_.row(i));
    out.close();
}

tdf::dae_module& testbench::view() {
    elaborate();
    tdf::dae_module* found = nullptr;
    for (de::object* o : context().objects()) {
        if (auto* v = dynamic_cast<tdf::dae_module*>(o)) {
            util::require(found == nullptr, "testbench",
                          "several continuous-time views exist; use view(name)");
            found = v;
        }
    }
    util::require(found != nullptr, "testbench", "no continuous-time view in testbench");
    return *found;
}

tdf::dae_module& testbench::view(const std::string& full_name) {
    elaborate();
    de::object* o = context().find_object(full_name);
    if (o == nullptr) util::report_fatal("testbench", "no object named '" + full_name + "'");
    auto* v = dynamic_cast<tdf::dae_module*>(o);
    if (v == nullptr) {
        util::report_fatal("testbench", "'" + full_name + "' is not a continuous-time view");
    }
    return *v;
}

// --------------------------------------------------------------- scenario --

struct scenario::impl {
    std::string name;
    params defaults;
    build_fn build;
};

namespace {
std::mutex& registry_mutex() {
    static std::mutex m;
    return m;
}
std::unordered_map<std::string, std::shared_ptr<const scenario::impl>>& registry() {
    static std::unordered_map<std::string, std::shared_ptr<const scenario::impl>> reg;
    return reg;
}
}  // namespace

scenario scenario::define(std::string name, build_fn build) {
    return define(std::move(name), params{}, std::move(build));
}

scenario scenario::define(std::string name, params defaults, build_fn build) {
    util::require(static_cast<bool>(build), "scenario", "build function must be set");
    auto i = std::make_shared<const impl>(
        impl{std::move(name), std::move(defaults), std::move(build)});
    {
        std::lock_guard<std::mutex> lock(registry_mutex());
        registry()[i->name] = i;  // redefinition replaces (tests, notebooks)
    }
    return scenario(std::move(i));
}

scenario scenario::find(const std::string& name) {
    std::lock_guard<std::mutex> lock(registry_mutex());
    auto it = registry().find(name);
    if (it == registry().end()) {
        util::report_fatal("scenario", "no scenario named '" + name + "'");
    }
    return scenario(it->second);
}

std::vector<std::string> scenario::names() {
    std::lock_guard<std::mutex> lock(registry_mutex());
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const auto& [name, i] : registry()) names.push_back(name);
    std::sort(names.begin(), names.end());
    return names;
}

const std::string& scenario::name() const {
    util::require(impl_ != nullptr, "scenario", "empty scenario handle");
    return impl_->name;
}

const params& scenario::defaults() const {
    util::require(impl_ != nullptr, "scenario", "empty scenario handle");
    return impl_->defaults;
}

std::unique_ptr<testbench> scenario::build(const params& overrides) const {
    util::require(impl_ != nullptr, "scenario", "empty scenario handle");
    auto tb = std::make_unique<testbench>(impl_->name);
    params merged = overrides.merged_onto(impl_->defaults);
    tb->set_parameters(merged);
    impl_->build(*tb, tb->parameters());
    return tb;
}

namespace detail {
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) noexcept {
    std::uint64_t x = base ^ (index + 1);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}
}  // namespace detail

}  // namespace sca::core
