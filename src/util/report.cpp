#include "util/report.hpp"

namespace sca::util {

namespace {
// Thread-local so that concurrent scenario runs (core/run_set) collect their
// diagnostics independently: a worker thread never sees another run's
// warnings, and no locking is needed on the report path.
std::vector<std::string>& warning_store() {
    thread_local std::vector<std::string> store;
    return store;
}
}  // namespace

void report_fatal(std::string_view context, std::string_view what) {
    throw error(context, what);
}

void report_warning(std::string_view context, std::string_view what) {
    warning_store().push_back(std::string(context) + ": " + std::string(what));
}

const std::vector<std::string>& warnings() { return warning_store(); }

void clear_reports() { warning_store().clear(); }

}  // namespace sca::util
