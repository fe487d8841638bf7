// Diagnostic reporting for the sca-sim library.
//
// All library errors are reported through these helpers so that user code has
// a single exception type to catch (`sca::util::error`) and so that warnings
// are collected centrally.
#ifndef SCA_UTIL_REPORT_HPP
#define SCA_UTIL_REPORT_HPP

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sca::util {

/// Exception thrown for every unrecoverable library error.
///
/// The message always has the form "<context>: <what>", where the context
/// names the module, port, or analysis that raised the error.
class error : public std::runtime_error {
public:
    error(std::string_view context, std::string_view what)
        : std::runtime_error(std::string(context) + ": " + std::string(what)),
          context_(context) {}

    /// Name of the library entity that raised the error.
    [[nodiscard]] const std::string& context() const noexcept { return context_; }

private:
    std::string context_;
};

/// Raise a fatal diagnostic: throws sca::util::error.
[[noreturn]] void report_fatal(std::string_view context, std::string_view what);

/// Record a warning. Warnings are collected and retrievable for tests.
void report_warning(std::string_view context, std::string_view what);

/// All warnings recorded since the last clear_reports() call.
/// Diagnostics are collected per thread: a worker running one scenario of a
/// parallel run_set only ever observes its own run's warnings.
[[nodiscard]] const std::vector<std::string>& warnings();

/// Drop all collected warnings.
void clear_reports();

/// Throw sca::util::error with the given context if `condition` is false.
inline void require(bool condition, std::string_view context, std::string_view what) {
    if (!condition) report_fatal(context, what);
}

}  // namespace sca::util

#endif  // SCA_UTIL_REPORT_HPP
