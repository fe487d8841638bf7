// perfbench: one run of one workload, printing the raw measurements as a
// single JSON line for perfbench/run.py.
//
//   perfbench --workload tdf_dataflow|sweep_mp|server_stream
//             --seed N --seconds S --trace 0|1
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload tdf_dataflow|sweep_mp|server_stream"
                 " --seed N --seconds S --trace 0|1\n";
    std::exit(2);
}

perfbench::options parse(int argc, char** argv) {
    perfbench::options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) usage("missing value for " + arg);
        const std::string val = argv[++i];
        try {
            if (arg == "--workload") {
                opt.workload = val;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(val);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(val);
            } else if (arg == "--trace") {
                opt.trace = std::stoi(val) != 0;
            } else {
                usage("unknown option " + arg);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + arg + ": " + val);
        }
    }
    if (opt.seconds <= 0.0) usage("--seconds must be positive");
    return opt;
}

}  // namespace

int main(int argc, char** argv) {
    const perfbench::options opt = parse(argc, argv);
    perfbench::report rep;
    try {
        if (opt.workload == "tdf_dataflow") {
            perfbench::tdf_dataflow(opt, rep);
        } else if (opt.workload == "sweep_mp") {
            perfbench::sweep_mp(opt, rep);
        } else if (opt.workload == "server_stream") {
            perfbench::server_stream(opt, rep);
        } else {
            usage("unknown workload '" + opt.workload + "'");
        }
    } catch (const std::exception& e) {
        rep.op("workload", false, e.what());
    }
    rep.value("peak_rss_mb", perfbench::peak_rss_mb());
    std::cout << rep.to_json(opt) << std::endl;
    return 0;
}
