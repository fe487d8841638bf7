// Reporting, tracing, FFT, waveform, and measurement utility tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <numbers>

#include "util/fft.hpp"
#include "util/measure.hpp"
#include "util/report.hpp"
#include "util/trace.hpp"
#include "util/waveform.hpp"

namespace util = sca::util;

TEST(report, fatal_throws_with_context) {
    try {
        util::report_fatal("widget", "broke");
        FAIL() << "expected throw";
    } catch (const util::error& e) {
        EXPECT_EQ(e.context(), "widget");
        EXPECT_STREQ(e.what(), "widget: broke");
    }
}

TEST(report, warnings_are_collected) {
    util::clear_reports();
    util::report_warning("a", "one");
    util::report_warning("b", "two");
    ASSERT_EQ(util::warnings().size(), 2U);
    EXPECT_EQ(util::warnings()[1], "b: two");
    util::clear_reports();
    EXPECT_TRUE(util::warnings().empty());
}

TEST(report, require_passes_and_fails) {
    EXPECT_NO_THROW(util::require(true, "x", "y"));
    EXPECT_THROW(util::require(false, "x", "y"), util::error);
}

TEST(fft, roundtrip_identity) {
    std::vector<std::complex<double>> data(64);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = std::complex<double>(std::sin(0.3 * static_cast<double>(i)),
                                       std::cos(0.7 * static_cast<double>(i)));
    }
    auto copy = data;
    util::fft(copy);
    util::fft(copy, /*inverse=*/true);
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_NEAR(std::abs(copy[i] - data[i]), 0.0, 1e-10);
    }
}

TEST(fft, rejects_non_power_of_two) {
    std::vector<std::complex<double>> data(10);
    EXPECT_THROW(util::fft(data), util::error);
}

TEST(fft, sine_peak_at_expected_bin) {
    const double fs = 1024.0;
    const double f0 = 128.0;
    std::vector<double> sig(1024);
    for (std::size_t i = 0; i < sig.size(); ++i) {
        sig[i] = std::sin(2.0 * std::numbers::pi * f0 * static_cast<double>(i) / fs);
    }
    const auto bins = util::magnitude_spectrum(sig, fs, /*hann=*/false);
    std::size_t peak = 1;
    for (std::size_t k = 2; k < bins.size(); ++k) {
        if (bins[k].magnitude > bins[peak].magnitude) peak = k;
    }
    EXPECT_NEAR(bins[peak].frequency, f0, fs / 1024.0);
    EXPECT_NEAR(bins[peak].magnitude, 1.0, 0.05);
}

TEST(measure, rms_and_mean) {
    EXPECT_DOUBLE_EQ(util::mean({1.0, 3.0}), 2.0);
    EXPECT_NEAR(util::rms({3.0, 4.0}), std::sqrt(12.5), 1e-12);
}

TEST(measure, sinad_of_clean_sine_is_high) {
    const double fs = 8192.0;
    std::vector<double> sig(8192);
    for (std::size_t i = 0; i < sig.size(); ++i) {
        sig[i] = std::sin(2.0 * std::numbers::pi * 1000.0 * static_cast<double>(i) / fs);
    }
    EXPECT_GT(util::sinad_db(sig, fs), 80.0);
}

TEST(measure, sinad_degrades_with_noise) {
    const double fs = 8192.0;
    std::vector<double> clean(8192), noisy(8192);
    unsigned lcg = 12345;
    for (std::size_t i = 0; i < clean.size(); ++i) {
        const double s =
            std::sin(2.0 * std::numbers::pi * 1000.0 * static_cast<double>(i) / fs);
        lcg = lcg * 1664525U + 1013904223U;
        const double n = (static_cast<double>(lcg) / 4294967296.0 - 0.5) * 0.2;
        clean[i] = s;
        noisy[i] = s + n;
    }
    EXPECT_GT(util::sinad_db(clean, fs), util::sinad_db(noisy, fs) + 20.0);
}

TEST(measure, enob_conversion) {
    EXPECT_NEAR(util::enob(74.0), 12.0, 0.01);
}

TEST(measure, first_rising_crossing_interpolates) {
    const std::vector<double> t{0.0, 1.0, 2.0};
    const std::vector<double> x{0.0, 0.0, 1.0};
    EXPECT_NEAR(util::first_rising_crossing(t, x, 0.5), 1.5, 1e-12);
    EXPECT_DOUBLE_EQ(util::first_rising_crossing(t, x, 2.0), -1.0);
}

TEST(measure, settled_checks_tail) {
    std::vector<double> x(100, 1.0);
    x[10] = 5.0;  // early transient does not matter
    EXPECT_TRUE(util::settled(x, 1.0, 0.01, 0.5));
    x[99] = 2.0;
    EXPECT_FALSE(util::settled(x, 1.0, 0.01, 0.5));
}

TEST(waveform, dc_pulse_sine_pwl) {
    const auto d = util::waveform::dc(2.5);
    EXPECT_TRUE(d.is_dc());
    EXPECT_DOUBLE_EQ(d.at(123.0), 2.5);

    const auto s = util::waveform::sine(2.0, 50.0, 1.0);
    EXPECT_NEAR(s.at(0.0), 1.0, 1e-12);
    EXPECT_NEAR(s.at(0.005), 3.0, 1e-9);  // quarter period of 50 Hz

    const auto p = util::waveform::pulse(0.0, 1.0, 1e-3, 1e-4, 1e-4, 4e-4, 1e-3);
    EXPECT_DOUBLE_EQ(p.at(0.0), 0.0);
    EXPECT_NEAR(p.at(1e-3 + 5e-5), 0.5, 1e-9);   // mid-rise
    EXPECT_DOUBLE_EQ(p.at(1e-3 + 3e-4), 1.0);    // plateau
    EXPECT_DOUBLE_EQ(p.at(1e-3 + 9e-4), 0.0);    // low phase

    const auto w = util::waveform::pwl({{0.0, 0.0}, {1.0, 10.0}});
    EXPECT_NEAR(w.at(0.25), 2.5, 1e-12);
    EXPECT_DOUBLE_EQ(w.at(2.0), 10.0);
}

TEST(trace, memory_trace_records_rows) {
    util::memory_trace tr;
    double v = 1.0;
    tr.add_channel("v", [&v] { return v; });
    tr.sample(0.0);
    v = 2.0;
    tr.sample(1.0);
    ASSERT_EQ(tr.times().size(), 2U);
    EXPECT_DOUBLE_EQ(tr.column(0)[0], 1.0);
    EXPECT_DOUBLE_EQ(tr.column(0)[1], 2.0);
}

TEST(trace, cannot_add_channel_after_sampling) {
    util::memory_trace tr;
    tr.add_channel("a", [] { return 0.0; });
    tr.sample(0.0);
    EXPECT_THROW(tr.add_channel("b", [] { return 0.0; }), util::error);
}

TEST(trace, late_channel_error_names_the_channel) {
    util::memory_trace tr;
    tr.add_channel("a", [] { return 0.0; });
    tr.sample(0.0);
    try {
        tr.add_channel("vout_late", [] { return 0.0; });
        FAIL() << "expected late add_channel to throw";
    } catch (const util::error& e) {
        EXPECT_NE(std::string(e.what()).find("vout_late"), std::string::npos)
            << e.what();
    }
}

TEST(trace, tabular_file_writes_header_and_rows) {
    const std::string path = ::testing::TempDir() + "sca_tab_trace.dat";
    {
        util::tabular_trace_file tr(path);
        tr.add_channel("x", [] { return 42.0; });
        tr.sample(0.5);
        tr.close();
    }
    std::ifstream in(path);
    std::string line1, line2;
    std::getline(in, line1);
    std::getline(in, line2);
    EXPECT_EQ(line1, "%time x");
    EXPECT_EQ(line2, "0.5 42");
    std::remove(path.c_str());
}

TEST(trace, vcd_file_emits_value_changes_only) {
    const std::string path = ::testing::TempDir() + "sca_vcd_trace.vcd";
    {
        util::vcd_trace_file tr(path);
        double v = 1.0;
        tr.add_channel("sig", [&v] { return v; });
        tr.sample(0.0);
        tr.sample(1e-9);  // unchanged: no emission
        v = 2.0;
        tr.sample(2e-9);
        tr.close();
    }
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    // Stamps count the declared 1 ps timescale: the 2 ns sample is #2000.
    EXPECT_EQ(content.rfind("$timescale 1 ps $end\n", 0), 0U) << content;
    EXPECT_NE(content.find("r1 !"), std::string::npos);
    EXPECT_NE(content.find("#2000\nr2 !"), std::string::npos) << content;
    EXPECT_EQ(content.find("#1000\n"), std::string::npos);  // the silent sample
    std::remove(path.c_str());
}
