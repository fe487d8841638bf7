// Phase-locked loop (paper phase 2: RF/wireless building blocks).
//
// lib::pll is the compact behavioral PLL in one TDF module (multiplying
// phase detector, one-pole loop filter, PI control, VCO).  Keeping the loop
// internal avoids any scheduling subtlety in the feedback path.
#ifndef SCA_LIB_PLL_HPP
#define SCA_LIB_PLL_HPP

#include "tdf/module.hpp"

namespace sca::lib {

class pll : public tdf::module {
public:
    tdf::in<double> ref;      // reference input (around f0)
    tdf::out<double> out;     // VCO output
    tdf::out<double> control;  // loop control voltage (for lock detection)

    /// `f0` free-running VCO frequency, `kv` VCO gain (Hz/V),
    /// `loop_bw` loop-filter bandwidth (Hz).
    pll(const de::module_name& nm, double f0, double kv, double loop_bw);

    void initialize() override;
    void processing() override;

    /// Instantaneous VCO frequency (valid during simulation).
    [[nodiscard]] double vco_frequency() const noexcept { return f_now_; }

private:
    double f0_;
    double kv_;
    double loop_bw_;
    double h_ = 0.0;        // resolved timestep
    double alpha_ = 1.0;    // loop-filter smoothing coefficient
    double phase_ = 0.0;    // VCO phase
    double lf_state_ = 0.0;  // loop-filter state
    double integ_ = 0.0;     // PI integrator
    double f_now_ = 0.0;
};

}  // namespace sca::lib

#endif  // SCA_LIB_PLL_HPP
