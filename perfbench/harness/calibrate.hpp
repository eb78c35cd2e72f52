// Machine-speed calibration.
//
// The benchmark shares its host with other tenants, whose load changes
// the speed of a core by tens of percent over minutes, for every program
// alike. To keep runs comparable, every set-up and execution is bracketed
// by runs of a fixed calibration kernel that uses none of the code under
// test (string building, sorting and hashing with the standard library,
// and dependent loads over a few MiB: allocation-, branch- and
// cache-bound like the data plane). A run's times are then scaled by the
// kernel's reference time over the median of all its kernel timings, so a
// uniformly slower host reads the same and a faster program reads faster.
#pragma once

#include <vector>

namespace perfbench {

/// The calibrated unit: calibrated times read in seconds of a machine on
/// which one kernel run takes exactly this long (a lightly loaded 4-vCPU
/// x86-64 guest takes about 9-11 ms).
inline constexpr double kCalibrationReferenceS = 0.010;

/// Append `reps` timings (seconds) of the calibration kernel to `samples`.
void sample_calibration(std::vector<double>& samples, int reps = 5);

/// Host speed relative to the reference machine: the reference time over
/// the median of `samples` (non-empty).
double host_scale(const std::vector<double>& samples);

}  // namespace perfbench
