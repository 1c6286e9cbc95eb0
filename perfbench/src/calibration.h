// Machine-speed calibration.
//
// The benchmark's gated times are scaled by how fast the machine ran a
// fixed piece of reference work just before each round. On a shared host
// the speed of the whole VM drifts by up to 1.8x within minutes (set-up,
// checkpoint, restart and pump times all move together), which no bound a
// benchmark may set absorbs; the reference work moves with it, while no
// change to stdchk can move the reference work (it calls no stdchk code).
#pragma once

namespace perfbench {

// Wall time of the reference work (allocate, fill, copy and hash 4 MiB
// twice, then build a 4096-entry std::map), in ms; the faster of two runs.
double CalibrationMs();

// The reference work's time that scaled values are expressed at: a scaled
// time reads as what it would have been on a machine that runs the
// reference work in this many ms.
inline constexpr double kReferenceCalibrationMs = 5.0;

}  // namespace perfbench
