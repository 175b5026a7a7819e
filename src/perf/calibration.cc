#include "perf/calibration.h"

namespace sgxb::perf {

const CalibrationParams& CalibrationParams::Default() {
  static const CalibrationParams kParams;
  return kParams;
}

}  // namespace sgxb::perf
