#include "obs/profile.hpp"

namespace kelle {
namespace obs {

const char *
PhaseProfiler::phaseName(Phase p)
{
    switch (p) {
      case Phase::TraceGen:
        return "trace_gen";
      case Phase::SerialDrive:
        return "serial_drive";
      case Phase::FastForward:
        return "fast_forward";
      case Phase::RollUp:
        return "roll_up";
      case Phase::kCount:
        break;
    }
    return "?";
}

double
PhaseProfiler::totalSeconds() const
{
    double total = 0.0;
    for (std::size_t i = 0; i < kPhases; ++i)
        total += seconds(static_cast<Phase>(i));
    return total;
}

} // namespace obs
} // namespace kelle
