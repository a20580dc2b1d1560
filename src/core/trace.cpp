#include "core/trace.hpp"

namespace disp {

const char* traceEventKindName(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::Move: return "move";
    case TraceEventKind::Settle: return "settle";
    case TraceEventKind::Meeting: return "meeting";
    case TraceEventKind::Subsume: return "subsume";
    case TraceEventKind::Collapse: return "collapse";
    case TraceEventKind::Freeze: return "freeze";
    case TraceEventKind::OscillationDuty: return "oscillation_duty";
    case TraceEventKind::FaultCrash: return "fault_crash";
    case TraceEventKind::FaultRestart: return "fault_restart";
    case TraceEventKind::FaultEdge: return "fault_edge";
    case TraceEventKind::FaultSilent: return "fault_silent";
  }
  return "?";
}

std::optional<TraceEventKind> traceEventKindFromName(std::string_view name) {
  // The kinds are the enum's values from 0 up; the first unnamed one ends them.
  for (std::uint8_t i = 0;; ++i) {
    const auto kind = static_cast<TraceEventKind>(i);
    const std::string_view known = traceEventKindName(kind);
    if (known == "?") return std::nullopt;
    if (known == name) return kind;
  }
}

}  // namespace disp
