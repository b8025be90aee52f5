#include "baselines/hooks.hpp"

#include "common/logging.hpp"
#include "trace/trace.hpp"

namespace turq::baselines {

void Decision::decide(const runtime::Runtime& rt, ProcessId id, Value v,
                      std::uint32_t round) {
  if (value_.has_value()) return;
  value_ = v;
  round_ = round;
  TURQ_DEBUG("p%u decided %s in round %u t=%.3fms", id, to_string(v).c_str(),
             round, to_milliseconds(rt.now()));
  TURQ_TRACE_EVENT(.at = rt.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kDecide, .process = id, .phase = round,
                   .value = static_cast<std::int64_t>(v));
  if (on_decide_) on_decide_(v, round, rt.now());
}

}  // namespace turq::baselines
