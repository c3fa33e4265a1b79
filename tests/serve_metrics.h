// Registry reads the serving tests share (src/obs/metrics.h). The
// service exports dispositions, not a "served" total, so the tests sum
// them the way docs/observability.md defines it.

#ifndef PITEX_TESTS_SERVE_METRICS_H_
#define PITEX_TESTS_SERVE_METRICS_H_

#include <cstdint>

#include "src/obs/metrics.h"

namespace pitex {

/// Queries answered: ok (cache hits included) + degraded +
/// deadline-expired. Shed queries were never served.
inline uint64_t QueriesServed(const obs::MetricsSnapshot& snap) {
  return snap.CounterValue("pitex_queries_ok_total") +
         snap.CounterValue("pitex_queries_degraded_total") +
         snap.CounterValue("pitex_queries_deadline_expired_total");
}

}  // namespace pitex

#endif  // PITEX_TESTS_SERVE_METRICS_H_
