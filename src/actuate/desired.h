// Versioned desired state for the reconciling actuator (src/actuate/).
//
// The autoscaler's Decide/FastReact output is no longer applied imperatively:
// it is *published* as a DesiredState stamped with a monotonically increasing
// generation, and an actuator (virtual-time in the engines, a real thread in
// faro_serve) converges the cluster toward the latest published generation.
// The generation is the fencing token: a publish whose generation is not
// strictly greater than the newest one seen is stale -- a delayed or replayed
// command -- and is discarded rather than applied out of order.

#ifndef SRC_ACTUATE_DESIRED_H_
#define SRC_ACTUATE_DESIRED_H_

#include <cstdint>
#include <vector>

namespace faro {

struct DesiredState {
  // Monotone version stamp; 0 is reserved for "nothing published yet".
  uint64_t generation = 0;
  // Sim time (virtual-time mode) or relative wall seconds (live mode) at
  // which the state was published; time-to-converge is measured from here.
  double published_s = 0.0;
  // Absolute per-job replica targets, already clamped to >= 1 (the engine's
  // historical floor -- a job never scales to zero replicas).
  std::vector<uint32_t> replicas;
  // Optional per-job drop rates (empty = leave router drop rates untouched).
  std::vector<double> drop_rates;
};

}  // namespace faro

#endif  // SRC_ACTUATE_DESIRED_H_
