#include "src/sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "src/common/pool.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/faults/injector.h"
#include "src/obs/metrics.h"
#include "src/sim/event_queue.h"
#include "src/sim/sim_internal.h"

namespace faro {

namespace {

using sim_internal::CloseMetricsWindowCore;
using sim_internal::CollectJobMetrics;
using sim_internal::FinalizeJobStats;
using sim_internal::JobState;
using sim_internal::kInfLatency;
using sim_internal::UpdateOverloadTimerCore;

// Metrics windows are one sim-minute long, matching the per-minute trace
// rates and §6's per-minute metric definitions.
constexpr double kMetricsWindowS = 60.0;
// Per-minute arrival-rate observations exposed to predictors.
constexpr size_t kHistorySteps = 30;

// The reconciler runs ReconcilerConfig's default retry/backoff settings. Its
// jitter seed is derived from the run seed so distinct trials get distinct
// (but reproducible) retry schedules; the trailing zero mix-in keeps those
// schedules identical to earlier runs.
ReconcilerConfig SimReconcilerConfig(uint64_t seed) {
  ReconcilerConfig rc;
  rc.seed = HashCombine(HashCombine(seed, 0xac70a7eull), 0);
  return rc;
}

// The engine: one event loop, one RNG stream shared by every job. The
// future-event set (EventQueue) pops in (time, sequence) order from a binary
// heap and the current minute's sorted arrival batch; per-request state
// lives in a struct-of-arrays RequestPool instead of per-job deques.
//
// The engine is a SimStepper: Init() primes the run, StepUntil() drains the
// event loop up to a sim-time target, Finish() aggregates. The batch path
// (RunSimulation) is Init + StepUntil(+inf) + Finish, so paced and batch
// runs execute identical code over the identical event order.
//
// Actuation goes through the reconciler (src/actuate/), as Kubernetes
// converges replicas level-triggered toward a desired count: decisions are
// published as versioned desired states and the engine itself is the
// ClusterPort the reconciler converges. The first reconcile pass of a
// generation applies the decision; repair passes run at reactive ticks and
// are zero-draw no-ops while the fleet holds its targets. A fault-free fleet
// can still fall short: policies count draining replicas (busy replicas an
// earlier downscale left to finish their request) as ready, so a target can
// include them, and a repair pass provisions them again once they exit
// (DESIGN.md, "Repair of drained replicas").
class Simulation final : public SimStepper, private ClusterPort {
 public:
  Simulation(const SimConfig& config, const std::vector<SimJobConfig>& jobs,
             AutoscalingPolicy& policy)
      : config_(config), jobs_(jobs), policy_(policy), rng_(config.seed),
        trace_(config.trace), injector_(config.faults, config.seed),
        reconciler_(SimReconcilerConfig(config.seed)) {}

  void Init();
  void StepUntil(double until_s) override;
  RunResult Finish() override;
  double duration_s() const override { return duration_; }
  double now_s() const override { return now_; }
  bool done() const override { return done_; }

 private:
  void Push(double time, EventKind kind, uint32_t job, double payload = 0.0) {
    events_.Push(Event{time, kind, job, sequence_++, payload});
  }

  // Generates the next minute's Poisson arrivals for every job.
  void ScheduleMinuteArrivals(size_t minute);

  void HandleArrival(const Event& event);
  void HandleCompletion(const Event& event);
  void HandleReplicaReady(const Event& event);
  void StartServiceIfPossible(uint32_t job);
  void RecordLatency(uint32_t job, double latency);

  // --- reconciling actuator (src/actuate/) --------------------------------
  // Publishes one decision as the next desired-state generation and runs its
  // first reconcile pass (the historical in-step apply).
  void PublishAction(const ScalingAction& action);
  // One reconcile pass; emits the convergence audit record when a generation
  // converges. Zero RNG draws while the fleet holds its targets.
  void RunReconcilePass();
  // Actuation-fault outcome for a scale-up of `add` replicas of job j (the
  // PR 5 drop/delay/partial switch); returns the count to provision now.
  uint32_t DrawActuationFor(uint32_t j, uint32_t add);
  // ClusterPort: the reconciler sees the engine itself as the cluster.
  size_t num_jobs() const override { return jobs_.size(); }
  uint32_t Fleet(size_t job) const override {
    return state_[job].ready + state_[job].starting + pending_placement_[job];
  }
  uint32_t ApplyTarget(size_t job, uint32_t target, bool first_pass,
                       double now_s) override;
  void SetDropRate(size_t job, double rate) override;

  void UpdateOverloadTimers();
  const std::vector<JobMetrics>& CollectMetrics();

  // --- chaos-injection hooks (src/faults/) --------------------------------
  // Kills up to `want` replicas of job j: cold starts are cancelled first,
  // then idle replicas die immediately, then busy replicas drain out via
  // pending_removal. `placement_freed` marks node evictions whose placements
  // RemoveNodeReplicas already released. Returns replicas actually killed.
  uint32_t KillReplicas(uint32_t j, uint32_t want, bool placement_freed);
  // Correlated burst against one job (or all jobs when job < 0).
  void ApplyBurst(int32_t job, double fraction, uint32_t count);
  void HandleFaultEvent(const FaultEvent& fault);
  // Stochastic correlated bursts, drawn once per reactive tick.
  void InjectStochasticFaults();
  // Integrates the per-job replica deficit left behind by kills (recovery
  // metrics); pure arithmetic, no RNG, zero work when nothing was killed.
  void AccountFaultDeficits();
  void RecordFault(const char* what, const std::string& target, uint32_t count);
  // Cluster capacity as the policy should see it: the configured resources
  // minus crashed/drained node capacity. Returns the exact configured object
  // when every node is up, keeping no-fault runs bit-identical.
  ClusterResources EffectiveResources() const {
    if (down_cpu_ <= 0.0 && down_mem_ <= 0.0) {
      return config_.resources;
    }
    return ClusterResources{std::max(0.0, config_.resources.cpu - down_cpu_),
                            std::max(0.0, config_.resources.mem - down_mem_)};
  }

  double ServiceTime(uint32_t job) {
    const double p = jobs_[job].spec.processing_time;
    if (config_.processing_jitter <= 0.0) {
      return p;
    }
    return std::max(0.2 * p, p * (1.0 + config_.processing_jitter * rng_.Normal()));
  }

  double ColdStart() {
    if (config_.cold_start_jitter_s <= 0.0) {
      return config_.cold_start_s;
    }
    return std::max(1.0, config_.cold_start_s +
                             rng_.Uniform(-config_.cold_start_jitter_s,
                                          config_.cold_start_jitter_s));
  }

  const SimConfig& config_;
  const std::vector<SimJobConfig>& jobs_;
  AutoscalingPolicy& policy_;
  Rng rng_;
  // Observability. The trace session records request-lifecycle spans in sim
  // time; the cells are this thread's hoisted registry shards (null when
  // metrics are off, so the hot path costs one branch per site).
  TraceSession trace_;
  Counter::Cell* m_requests_ = nullptr;
  Counter::Cell* m_drops_ = nullptr;
  Counter::Cell* m_violations_ = nullptr;
  Histogram::Cell* m_latency_ = nullptr;
  Histogram::Cell* m_queue_wait_ = nullptr;
  Histogram::Cell* m_cold_start_ = nullptr;
  EventQueue events_;
  RequestPool pool_;
  std::vector<double> scratch_latencies_;
  std::vector<JobMetrics> metrics_scratch_;
  uint64_t sequence_ = 0;
  uint64_t events_processed_ = 0;
  double peak_replicas_ = 0.0;
  double now_ = 0.0;
  std::vector<JobState> state_;
  std::vector<JobSpec> specs_;
  size_t total_minutes_ = 0;
  double duration_ = 0.0;
  size_t next_minute_ = 1;
  bool done_ = false;
  // Optional node-placement model.
  std::unique_ptr<PlacementTracker> placement_;
  // Replicas requested but not yet placeable (Pending pods), per job.
  std::vector<uint32_t> pending_placement_;
  // Chaos layer: private RNG stream + counters + applied-fault log. An
  // inactive plan never draws, so fault-free runs are unchanged.
  FaultInjector injector_;
  // Capacity currently lost to crashed/drained nodes.
  double down_cpu_ = 0.0;
  double down_mem_ = 0.0;
  std::vector<std::string> down_nodes_;
  Counter::Cell* m_fault_events_ = nullptr;
  Counter::Cell* m_fault_kills_ = nullptr;
  // Reconciling actuator: generation counter + the reconcile loop core.
  Reconciler reconciler_;
  uint64_t next_generation_ = 0;
  Histogram::Cell* m_act_converge_ = nullptr;

  // Starts the cold-start clock for one replica of job j if a node has room
  // (or unconditionally without a node model). Returns false when Pending.
  bool TryProvisionReplica(uint32_t j) {
    if (placement_ != nullptr && !placement_->PlaceReplica(jobs_[j].spec).has_value()) {
      return false;
    }
    ++state_[j].starting;
    // One ColdStart() draw whether or not observability is on: the RNG
    // sequence (and hence the run) is identical either way. The straggler
    // stretch draws from the injector's own stream (and only when enabled).
    const double delay = injector_.StretchColdStart(ColdStart());
    state_[j].attr_cold_s += delay;
    if (m_cold_start_ != nullptr) {
      m_cold_start_->Record(delay);
    }
    if (trace_.on()) {
      trace_.SimSpan(j, "cold_start", "sim.replica", now_, now_ + delay);
    }
    Push(now_ + delay, EventKind::kReplicaReady, j);
    return true;
  }

  void RetryPendingPlacements() {
    for (uint32_t j = 0; j < jobs_.size(); ++j) {
      while (pending_placement_[j] > 0 && TryProvisionReplica(j)) {
        --pending_placement_[j];
      }
    }
  }

  // Attribution: a decision cycle that fell down the degradation ladder
  // (deadline miss, warm rescale, capacity heuristic, forecast fallback)
  // marks every job's open window -- the decision is cluster-wide, so the
  // evidence cannot be narrowed to single jobs.
  void MarkLadderDegradations(uint64_t ladder_before) {
    if (sim_internal::LadderDegradations(policy_.solver_telemetry()) > ladder_before) {
      for (JobState& js : state_) {
        js.attr_ladder_units += 1.0;
      }
    }
  }
};

void Simulation::ScheduleMinuteArrivals(size_t minute) {
  // Arrivals skip the heap: they form the queue's sorted arrival batch, drawn
  // in the same order and under the same sequence numbers as any other push.
  const double start = static_cast<double>(minute) * kMetricsWindowS;
  events_.LoadArrivals(start, kMetricsWindowS, [&](std::vector<Event>& batch) {
    for (uint32_t j = 0; j < jobs_.size(); ++j) {
      const Series& trace = jobs_[j].arrival_rate_per_min;
      if (minute >= trace.size()) {
        continue;
      }
      const double rate = std::max(0.0, trace[minute]);
      const uint64_t count = rng_.Poisson(rate);
      for (uint64_t k = 0; k < count; ++k) {
        batch.push_back(Event{start + rng_.Uniform() * kMetricsWindowS,
                              EventKind::kArrival, j, sequence_++, 0.0});
      }
    }
  });
}

void Simulation::RecordLatency(uint32_t job, double latency) {
  JobState& js = state_[job];
  js.window_latencies.push_back(latency);
  js.recent_latencies.emplace_back(now_, latency);
  if (latency > jobs_[job].spec.slo) {
    ++js.total_violations;
    if (m_violations_ != nullptr) {
      m_violations_->Add(1);
    }
  }
  if (m_latency_ != nullptr && std::isfinite(latency)) {
    m_latency_->Record(latency);  // drops carry infinite latency; counted above
  }
}

void Simulation::HandleArrival(const Event& event) {
  JobState& js = state_[event.job];
  ++js.total_arrivals;
  ++js.window_arrivals;
  if (m_requests_ != nullptr) {
    m_requests_->Add(1);
  }
  // Explicit drop as instructed by the autoscaler (Faro-Penalty*).
  if (js.explicit_drop_rate > 0.0 && rng_.Uniform() < js.explicit_drop_rate) {
    ++js.total_drops;
    ++js.window_drops;
    if (m_drops_ != nullptr) {
      m_drops_->Add(1);
    }
    if (trace_.on()) {
      trace_.SimInstant(event.job, "drop_explicit", "sim.request", now_);
    }
    RecordLatency(event.job, kInfLatency);
    return;
  }
  // Tail drop: full router queue returns HTTP 503 (§5).
  if (js.queue.size >= config_.router_queue_limit) {
    ++js.total_drops;
    ++js.window_drops;
    if (m_drops_ != nullptr) {
      m_drops_->Add(1);
    }
    if (trace_.on()) {
      trace_.SimInstant(event.job, "drop_tail", "sim.request", now_);
    }
    RecordLatency(event.job, kInfLatency);
    return;
  }
  js.queue.Push(pool_, pool_.Acquire(now_));
  StartServiceIfPossible(event.job);
}

void Simulation::StartServiceIfPossible(uint32_t job) {
  JobState& js = state_[job];
  while (!js.queue.empty() && js.busy < js.ready) {
    const uint32_t request = js.queue.Pop(pool_);
    const double arrival_time = pool_.arrival_time(request);
    pool_.Release(request);
    ++js.busy;
    const double service = ServiceTime(job);
    js.window_processing.Add(service);
    const double wait = now_ - arrival_time;
    js.attr_wait_s += wait;
    if (m_queue_wait_ != nullptr) {
      m_queue_wait_->Record(wait);
    }
    if (trace_.on()) {
      // Request lifecycle on the job's track: the wait span (when the request
      // actually queued) abuts the service span.
      if (wait > 0.0) {
        trace_.SimSpan(job, "queue_wait", "sim.request", arrival_time, now_);
      }
      trace_.SimSpan(job, "service", "sim.request", now_, now_ + service);
    }
    Push(now_ + service, EventKind::kCompletion, job, arrival_time);
  }
}

void Simulation::HandleCompletion(const Event& event) {
  JobState& js = state_[event.job];
  --js.busy;
  RecordLatency(event.job, now_ - event.payload);
  if (js.pending_removal > 0) {
    // This replica was slated for removal: it exits instead of picking up
    // more work.
    --js.pending_removal;
    --js.ready;
    if (js.placement_credit > 0) {
      // A node eviction already freed this replica's placement.
      --js.placement_credit;
    } else if (placement_ != nullptr) {
      (void)placement_->RemoveReplica(jobs_[event.job].spec);
    }
  }
  StartServiceIfPossible(event.job);
}

void Simulation::HandleReplicaReady(const Event& event) {
  JobState& js = state_[event.job];
  if (js.cancelled_starts > 0) {
    --js.cancelled_starts;
    return;
  }
  if (js.starting > 0) {
    --js.starting;
  }
  ++js.ready;
  StartServiceIfPossible(event.job);
}

uint32_t Simulation::KillReplicas(uint32_t j, uint32_t want, bool placement_freed) {
  JobState& js = state_[j];
  // Recovery bar: the replicas that were actually alive (not already
  // draining toward a pending removal) when this fault hit.
  const uint32_t ready_before = js.ready - std::min(js.ready, js.pending_removal);
  uint32_t killed = 0;
  if (placement_freed) {
    // Node eviction: cold starts on the node are simply gone. Their
    // placements were freed with the node; cancelled ReplicaReady events are
    // ignored when they fire.
    const uint32_t cancel = std::min(want, js.starting);
    js.starting -= cancel;
    js.cancelled_starts += cancel;
    killed += cancel;
  }
  while (killed < want) {
    if (js.ready > js.busy) {
      --js.ready;  // idle replica dies immediately
      if (!placement_freed && placement_ != nullptr) {
        (void)placement_->RemoveReplica(jobs_[j].spec);
      }
    } else if (js.busy > js.pending_removal) {
      // Busy replica drains its in-flight request, then exits.
      ++js.pending_removal;
      if (placement_freed) {
        ++js.placement_credit;
      }
    } else {
      break;  // nothing left to kill
    }
    ++killed;
  }
  if (killed > 0) {
    js.injected_failures += killed;
    js.recover_target = std::max(js.recover_target, ready_before);
    if (js.fault_first_s < 0.0) {
      js.fault_first_s = now_;
    }
    injector_.stats().replicas_killed += killed;
    if (m_fault_kills_ != nullptr) {
      m_fault_kills_->Add(killed);
    }
  }
  return killed;
}

void Simulation::ApplyBurst(int32_t job, double fraction, uint32_t count) {
  uint32_t total = 0;
  for (uint32_t j = 0; j < jobs_.size(); ++j) {
    if (job >= 0 && static_cast<uint32_t>(job) != j) {
      continue;
    }
    uint32_t want = count;
    if (fraction > 0.0) {
      want = static_cast<uint32_t>(
          std::floor(fraction * static_cast<double>(state_[j].ready) + 0.5));
    }
    total += KillReplicas(j, want, /*placement_freed=*/false);
  }
  ++injector_.stats().bursts;
  const std::string target =
      (job >= 0 && static_cast<size_t>(job) < jobs_.size())
          ? jobs_[static_cast<size_t>(job)].spec.name
          : std::string("all");
  RecordFault("replica_burst", target, total);
}

void Simulation::HandleFaultEvent(const FaultEvent& fault) {
  switch (fault.kind) {
    case FaultKind::kNodeCrash:
    case FaultKind::kNodeDrain: {
      if (std::find(down_nodes_.begin(), down_nodes_.end(), fault.node) !=
          down_nodes_.end()) {
        break;  // already down; a second crash/drain is a no-op
      }
      down_nodes_.push_back(fault.node);
      uint32_t total = 0;
      if (placement_ != nullptr) {
        (void)placement_->SetNodeSchedulable(fault.node, false);
        for (const auto& [job_name, evicted] :
             placement_->RemoveNodeReplicas(fault.node)) {
          for (uint32_t j = 0; j < jobs_.size(); ++j) {
            if (jobs_[j].spec.name == job_name) {
              total += KillReplicas(j, evicted, /*placement_freed=*/true);
              break;
            }
          }
        }
      }
      for (const Node& node : config_.nodes) {
        if (node.name == fault.node) {
          down_cpu_ += node.cpu_capacity;
          down_mem_ += node.mem_capacity;
          break;
        }
      }
      if (fault.kind == FaultKind::kNodeCrash) {
        ++injector_.stats().node_crashes;
      } else {
        ++injector_.stats().node_drains;
      }
      RecordFault(FaultKindName(fault.kind), fault.node, total);
      break;
    }
    case FaultKind::kNodeRecover: {
      const auto down = std::find(down_nodes_.begin(), down_nodes_.end(), fault.node);
      if (down == down_nodes_.end()) {
        break;  // node is not down; nothing to recover
      }
      down_nodes_.erase(down);
      if (placement_ != nullptr) {
        (void)placement_->SetNodeSchedulable(fault.node, true);
      }
      for (const Node& node : config_.nodes) {
        if (node.name == fault.node) {
          down_cpu_ = std::max(0.0, down_cpu_ - node.cpu_capacity);
          down_mem_ = std::max(0.0, down_mem_ - node.mem_capacity);
          break;
        }
      }
      ++injector_.stats().node_recoveries;
      RecordFault("node_recover", fault.node, 0);
      break;
    }
    case FaultKind::kReplicaBurst:
      ApplyBurst(fault.job, fault.fraction, fault.count);
      break;
  }
}

void Simulation::InjectStochasticFaults() {
  if (!injector_.active()) {
    return;
  }
  if (injector_.DrawBurst(config_.reactive_interval_s)) {
    ApplyBurst(-1, injector_.plan().burst_fraction, 0);
  }
}

void Simulation::AccountFaultDeficits() {
  for (uint32_t j = 0; j < jobs_.size(); ++j) {
    JobState& js = state_[j];
    if (js.recover_target == 0) {
      continue;
    }
    // Replicas draining toward a pending removal still sit in `ready` until
    // their in-flight request completes, but they are lost capacity already
    // -- count only the live pool against the recovery target.
    const uint32_t live = js.ready - std::min(js.ready, js.pending_removal);
    if (live >= js.recover_target) {
      js.recover_target = 0;  // pool recovered (or autoscaler re-targeted)
      continue;
    }
    const double deficit = static_cast<double>(js.recover_target - live);
    js.capacity_seconds_lost += deficit * config_.reactive_interval_s;
    js.attr_fault_s += deficit * config_.reactive_interval_s;
    js.recovery_seconds += config_.reactive_interval_s;
  }
}

void Simulation::RecordFault(const char* what, const std::string& target,
                             uint32_t count) {
  injector_.Record(now_, what, target, count);
  if (m_fault_events_ != nullptr) {
    m_fault_events_->Add(1);
  }
  if (trace_.on()) {
    trace_.SimInstant(kFaultTid, what, "faults", now_);
  }
}

void Simulation::UpdateOverloadTimers() {
  for (uint32_t j = 0; j < jobs_.size(); ++j) {
    UpdateOverloadTimerCore(state_[j], jobs_[j].spec, now_, kMetricsWindowS,
                            config_.reactive_interval_s, scratch_latencies_);
  }
}

const std::vector<JobMetrics>& Simulation::CollectMetrics() {
  metrics_scratch_.resize(jobs_.size());
  for (uint32_t j = 0; j < jobs_.size(); ++j) {
    CollectJobMetrics(state_[j], jobs_[j].spec, pending_placement_[j],
                      metrics_scratch_[j]);
  }
  return metrics_scratch_;
}

uint32_t Simulation::DrawActuationFor(uint32_t j, uint32_t add) {
  // Actuation faults (chaos injection): the scale-up command can be dropped,
  // delayed, or only partially applied. DrawActuation() costs zero RNG draws
  // when the knobs are off. Repair re-issues draw again -- the retried
  // command travels the same lossy path as the original.
  switch (injector_.DrawActuation()) {
    case ActuationOutcome::kDrop:
      RecordFault("actuation_drop", jobs_[j].spec.name, add);
      state_[j].attr_act_units += static_cast<double>(add);
      return 0;
    case ActuationOutcome::kDelay:
      RecordFault("actuation_delay", jobs_[j].spec.name, add);
      state_[j].attr_act_units += static_cast<double>(add);
      // The payload carries (add, generation): when the command finally
      // lands, the generation fence decides whether it is stale.
      Push(now_ + injector_.plan().actuation_delay_s, EventKind::kDelayedScaleUp,
           j, static_cast<double>(add) +
                  65536.0 * static_cast<double>(next_generation_));
      return 0;
    case ActuationOutcome::kPartial: {
      const uint32_t applied = (add + 1) / 2;
      RecordFault("actuation_partial", jobs_[j].spec.name, add - applied);
      state_[j].attr_act_units += static_cast<double>(add - applied);
      return applied;
    }
    case ActuationOutcome::kApply:
      break;
  }
  return add;
}

uint32_t Simulation::ApplyTarget(size_t job, uint32_t target, bool first_pass,
                                 double /*now_s*/) {
  const uint32_t j = static_cast<uint32_t>(job);
  JobState& js = state_[j];
  // Both passes measure against the committed fleet: ready + starting +
  // pending placements, everything the cluster already owes the job. The
  // policy's target counts pending placements too (CollectJobMetrics folds
  // them into starting_replicas), so a smaller baseline would re-request
  // every Pending pod on each generation.
  const uint32_t current = Fleet(j);
  if (target > current) {
    uint32_t add = target - current;
    add = DrawActuationFor(j, add);
    for (uint32_t k = 0; k < add; ++k) {
      if (!TryProvisionReplica(j)) {
        ++pending_placement_[j];  // Pending pod; retried each reactive tick
      }
    }
    return add;
  }
  // Downscales are one-shot per generation (first pass only): replicas
  // draining toward a pending removal still sit in `ready`, so a repair pass
  // re-issuing one would double-drain.
  if (!first_pass || target == current) {
    return 0;
  }
  // A deliberate downscale lowers the post-fault recovery bar: the
  // autoscaler no longer owes the pre-kill replica count.
  js.recover_target = std::min(js.recover_target, target);
  uint32_t remove = current - target;
  const uint32_t removed = remove;
  // Pending placements are free to abandon.
  const uint32_t unqueue = std::min(remove, pending_placement_[j]);
  pending_placement_[j] -= unqueue;
  remove -= unqueue;
  // Cancel cold starts next.
  const uint32_t cancel = std::min(remove, js.starting);
  js.starting -= cancel;
  js.cancelled_starts += cancel;
  remove -= cancel;
  // Then idle replicas, immediately.
  const uint32_t idle = js.ready - js.busy;
  const uint32_t drop_idle = std::min(remove, idle);
  js.ready -= drop_idle;
  remove -= drop_idle;
  // Busy replicas exit after their in-flight request (graceful drain).
  js.pending_removal += remove;
  if (placement_ != nullptr) {
    for (uint32_t k = 0; k < cancel + drop_idle; ++k) {
      (void)placement_->RemoveReplica(jobs_[j].spec);
    }
  }
  return removed;
}

void Simulation::SetDropRate(size_t job, double rate) {
  state_[job].explicit_drop_rate = rate;
}

void Simulation::PublishAction(const ScalingAction& action) {
  if (action.replicas.size() != jobs_.size()) {
    return;
  }
  DesiredState desired;
  desired.generation = ++next_generation_;
  desired.published_s = now_;
  desired.replicas.resize(jobs_.size());
  for (uint32_t j = 0; j < jobs_.size(); ++j) {
    desired.replicas[j] = std::max<uint32_t>(1, action.replicas[j]);
  }
  if (!action.drop_rates.empty() && action.drop_rates.size() == jobs_.size()) {
    desired.drop_rates.resize(jobs_.size());
    for (uint32_t j = 0; j < jobs_.size(); ++j) {
      desired.drop_rates[j] = std::clamp(action.drop_rates[j], 0.0, 1.0);
    }
  }
  if (config_.desired_observer != nullptr) {
    config_.desired_observer->OnPublish(desired);
  }
  reconciler_.Publish(desired, now_);
  RunReconcilePass();
}

void Simulation::RunReconcilePass() {
  ConvergenceEvent event;
  reconciler_.Reconcile(*this, now_, &event);
  if (event.generation == 0) {
    return;
  }
  if (m_act_converge_ != nullptr) {
    m_act_converge_->Record(event.convergence_s);
  }
  if (trace_.on()) {
    trace_.SimInstant(kAutoscalerTid, "actuation_converged", "sim.control", now_);
  }
  if (config_.audit != nullptr) {
    DecisionAuditRecord record;
    record.label = config_.audit_label + "/actuate";
    record.time_s = event.converged_s;
    record.cycle = event.generation;
    record.num_jobs = jobs_.size();
    double replicas_total = 0.0;
    for (const uint32_t r : reconciler_.desired().replicas) {
      replicas_total += static_cast<double>(r);
    }
    record.replicas_total = replicas_total;
    record.actuation_generation = event.generation;
    record.actuation_convergence_s = event.convergence_s;
    record.actuation_retries = event.retries;
    record.actuation_fenced = reconciler_.telemetry().fence_rejections;
    config_.audit->Append(std::move(record));
  }
}

void Simulation::Init() {
  if (config_.obs_metrics) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    m_requests_ = &registry
                       .GetCounter("faro_sim_requests_total",
                                   "Requests generated by the simulator")
                       .LocalCell();
    m_drops_ = &registry
                    .GetCounter("faro_sim_drops_total",
                                "Requests dropped (tail drop or explicit drop rate)")
                    .LocalCell();
    m_violations_ = &registry
                         .GetCounter("faro_sim_slo_violations_total",
                                     "Requests exceeding their job SLO (drops included)")
                         .LocalCell();
    m_latency_ = &registry
                      .GetHistogram("faro_sim_request_latency_seconds",
                                    "End-to-end request latency (served requests)")
                      .LocalCell();
    m_queue_wait_ = &registry
                         .GetHistogram("faro_sim_queue_wait_seconds",
                                       "Router queue wait before service starts")
                         .LocalCell();
    m_cold_start_ = &registry
                         .GetHistogram("faro_sim_cold_start_seconds",
                                       "Replica cold-start provisioning delay")
                         .LocalCell();
    m_fault_events_ = &registry
                           .GetCounter("faro_fault_events_total",
                                       "Chaos events applied (fault-log entries)")
                           .LocalCell();
    m_fault_kills_ = &registry
                          .GetCounter("faro_fault_replicas_killed_total",
                                      "Replicas killed by fault injection")
                          .LocalCell();
    m_act_converge_ = &registry
                           .GetHistogram("faro_actuate_convergence_seconds",
                                         "Publish-to-converge time per desired-state "
                                         "generation (reconciling actuator)")
                           .LocalCell();
  }
  state_.assign(jobs_.size(), JobState{});
  pending_placement_.assign(jobs_.size(), 0);
  if (!config_.nodes.empty()) {
    placement_ = std::make_unique<PlacementTracker>(config_.nodes, config_.placement_strategy);
  }
  specs_.clear();
  specs_.reserve(jobs_.size());
  for (const SimJobConfig& job : jobs_) {
    specs_.push_back(job.spec);
  }
  total_minutes_ = std::numeric_limits<size_t>::max();
  for (const SimJobConfig& job : jobs_) {
    total_minutes_ = std::min(total_minutes_, job.arrival_rate_per_min.size());
  }
  duration_ = static_cast<double>(total_minutes_) * 60.0;
  if (config_.record_minute_series) {
    for (JobState& js : state_) {
      js.minute_p99.reserve(total_minutes_);
      js.minute_utility.reserve(total_minutes_);
      js.minute_eu.reserve(total_minutes_);
      js.minute_arrivals.reserve(total_minutes_);
      js.minute_drop_rate.reserve(total_minutes_);
      js.minute_replicas.reserve(total_minutes_);
      for (auto& series : js.minute_lost_by_cause) {
        series.reserve(total_minutes_);
      }
      js.minute_violations.reserve(total_minutes_);
      js.minute_burn_fast.reserve(total_minutes_);
      js.minute_burn_slow.reserve(total_minutes_);
    }
  }
  for (uint32_t j = 0; j < jobs_.size(); ++j) {
    state_[j].ready = std::max<uint32_t>(1, jobs_[j].initial_replicas);
    if (placement_ != nullptr) {
      for (uint32_t r = 0; r < state_[j].ready; ++r) {
        (void)placement_->PlaceReplica(jobs_[j].spec);
      }
    }
  }

  // Scheduled chaos events (zero pushes -- and zero sequence-number drift --
  // when the plan is inactive).
  if (injector_.active()) {
    const std::vector<FaultEvent>& scheduled = injector_.scheduled();
    for (uint32_t i = 0; i < scheduled.size(); ++i) {
      Push(scheduled[i].time_s, EventKind::kFaultEvent, i);
    }
  }

  // Prime the event queue: first minute of arrivals, ticks, first decision.
  ScheduleMinuteArrivals(0);
  Push(kMetricsWindowS, EventKind::kMetricsTick, 0);
  Push(config_.reactive_interval_s, EventKind::kReactiveTick, 0);
  Push(0.0, EventKind::kDecideTick, 0);
  next_minute_ = 1;
}

void Simulation::StepUntil(double until_s) {
  // PopNext leaves an event past the limit in the queue, unprocessed and
  // uncounted, so stepping to any intermediate target is a pure prefix of
  // the batch loop.
  const double limit = std::min(until_s, duration_);
  Event event;
  while (events_.PopNext(limit, event)) {
    ++events_processed_;
    now_ = event.time;
    switch (event.kind) {
      case EventKind::kArrival:
        HandleArrival(event);
        break;
      case EventKind::kCompletion:
        HandleCompletion(event);
        break;
      case EventKind::kReplicaReady:
        HandleReplicaReady(event);
        break;
      case EventKind::kReactiveTick: {
        InjectStochasticFaults();
        AccountFaultDeficits();
        RetryPendingPlacements();
        // Level-triggered repair rides the reactive cadence: re-issue any
        // scale-up an actuation fault ate or a kill re-opened, before the
        // policy reads metrics (so FastReact sees repairs as `starting`).
        // Zero draws -- and zero state changes -- while the fleet converges.
        RunReconcilePass();
        UpdateOverloadTimers();
        const auto& metrics = CollectMetrics();
        const uint64_t ladder_before =
            sim_internal::LadderDegradations(policy_.solver_telemetry());
        if (auto action = policy_.FastReact(now_, specs_, metrics, EffectiveResources())) {
          PublishAction(*action);
        }
        MarkLadderDegradations(ladder_before);
        Push(now_ + config_.reactive_interval_s, EventKind::kReactiveTick, 0);
        break;
      }
      case EventKind::kDecideTick: {
        if (trace_.on()) {
          trace_.SimInstant(kAutoscalerTid, "decide_tick", "sim.control", now_);
        }
        const auto& metrics = CollectMetrics();
        const uint64_t ladder_before =
            sim_internal::LadderDegradations(policy_.solver_telemetry());
        const ScalingAction action = policy_.Decide(now_, specs_, metrics, EffectiveResources());
        MarkLadderDegradations(ladder_before);
        {
          ScopedWallSpan actuate(trace_, kAutoscalerTid, "actuate", "autoscaler");
          PublishAction(action);
        }
        Push(now_ + policy_.decision_interval_s(), EventKind::kDecideTick, 0);
        break;
      }
      case EventKind::kMetricsTick: {
        double minute_replicas = 0.0;
        MinuteSnapshot snap;
        MinuteSnapshot* snap_ptr =
            config_.minute_observer != nullptr ? &snap : nullptr;
        for (uint32_t j = 0; j < jobs_.size(); ++j) {
          sim_internal::CloseMetricsWindowCore(
              state_[j], jobs_[j].spec, now_, kMetricsWindowS, kHistorySteps,
              config_.record_minute_series,
              scratch_latencies_, snap_ptr);
          if (snap_ptr != nullptr) {
            snap.job = j;
            config_.minute_observer->OnMinute(snap);
          }
          minute_replicas += static_cast<double>(state_[j].ready + state_[j].starting);
        }
        peak_replicas_ = std::max(peak_replicas_, minute_replicas);
        if (next_minute_ < total_minutes_) {
          ScheduleMinuteArrivals(next_minute_);
          ++next_minute_;
        }
        Push(now_ + kMetricsWindowS, EventKind::kMetricsTick, 0);
        break;
      }
      case EventKind::kFaultEvent:
        HandleFaultEvent(injector_.scheduled()[event.job]);
        break;
      case EventKind::kDelayedScaleUp: {
        // A delayed actuation finally lands. The payload packs (add,
        // generation); the generation fence discards commands a newer solve
        // has superseded, and a current-generation landing is clamped to the
        // open deficit so a repair that already closed it is never
        // double-applied.
        const uint64_t packed = static_cast<uint64_t>(event.payload);
        uint32_t add = static_cast<uint32_t>(packed % 65536);
        const uint64_t generation = packed / 65536;
        if (generation < reconciler_.generation()) {
          reconciler_.FenceStale();
          RecordFault("actuation_fenced", jobs_[event.job].spec.name, add);
          break;
        }
        const uint32_t fleet = Fleet(event.job);
        const uint32_t target =
            event.job < reconciler_.desired().replicas.size()
                ? reconciler_.desired().replicas[event.job]
                : 0;
        add = std::min(add, target > fleet ? target - fleet : 0);
        if (add == 0) {
          break;
        }
        for (uint32_t k = 0; k < add; ++k) {
          if (!TryProvisionReplica(event.job)) {
            ++pending_placement_[event.job];
          }
        }
        break;
      }
    }
  }
  if (events_.NextTime() > duration_) {
    done_ = true;
  }
}

RunResult Simulation::Finish() {
  // --- aggregate ------------------------------------------------------------
  RunResult result;
  result.jobs.resize(jobs_.size());
  result.events_processed = events_processed_;
  result.peak_event_set_size = events_.peak_heap_size();
  result.peak_arrival_batch_size = events_.peak_batch_size();
  result.cluster_peak_replicas = peak_replicas_;
  size_t minutes = std::numeric_limits<size_t>::max();
  for (const JobState& js : state_) {
    minutes = std::min(minutes, js.minute_count);
  }
  if (minutes == std::numeric_limits<size_t>::max()) {
    minutes = 0;
  }
  const bool record = config_.record_minute_series;
  if (record) {
    result.cluster_utility_timeline.assign(minutes, 0.0);
    result.total_load_timeline.assign(minutes, 0.0);
  }

  double violation_rate_sum = 0.0;
  double eu_sum = 0.0;
  double utility_mean_sum = 0.0;
  for (uint32_t j = 0; j < jobs_.size(); ++j) {
    JobState& js = state_[j];
    JobRunStats& stats = result.jobs[j];
    FinalizeJobStats(js, jobs_[j].spec.name, record, stats);
    if (record) {
      for (size_t t = 0; t < minutes; ++t) {
        result.cluster_utility_timeline[t] += stats.minute_utility[t];
        result.total_load_timeline[t] += stats.minute_arrivals[t];
      }
    }
    utility_mean_sum += stats.avg_utility;
    violation_rate_sum += stats.slo_violation_rate;
    eu_sum += stats.avg_effective_utility;
    for (size_t c = 0; c < kNumLossCauses; ++c) {
      result.cluster_lost_by_cause[c] += stats.lost_by_cause[c];
    }
    result.cluster_burn_alerts_fast += stats.burn_alerts_fast;
    result.cluster_burn_alerts_slow += stats.burn_alerts_slow;
  }
  if (config_.obs_metrics) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    for (size_t c = 0; c < kNumLossCauses; ++c) {
      Histogram& hist = registry.GetHistogram(
          std::string("faro_attr_lost_utility_") + LossCauseName(c),
          "Per-job run-average lost utility attributed to this cause");
      for (const JobRunStats& stats : result.jobs) {
        hist.Record(stats.lost_by_cause[c]);
      }
    }
    // Per-run peaks of the two event sources. A peak does not sum across
    // runs, so each run records one histogram sample: _count is the runs,
    // the upper quantiles the largest.
    registry
        .GetHistogram("faro_sim_event_set_peak_size",
                      "Largest future-event heap population of a run (arrivals excluded)")
        .Record(static_cast<double>(result.peak_event_set_size));
    registry
        .GetHistogram("faro_sim_arrival_batch_peak_size",
                      "Largest one-minute arrival batch of a run")
        .Record(static_cast<double>(result.peak_arrival_batch_size));
    registry
        .GetCounter("faro_slo_burn_alerts_fast_total",
                    "Fast-window (1h) error-budget burn-rate alert onsets")
        .Add(result.cluster_burn_alerts_fast);
    registry
        .GetCounter("faro_slo_burn_alerts_slow_total",
                    "Slow-window (6h) error-budget burn-rate alert onsets")
        .Add(result.cluster_burn_alerts_slow);
  }
  const double num_jobs = static_cast<double>(jobs_.size());
  // With the minute series on, the cluster utility is averaged exactly as it
  // always was (mean over minutes of the per-minute job sum). Without it,
  // the mathematically equal sum of per-job means stands in.
  result.cluster_avg_utility =
      record ? Mean(result.cluster_utility_timeline) : utility_mean_sum;
  result.cluster_lost_utility = num_jobs - result.cluster_avg_utility;
  result.cluster_avg_effective_utility = eu_sum;
  result.cluster_lost_effective_utility = num_jobs - eu_sum;
  result.cluster_slo_violation_rate = jobs_.empty() ? 0.0 : violation_rate_sum / num_jobs;
  result.solver = policy_.solver_telemetry();
  result.faults = injector_.stats();
  result.fault_log = injector_.log();
  result.actuation = reconciler_.telemetry();
  // The reconciler absorbed the autoscaler's in-policy retry ladder (PR 5);
  // folding its repair count into the historical solver counter keeps the
  // solver CSV column -- and every script reading it -- comparable.
  result.solver.actuation_retries += result.actuation.retries;
  if (config_.obs_metrics) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry
        .GetCounter("faro_actuate_generations_published_total",
                    "Desired-state generations accepted by the reconciler")
        .Add(result.actuation.generations_published);
    registry
        .GetCounter("faro_actuate_generations_converged_total",
                    "Generations whose fleet reached every target")
        .Add(result.actuation.generations_converged);
    registry
        .GetCounter("faro_actuate_generations_superseded_total",
                    "Generations replaced before converging")
        .Add(result.actuation.generations_superseded);
    registry
        .GetCounter("faro_actuate_fence_rejections_total",
                    "Stale publishes/commands discarded by the generation fence")
        .Add(result.actuation.fence_rejections);
    registry
        .GetCounter("faro_actuate_retries_total",
                    "Repair re-issues of missed scale-ups")
        .Add(result.actuation.retries);
    registry
        .GetCounter("faro_actuate_op_timeouts_total",
                    "Scale-up deficits outliving the operation timeout")
        .Add(result.actuation.op_timeouts);
  }
  return result;
}

}  // namespace

std::string ValidateSimConfig(const SimConfig& config) {
  if (config.cold_start_s < 0.0) {
    return "SimConfig: cold_start_s must be >= 0";
  }
  if (config.cold_start_jitter_s < 0.0) {
    return "SimConfig: cold_start_jitter_s must be >= 0";
  }
  if (config.processing_jitter < 0.0) {
    return "SimConfig: processing_jitter must be >= 0";
  }
  if (config.router_queue_limit == 0) {
    return "SimConfig: router_queue_limit must be >= 1 (a zero-length router "
           "queue drops every request)";
  }
  if (config.reactive_interval_s <= 0.0) {
    return "SimConfig: reactive_interval_s must be > 0";
  }
  for (const Node& node : config.nodes) {
    if (node.cpu_capacity <= 0.0 || node.mem_capacity <= 0.0) {
      return "SimConfig: node '" + node.name + "' needs positive cpu/mem capacity";
    }
  }
  if (std::string problem = config.faults.Validate(); !problem.empty()) {
    return problem;
  }
  for (const FaultEvent& event : config.faults.events) {
    if (event.kind == FaultKind::kReplicaBurst) {
      continue;
    }
    bool known = false;
    for (const Node& node : config.nodes) {
      known = known || node.name == event.node;
    }
    if (!known) {
      return "SimConfig: fault event names unknown node '" + event.node +
             "' (node faults need a matching SimConfig::nodes entry)";
    }
  }
  return {};
}

std::unique_ptr<SimStepper> MakeSimStepper(const SimConfig& config,
                                           const std::vector<SimJobConfig>& jobs,
                                           AutoscalingPolicy& policy) {
  if (std::string problem = ValidateSimConfig(config); !problem.empty()) {
    throw std::invalid_argument(problem);
  }
  auto simulation = std::make_unique<Simulation>(config, jobs, policy);
  simulation->Init();
  return simulation;
}

RunResult RunSimulation(const SimConfig& config, const std::vector<SimJobConfig>& jobs,
                        AutoscalingPolicy& policy) {
  const std::unique_ptr<SimStepper> stepper = MakeSimStepper(config, jobs, policy);
  stepper->StepUntil(std::numeric_limits<double>::infinity());
  return stepper->Finish();
}

}  // namespace faro
