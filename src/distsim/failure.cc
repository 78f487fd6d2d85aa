#include "distsim/failure.h"

#include <limits>
#include <sstream>

namespace ceci::distsim {

Status FailurePlan::Validate(std::size_t num_machines) const {
  if (!enabled) {
    if (!crashes.empty() || !stragglers.empty() || storage_error_rate != 0.0) {
      return Status::InvalidArgument(
          "failure plan scripts failures but enabled == false; set "
          "enabled = true (or clear the plan) to avoid a silent no-op");
    }
    return Status::Ok();
  }
  if (crashes.size() >= num_machines) {
    std::ostringstream os;
    os << "failure plan crashes " << crashes.size() << " of " << num_machines
       << " machines; at least one machine must survive to adopt orphaned "
          "clusters";
    return Status::InvalidArgument(os.str());
  }
  std::vector<char> crashed(num_machines, 0);
  for (const MachineCrash& c : crashes) {
    if (c.machine >= num_machines) {
      std::ostringstream os;
      os << "crash targets machine " << c.machine << " but the cluster has "
         << num_machines << " machines";
      return Status::InvalidArgument(os.str());
    }
    if (crashed[c.machine] != 0) {
      std::ostringstream os;
      os << "machine " << c.machine << " crashes more than once";
      return Status::InvalidArgument(os.str());
    }
    crashed[c.machine] = 1;
    if (!(c.at_seconds >= 0.0)) {
      std::ostringstream os;
      os << "crash time for machine " << c.machine << " must be >= 0 (got "
         << c.at_seconds << ")";
      return Status::InvalidArgument(os.str());
    }
  }
  for (const MachineStraggler& s : stragglers) {
    if (s.machine >= num_machines) {
      std::ostringstream os;
      os << "straggler targets machine " << s.machine
         << " but the cluster has " << num_machines << " machines";
      return Status::InvalidArgument(os.str());
    }
    if (!(s.slowdown >= 1.0)) {
      std::ostringstream os;
      os << "straggler slowdown for machine " << s.machine
         << " must be >= 1 (got " << s.slowdown << ")";
      return Status::InvalidArgument(os.str());
    }
  }
  if (!(storage_error_rate >= 0.0) || storage_error_rate >= 1.0) {
    return Status::InvalidArgument("storage_error_rate must be in [0, 1)");
  }
  if (storage_error_rate > 0.0 && max_storage_retries == 0) {
    return Status::InvalidArgument(
        "storage_error_rate > 0 requires max_storage_retries >= 1");
  }
  if (!(retry_backoff_seconds >= 0.0)) {
    return Status::InvalidArgument("retry_backoff_seconds must be >= 0");
  }
  return Status::Ok();
}

double FailurePlan::CrashTime(std::size_t machine) const {
  for (const MachineCrash& c : crashes) {
    if (c.machine == machine) return c.at_seconds;
  }
  return std::numeric_limits<double>::infinity();
}

double FailurePlan::Slowdown(std::size_t machine) const {
  double factor = 1.0;
  for (const MachineStraggler& s : stragglers) {
    if (s.machine == machine) factor *= s.slowdown;
  }
  return factor;
}

namespace {

/// SplitMix64 (Steele, Lea & Flood): tiny, deterministic, seedable and
/// independent of the host's std::random implementation. Returns the top
/// 53 bits of the next output as a uniform double in [0, 1).
double NextUnit(std::uint64_t* state) {
  *state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = *state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<double>((z ^ (z >> 31)) >> 11) * 0x1.0p-53;
}

}  // namespace

StorageRetrySim SimulateStorageRetries(const FailurePlan& plan,
                                       std::size_t machine,
                                       std::uint64_t requests,
                                       const dist::CostModel& model) {
  StorageRetrySim sim;
  if (!plan.enabled || plan.storage_error_rate <= 0.0) return sim;
  const std::uint64_t round_trips =
      (requests + model.storage_batch - 1) / model.storage_batch;
  // Key the stream on (seed, machine) so machines draw independent flakes
  // and adding a machine never perturbs another machine's outcome.
  std::uint64_t rng = plan.seed ^ (0x9e3779b97f4a7c15ULL *
                                   static_cast<std::uint64_t>(machine + 1));
  for (std::uint64_t r = 0; r < round_trips; ++r) {
    double backoff = plan.retry_backoff_seconds;
    for (std::size_t attempt = 0; attempt < plan.max_storage_retries;
         ++attempt) {
      if (NextUnit(&rng) >= plan.storage_error_rate) break;
      ++sim.retries;
      sim.seconds += model.storage_latency + backoff;
      backoff *= 2.0;
    }
  }
  return sim;
}

}  // namespace ceci::distsim
