// Modeled traffic one machine of the §5 runtime is charged: network
// messages and shared-store reads, timed through the CostModel.
#ifndef CECI_DISTSIM_MACHINE_H_
#define CECI_DISTSIM_MACHINE_H_

#include <cstdint>

#include "dist/cost_model.h"

namespace ceci::distsim {

struct Machine {
  std::uint64_t messages = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_read = 0;
  /// Shared-store round trips that failed and were retried.
  std::uint64_t storage_retries = 0;
  double comm_seconds = 0.0;
  double io_seconds = 0.0;

  /// Charges a network message of `bytes` to this machine's comm budget.
  void ChargeMessage(const dist::CostModel& model, std::uint64_t bytes) {
    comm_seconds += model.MessageSeconds(bytes);
    bytes_sent += bytes;
    ++messages;
  }

  /// Records an inbound message. Counters only: the modeled transfer time
  /// is already charged on whichever end ChargeMessage bills (the paper's
  /// model bills both ends of a pivot send and the stealing side of an
  /// MPI_Get), so receive tracking must not move any makespan.
  void RecordReceive(std::uint64_t bytes) {
    bytes_received += bytes;
    ++messages_received;
  }

  /// Charges shared-store reads (requests totalling `bytes`).
  void ChargeStorage(const dist::CostModel& model, std::uint64_t requests,
                     std::uint64_t bytes) {
    io_seconds += model.StorageSeconds(requests, bytes);
    bytes_read += bytes;
  }
};

}  // namespace ceci::distsim

#endif  // CECI_DISTSIM_MACHINE_H_
