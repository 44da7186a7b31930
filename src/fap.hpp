// Umbrella header: the full public API of the library.
//
// Reproduction of: J. F. Kurose and R. Simha, "A Microeconomic Approach to
// Optimal File Allocation", ICDCS 1986 (COINS TR 85-43).
#pragma once

#include "baselines/heuristics.hpp"          // IWYU pragma: export
#include "baselines/integral.hpp"            // IWYU pragma: export
#include "baselines/price_directed_fap.hpp"  // IWYU pragma: export
#include "baselines/projected_gradient.hpp"  // IWYU pragma: export
#include "core/allocator.hpp"                // IWYU pragma: export
#include "core/copy_count.hpp"               // IWYU pragma: export
#include "core/cost_model.hpp"               // IWYU pragma: export
#include "core/joint_routing.hpp"            // IWYU pragma: export
#include "core/multi_file.hpp"               // IWYU pragma: export
#include "core/multicopy_allocator.hpp"      // IWYU pragma: export
#include "core/neighbor_allocator.hpp"       // IWYU pragma: export
#include "core/newton_allocator.hpp"         // IWYU pragma: export
#include "core/ring_model.hpp"               // IWYU pragma: export
#include "core/single_file.hpp"              // IWYU pragma: export
#include "core/trace_export.hpp"             // IWYU pragma: export
#include "core/volume_model.hpp"             // IWYU pragma: export
#include "econ/price_directed.hpp"           // IWYU pragma: export
#include "econ/utility.hpp"                  // IWYU pragma: export
#include "econ/utility_model.hpp"            // IWYU pragma: export
#include "fs/directory.hpp"                  // IWYU pragma: export
#include "fs/fragment_map.hpp"               // IWYU pragma: export
#include "fs/lock_manager.hpp"               // IWYU pragma: export
#include "fs/migration.hpp"                  // IWYU pragma: export
#include "fs/popularity.hpp"                 // IWYU pragma: export
#include "fs/weighted_assignment.hpp"        // IWYU pragma: export
#include "net/generators.hpp"                // IWYU pragma: export
#include "net/shortest_paths.hpp"            // IWYU pragma: export
#include "net/topology.hpp"                  // IWYU pragma: export
#include "net/virtual_ring.hpp"              // IWYU pragma: export
#include "queueing/delay.hpp"                // IWYU pragma: export
#include "runtime/metrics.hpp"               // IWYU pragma: export
#include "runtime/sweep.hpp"                 // IWYU pragma: export
#include "sim/async_protocol.hpp"            // IWYU pragma: export
#include "sim/des.hpp"                       // IWYU pragma: export
#include "sim/des_system.hpp"                // IWYU pragma: export
#include "sim/estimation.hpp"                // IWYU pragma: export
#include "sim/protocol_sim.hpp"              // IWYU pragma: export
#include "util/json.hpp"                     // IWYU pragma: export
#include "util/numeric.hpp"                  // IWYU pragma: export
#include "util/rng.hpp"                      // IWYU pragma: export
#include "util/stats.hpp"                    // IWYU pragma: export
#include "util/table.hpp"                    // IWYU pragma: export
