// Allocation guard for the spot-market and oligopoly handover paths.
//
// The global operator new/delete forms are replaced with counting versions,
// so the tests can count every heap allocation the engine makes. After
// warm-up a stream's handovers — clearing, pre-copy migration, arrival into
// a recycled slot — allocate nothing; what remains is per-flush work
// (summaries and ledgers), which stays far below one allocation per
// handover. A closed oligopoly run's clearings — each book's market rebuilt
// in place, the price solve on reused scratch, the reused outcome — allocate
// nothing either once the books have grown. Spawning a closed fleet keeps
// its twins inside the vehicle slots instead of allocating one per vehicle.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>

#include "core/fleet_scenario.hpp"
#include "core/fleet_shard.hpp"
#include "sim/road_graph.hpp"

namespace {

std::atomic<std::size_t> allocations{0};

void* counted_alloc(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t size, std::align_val_t align) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t alignment = static_cast<std::size_t>(align);
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0)
    throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, align);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

namespace core = vtm::core;
namespace vu = vtm::util;

/// The open loop of the stream benchmarks, on a shorter horizon: Poisson
/// λ = 6/s over 2000 s, flushed every 50 s, records off.
core::streaming_config open_loop(bool grid, std::size_t shards) {
  core::streaming_config config;
  config.base.rsu_count = 8;
  config.base.shard_count = shards;
  config.base.record_migrations = false;
  config.base.seed = 11;
  if (grid)
    config.base.graph = std::make_shared<const vtm::sim::road_graph>(
        vtm::sim::road_graph::grid(8, 8, 1000.0, 600.0));
  config.arrival_rate_per_s = vu::per_second{6.0};
  config.horizon_s = vu::seconds{2000.0};
  config.flush_period_s = vu::seconds{50.0};
  return config;
}

/// The closed_oligopoly benchmark's sellers (costs 5 / 5.5 / 6, 50 MHz
/// pools) over 5000 vehicles on a 32-RSU chain, records off.
core::fleet_config three_seller_fleet(double duration_s, std::size_t shards) {
  core::fleet_config config;
  config.rsu_count = 32;
  config.vehicle_count = 5000;
  config.duration_s = vu::seconds{duration_s};
  config.shard_count = shards;
  config.record_migrations = false;
  config.mode = core::market_mode::oligopoly;
  for (const double cost : {5.0, 5.5, 6.0})
    config.msps.push_back({vu::meters{0.0}, cost, 50.0, vu::megahertz{50.0}});
  core::validate_fleet_config(config);
  return config;
}

}  // namespace

// The counters must see the engine's allocations, or every guard below
// passes vacuously.
TEST(alloc_guard, replacement_operators_count) {
  const std::size_t before = allocations.load();
  void* scalar = ::operator new(64);
  void* aligned = ::operator new(64, std::align_val_t{64});
  ::operator delete(aligned, std::align_val_t{64});
  ::operator delete(scalar);
  EXPECT_EQ(allocations.load() - before, 2u);
}

// Clearing, pre-copy and arrival allocate nothing per handover once the
// books, scratch, queues and slot arena have grown: the per-flush
// summaries and ledgers are all that is left, well under one allocation
// per four handovers on the chain and the road grid, serial and sharded.
TEST(alloc_guard, stream_handovers_do_not_allocate) {
  for (const bool grid : {false, true}) {
    for (const std::size_t shards : {1u, 4u}) {
      core::shard_coordinator coordinator(open_loop(grid, shards));
      const std::size_t before = allocations.load();
      const core::streaming_result result = coordinator.run_stream();
      const std::size_t counted = allocations.load() - before;
      const std::size_t handovers = result.totals.handovers;
      std::printf("%s, %zu shard(s): %zu allocations over %zu handovers\n",
                  grid ? "grid" : "chain", shards, counted, handovers);
      ASSERT_GT(handovers, 10000u);
      EXPECT_LT(counted, handovers / 4)
          << (grid ? "grid" : "chain") << " stream at " << shards
          << " shard(s)";
    }
  }
}

// Oligopoly clearings allocate nothing per handover once each book's
// market, solver scratch and outcome have grown: a closed three-seller run
// stays well under one allocation per four handovers, serial and sharded.
TEST(alloc_guard, oligopoly_handovers_do_not_allocate) {
  for (const std::size_t shards : {1u, 4u}) {
    core::shard_coordinator coordinator(three_seller_fleet(300.0, shards));
    const std::size_t before = allocations.load();
    const core::fleet_result result = coordinator.run();
    const std::size_t counted = allocations.load() - before;
    const std::size_t handovers = result.handovers;
    std::printf("oligopoly, %zu shard(s): %zu allocations over %zu "
                "handovers\n",
                shards, counted, handovers);
    ASSERT_GT(handovers, 10000u);
    EXPECT_LT(counted, handovers / 4) << "oligopoly at " << shards
                                      << " shard(s)";
  }
}

// Spawning the 5000-vehicle closed oligopoly fleet allocates no twin per
// vehicle: the twins live in their slots.
TEST(alloc_guard, closed_fleet_spawn_keeps_twins_in_slots) {
  const core::fleet_config config = three_seller_fleet(1200.0, 1);
  std::optional<core::shard_coordinator> coordinator;
  const std::size_t before = allocations.load();
  coordinator.emplace(config);
  const std::size_t counted = allocations.load() - before;
  std::printf("closed oligopoly set-up: %zu allocations\n", counted);
  EXPECT_LT(counted, 1000u);
}
