// vtm-negative-compile: requires(thread-safety)
//
// Negative-compile check for the barrier capability (DESIGN.md §13).
//
// `shard_mailbox::flip` may only run at a window barrier, when no shard
// lane is posting or receiving; it requires a `util::barrier_phase`
// capability that the caller must hold. This file flips *without*
// acquiring the capability — exactly what a flip from inside a shard lane
// would look like — and therefore MUST FAIL to compile under Clang with
// `-Wthread-safety -Werror=thread-safety`. CMake registers it as a ctest
// entry with WILL_FAIL when the thread-safety gate is on (see
// VTM_THREAD_SAFETY), and its `_control` entry compiles the same file with
// -DVTM_NEGATIVE_CONTROL, which flips under a `barrier_scope` and must
// compile: the rejection is owed to the missing capability alone. The clang
// CI job runs both on every push. If this file ever compiles under the
// gate, the barrier protocol has lost its compile-time enforcement.
#include <cstddef>

#include "sim/mailbox.hpp"
#include "util/sync.hpp"

int main() {
  vtm::sim::shard_mailbox<int> mailbox(2);
  const vtm::util::barrier_phase barrier;
  mailbox.post(0, 1, 42);

#ifndef VTM_NEGATIVE_CONTROL
  // error: calling 'flip' requires holding 'barrier'
  const std::size_t flipped = mailbox.flip(barrier);
#else
  std::size_t flipped = 0;
  {
    const vtm::util::barrier_scope at_barrier(barrier);
    flipped = mailbox.flip(barrier);
  }
#endif
  // Receiving needs no capability: the receiving lane owns its column.
  const std::size_t received = mailbox.receive(1, [](int) {});
  return static_cast<int>(flipped + received);
}
