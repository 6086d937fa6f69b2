// Lint fixture: MUST trip exactly `raw-io`.
//
// Library code writing straight to the console takes the process's output
// away from the embedder, who can neither silence nor redirect it; src/
// reports through returned results and caller-attached sinks. std::snprintf
// into a buffer is formatting, not I/O, and must NOT be flagged.
#include <cstdio>
#include <iostream>

void report_progress(double fraction) {
  std::cout << "progress: " << fraction << "\n";
  std::fprintf(stderr, "progress: %.2f\n", fraction);
}

int format_progress(char* buffer, unsigned size, double fraction) {
  return std::snprintf(buffer, size, "progress: %.2f", fraction);
}
