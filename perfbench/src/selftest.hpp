#pragma once

namespace perfbench {

/// Runs the benchmark's self-tests; returns the number of failed checks.
int run_selftests();

}  // namespace perfbench
