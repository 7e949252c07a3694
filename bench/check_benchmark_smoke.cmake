# The benchmark's own smoke run as a tier-1 gate: `benchmark/run.sh
# --smoke` builds benchmark/ (its own CMake project, into build-bench/ at
# the repository root) against this library, runs all four workloads at
# about a twentieth of their size with every correctness gate on, and
# must exit 0. A library change that breaks the benchmark's build or one
# of its gates fails here first. The four seed-1 digests pin the
# simulated outcomes the benchmark measures.
#
#   cmake -DRUN_SH=benchmark/run.sh -P bench/check_benchmark_smoke.cmake
#
# The first run builds (about a minute with 4 jobs); later runs take a
# few seconds.
if(NOT DEFINED RUN_SH)
  message(FATAL_ERROR "usage: cmake -DRUN_SH=<run.sh> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

execute_process(
  COMMAND bash "${RUN_SH}" --smoke
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "benchmark smoke exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

# One line per workload with a deterministic outcome: fig5, the m20
# swarm (placement and first round) and churn.
foreach(expected
    "replicas digest: f11ae1b74d02640d"
    "catalog placement digest: 22b3de6c389dc30f"
    "outcome_digest (round 1): ef2e61f0af3bb57c"
    "outcome_digest: e87083699249ea31")
  string(FIND "${out}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
      "benchmark smoke: missing '${expected}'\nstdout:\n${out}")
  endif()
endforeach()
message(STATUS "benchmark smoke: every gate OK, four digests match")
