# Byte-identity gate for the deterministic sweeps: runs each listed
# bench with `--quick`, hashes its stdout with SHA-256, and compares the
# hash against the committed one in the digest file (one
# `<bench> <sha256>` pair per line; `#` starts a comment).
#
#   cmake -DBENCH_DIR=build/bench -DDIGESTS=bench/sweep_digests.txt \
#         -P bench/check_sweep_digests.cmake
#
# A mismatch prints the new hash; a deliberate output change replaces
# that bench's line with it and says why in CHANGES.md.
if(NOT DEFINED BENCH_DIR OR NOT DEFINED DIGESTS)
  message(FATAL_ERROR
    "usage: cmake -DBENCH_DIR=<dir> -DDIGESTS=<file> "
    "-P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

file(STRINGS "${DIGESTS}" lines)
set(failures 0)
foreach(line IN LISTS lines)
  if(line MATCHES "^#" OR line STREQUAL "")
    continue()
  endif()
  if(NOT line MATCHES "^([A-Za-z0-9_]+) ([0-9a-f]+)$")
    message(FATAL_ERROR "${DIGESTS}: malformed line '${line}'")
  endif()
  set(bench "${CMAKE_MATCH_1}")
  set(expected "${CMAKE_MATCH_2}")
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}" --quick
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(SHA256 got "${out}")
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${bench} --quick exited '${rc}'\nstderr: ${err}")
    math(EXPR failures "${failures} + 1")
  elseif(got STREQUAL expected)
    message(STATUS "${bench}: ok")
  else()
    message(SEND_ERROR
      "${bench} --quick stdout changed: expected ${expected}, got ${got}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} sweep(s) failed the digest check")
endif()
