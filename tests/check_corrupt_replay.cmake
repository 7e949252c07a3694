# Gate for the CLI's corrupt-artifact handling: `lesslog_cli chaos
# --replay <file>` on a damaged artifact must exit 2 (usage/error
# convention) with a diagnosis naming the problem — never crash,
# never exit 0/1 as if the replay ran.
#
# Invoked as a ctest:
#   cmake -DCLI=<lesslog_cli> -DWORK_DIR=<dir> -P check_corrupt_replay.cmake
if(NOT DEFINED CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DWORK_DIR=... -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

function(expect_rejection name artifact_body expected_message)
  set(artifact "${WORK_DIR}/corrupt_${name}.json")
  file(WRITE "${artifact}" "${artifact_body}")
  execute_process(
    COMMAND "${CLI}" chaos --replay "${artifact}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "${name}: expected exit code 2 on a corrupt artifact, got '${rc}'\n"
      "stdout: ${out}\nstderr: ${err}")
  endif()
  if(NOT err MATCHES "chaos artifact")
    message(FATAL_ERROR
      "${name}: error message does not name the chaos artifact\n"
      "stderr: ${err}")
  endif()
  if(NOT err MATCHES "${expected_message}")
    message(FATAL_ERROR
      "${name}: error message lacks the parser diagnosis "
      "'${expected_message}'\nstderr: ${err}")
  endif()
  message(STATUS "${name}: rejected with exit 2 and diagnosis (ok)")
endfunction()

# A bit-flip in a \u escape: the hex-validation path.
expect_rejection(unicode
  "{\"schema\":\"lesslog.chaos\",\"note\":\"\\uZZZZ\"}"
  "u escape")

# A truncated artifact: the generic syntax path, with a byte offset.
expect_rejection(truncated
  "{\"schema\":\"lesslog.chaos\","
  "at byte")

# A version-1 artifact of a single-shard oracle run: well-formed, but
# recorded on a driver path that no longer exists, so it cannot replay.
expect_rejection(serial_v1
  "{\"schema\":\"lesslog.chaos\",\"version\":1,\"config\":{\"m\":6,\"b\":2,\"nodes\":40,\"seed\":\"1\",\"epochs\":5,\"epoch_length\":30,\"fault_intensity\":0.5,\"files\":48,\"get_rate\":20,\"bursts\":true,\"partitions\":true,\"corruption\":true,\"duplicates\":true,\"delay_spikes\":true,\"crashes\":true,\"churn\":true,\"silent_crashes\":false}}"
  "version 1")
