# Copyright (c) 2026 The SOS Authors. MIT License.
#
# Artifact-level telemetry determinism check (ctest: bench_metrics_determinism).
#
# Runs bench_lifetime_gap twice -- serial and with a worker pool -- and
# requires the exported metrics JSON, trace JSONL and the stdout report to be
# byte-identical. This is the end-to-end form of the repo's determinism
# contract: not just equal parsed values, but equal bytes, which is what CI
# diffs against the in-repo golden.
#
# Expects -DBENCH=<path to bench_lifetime_gap> and -DWORK_DIR=<scratch dir>.
# With -DGOLDEN=<file>, the serial metrics JSON must also equal that in-repo
# golden byte for byte. With -DTRACE_SHA256=<hex>, the serial trace JSONL
# must have that SHA-256 (a trace too large to keep as a golden file).

if(NOT DEFINED BENCH OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DBENCH=<bench binary> and -DWORK_DIR=<scratch dir>")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(arm IN ITEMS serial parallel)
  if(arm STREQUAL "serial")
    set(jobs 1)
  else()
    set(jobs 4)
  endif()
  execute_process(
    COMMAND "${BENCH}"
      --jobs=${jobs}
      --metrics-out=${WORK_DIR}/metrics_${arm}.json
      --trace-out=${WORK_DIR}/trace_${arm}.jsonl
    OUTPUT_FILE "${WORK_DIR}/stdout_${arm}.txt"
    ERROR_VARIABLE bench_stderr
    RESULT_VARIABLE bench_rc)
  if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR "bench --jobs=${jobs} failed (rc=${bench_rc}): ${bench_stderr}")
  endif()
endforeach()

foreach(pair IN ITEMS "metrics_serial.json|metrics_parallel.json"
                      "trace_serial.jsonl|trace_parallel.jsonl"
                      "stdout_serial.txt|stdout_parallel.txt")
  string(REPLACE "|" ";" files "${pair}")
  list(GET files 0 a)
  list(GET files 1 b)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK_DIR}/${a}" "${WORK_DIR}/${b}"
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "${a} and ${b} differ: telemetry export depends on --jobs "
        "(scheduling leaked into the deterministic stream)")
  endif()
endforeach()

if(DEFINED GOLDEN)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${WORK_DIR}/metrics_serial.json"
    RESULT_VARIABLE golden_rc)
  if(NOT golden_rc EQUAL 0)
    message(FATAL_ERROR "${WORK_DIR}/metrics_serial.json differs from the golden ${GOLDEN}")
  endif()
  message(STATUS "metrics byte-identical to ${GOLDEN}")
endif()

if(DEFINED TRACE_SHA256)
  file(SHA256 "${WORK_DIR}/trace_serial.jsonl" trace_sha256)
  if(NOT trace_sha256 STREQUAL TRACE_SHA256)
    message(FATAL_ERROR
        "${WORK_DIR}/trace_serial.jsonl has SHA-256 ${trace_sha256}, expected ${TRACE_SHA256}")
  endif()
  message(STATUS "trace SHA-256 is ${TRACE_SHA256}")
endif()

message(STATUS "metrics, trace and stdout byte-identical for --jobs=1 vs --jobs=4")
