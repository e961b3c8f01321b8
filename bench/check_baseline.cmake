# Runs a bench with `--json OUTPUT` and fails unless OUTPUT is byte-identical
# to the committed BASELINE (the bench must also exit 0).  Backs the
# perf.*_baseline ctest entries:
#   cmake -DBENCH=<exe> -DOUTPUT=<path> -DBASELINE=<path> -P check_baseline.cmake
foreach(var BENCH OUTPUT BASELINE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_baseline: -D${var}=<path> is required")
  endif()
endforeach()

execute_process(COMMAND "${BENCH}" --json "${OUTPUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_baseline: ${BENCH} exited with ${rc}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${OUTPUT}" "${BASELINE}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "check_baseline: ${OUTPUT} differs from ${BASELINE}")
endif()
